package bench

import (
	"fmt"
	"testing"

	"nvref/internal/rt"
)

// TestCalibrationShape prints the Figure 11 / 13 shape at reduced scale and
// asserts the qualitative relationships the paper reports. Run with -v to
// see the table.
func TestCalibrationShape(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration run")
	}
	all := quickAll(t)
	for _, b := range Benchmarks {
		ms := all[b]
		vol := float64(ms[rt.Volatile].Cycles)
		line := fmt.Sprintf("%-6s time:", b)
		for _, mode := range []rt.Mode{rt.HW, rt.Explicit, rt.SW} {
			line += fmt.Sprintf(" %s=%.2fx", mode, float64(ms[mode].Cycles)/vol)
		}
		volBr := float64(ms[rt.Volatile].Mispredicts)
		line += fmt.Sprintf(" | mispred: HW=%.1fx SW=%.1fx",
			float64(ms[rt.HW].Mispredicts)/volBr, float64(ms[rt.SW].Mispredicts)/volBr)
		line += fmt.Sprintf(" | storeP=%.3f%% POLB=%.1f%% VALB=%.3f%%",
			100*float64(ms[rt.HW].StorePOps)/float64(ms[rt.HW].MemAccesses),
			100*float64(ms[rt.HW].POLBAccesses)/float64(ms[rt.HW].MemAccesses),
			100*float64(ms[rt.HW].VALBAccesses)/float64(ms[rt.HW].MemAccesses))
		t.Log(line)

		if ms[rt.HW].Cycles >= ms[rt.Explicit].Cycles {
			t.Errorf("%s: HW (%d) not faster than Explicit (%d)", b, ms[rt.HW].Cycles, ms[rt.Explicit].Cycles)
		}
		if ms[rt.SW].Cycles <= ms[rt.Volatile].Cycles {
			t.Errorf("%s: SW not slower than Volatile", b)
		}
		hwOver := float64(ms[rt.HW].Cycles) / vol
		if hwOver > 1.35 {
			t.Errorf("%s: HW overhead %.2fx exceeds 1.35x", b, hwOver)
		}
	}
}
