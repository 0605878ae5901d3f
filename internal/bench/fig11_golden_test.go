package bench

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"nvref/internal/rt"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata golden files")

// TestFig11Golden pins the Figure 11 matrix at QuickRunConfig: every
// Measurement counter of the six containers under the four modes must match
// testdata/fig11_golden.txt. The containers' sites are package-level, so
// their branch-predictor IDs do not depend on which tests ran first. Run
// with -update to regenerate after an intended model change.
func TestFig11Golden(t *testing.T) {
	all := quickAll(t)
	var got strings.Builder
	for _, b := range Benchmarks {
		for _, mode := range rt.Modes {
			m := all[b][mode]
			fmt.Fprintf(&got, "%s %s cycles=%d instr=%d mem=%d branches=%d mispredicts=%d"+
				" storep=%d polb=%d valb=%d ea=%d swchecks=%d"+
				" checks=%d abs2rel=%d rel2abs=%d checksum=%d\n",
				b, mode, m.Cycles, m.Instructions, m.MemAccesses, m.Branches, m.Mispredicts,
				m.StorePOps, m.POLBAccesses, m.VALBAccesses, m.EATranslations, m.SWChecks,
				m.Env.DynamicChecks, m.Env.AbsToRel, m.Env.RelToAbs, m.Checksum)
		}
	}

	golden := filepath.Join("testdata", "fig11_golden.txt")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if got.String() != string(want) {
		t.Errorf("Fig. 11 matrix diverged from golden (run with -update if intended)\n got:\n%s\nwant:\n%s", got.String(), want)
	}
}
