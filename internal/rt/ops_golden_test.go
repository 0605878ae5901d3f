package rt

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"nvref/internal/core"
	"nvref/internal/obs"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata golden files")

// The golden's sites are package-level: NewSite draws IDs, which index the
// branch predictor, from a process-wide counter, so a site made inside a
// test body would take an ID that depends on which tests ran first.
var (
	opsChecked  = NewSite("ops.checked", false)
	opsInferred = NewSite("ops.inferred", true)
)

// opsCase is one operand-form combination: p is the reference operated on
// (and stored through), q the second operand (and the value stored).
type opsCase struct {
	name string
	p, q core.Ptr
}

// nonzeroCounters reads every nonzero reference-model counter of the
// registry (CPU, rt, core, hw), by name. The pool layer's series are left
// out: they describe allocation bookkeeping, not the reference models.
func nonzeroCounters(reg *obs.Registry) map[string]int64 {
	out := make(map[string]int64)
	for _, s := range reg.Snapshot().Series {
		if s.Value != 0 && !strings.HasPrefix(s.Name, "pmem_") {
			out[strings.TrimSuffix(s.Name, "_total")] = s.Value
		}
	}
	return out
}

// renderCounters writes, in name order, each counter that differs between
// now and prev: as name+delta, or as name=value when prev is nil.
func renderCounters(b *strings.Builder, now, prev map[string]int64) {
	var names []string
	for n := range now {
		names = append(names, n)
	}
	for n := range prev {
		if _, ok := now[n]; !ok {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	for _, n := range names {
		if d := now[n] - prev[n]; d != 0 {
			if prev == nil {
				fmt.Fprintf(b, " %s=%d", n, d)
			} else {
				fmt.Fprintf(b, " %s%+d", n, d)
			}
		}
	}
}

// opsGolden drives every pointer operation over every operand form under one
// mode and renders one line per operation: its result and the change it made
// to each counter (zero changes omitted). The block ends with every nonzero
// counter's final value. label names the block; tune adjusts the fresh
// Context (the HW ablation switches).
func opsGolden(t *testing.T, mode Mode, label string, tune func(*Context)) string {
	t.Helper()
	c := MustNew(mode)
	if tune != nil {
		tune(c)
	}
	if err := c.SetPoolCount(2); err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	c.RegisterMetrics(reg)

	var b strings.Builder
	prev := nonzeroCounters(reg)
	row := func(op string, result string) {
		now := nonzeroCounters(reg)
		fmt.Fprintf(&b, "%s %s = %s |", label, op, result)
		renderCounters(&b, now, prev)
		b.WriteByte('\n')
		prev = now
	}
	ptr := func(p core.Ptr) string { return fmt.Sprintf("%#x", uint64(p)) }
	virt := func(p core.Ptr) core.Ptr {
		if !p.IsRelative() {
			return p
		}
		va, err := c.Reg.RA2VA(p)
		if err != nil {
			t.Fatal(err)
		}
		return core.FromVA(va)
	}
	plus := func(p core.Ptr, n uint32) core.Ptr {
		if p.IsRelative() {
			return p.WithOffset(p.Offset() + n)
		}
		return core.FromVA(p.VA() + uint64(n))
	}

	pools := c.Pools()
	a := c.PmallocIn(pools[0], 64)
	row("Pmalloc pool0", ptr(a))
	bb := c.PmallocIn(pools[1], 64)
	row("Pmalloc pool1", ptr(bb))
	d := c.Malloc(64)
	row("Malloc", ptr(d))

	aV, aR := virt(a), c.toPoolRef(a)
	bV, bR := virt(bb), c.toPoolRef(bb)
	cases := []opsCase{
		{"virtual", aV, plus(aV, 16)},
		{"relative", aR, plus(aR, 16)},
		{"mixed-rv", aR, plus(aV, 16)},
		{"mixed-vr", aV, plus(aR, 16)},
		{"same-object", aR, aV},
		{"two-pools", aR, bR},
		{"two-pools-virtual", aV, bV},
		{"null-q", aV, core.Null},
		{"null-p", core.Null, aR},
		{"dram-dest", d, aR},
		{"dram-value", aR, d},
	}
	sites := []*Site{opsChecked}
	if mode == SW {
		sites = append(sites, opsInferred)
	}
	for _, site := range sites {
		for _, k := range cases {
			op := func(name string) string { return site.Name + " " + k.name + " " + name }
			if !k.p.IsNull() {
				c.StorePtr(site, k.p, 0, k.q)
				raw, err := c.AS.Load64(virt(k.p).VA())
				if err != nil {
					t.Fatal(err)
				}
				row(op("StorePtr"), ptr(core.Ptr(raw)))
				row(op("LoadPtr"), ptr(c.LoadPtr(site, k.p, 0)))
				c.StoreWord(site, k.p, 8, 0x5eed)
				row(op("StoreWord"), "-")
				row(op("LoadWord"), fmt.Sprintf("%#x", c.LoadWord(site, k.p, 8)))
			}
			row(op("PtrEq"), fmt.Sprint(c.PtrEq(site, k.p, k.q)))
			row(op("PtrLess"), fmt.Sprint(c.PtrLess(site, k.p, k.q)))
			row(op("PtrDiff"), fmt.Sprint(c.PtrDiff(site, k.p, k.q, 8)))
			row(op("PtrToInt"), fmt.Sprintf("%#x", c.PtrToInt(site, k.p)))
			row(op("PtrAdd"), ptr(c.PtrAdd(k.p, 3, 8)))
			row(op("IsNull"), fmt.Sprint(c.IsNull(k.p)))
		}
	}
	for _, k := range []opsCase{{"virtual", aV, 0}, {"other-pool", bR, 0}, {"dram", d, 0}, {"null", core.Null, 0}} {
		c.SetRoot(opsChecked, k.p)
		row("SetRoot "+k.name, ptr(c.Pool.Root()))
		row("Root "+k.name, ptr(c.Root(opsChecked)))
	}

	final := nonzeroCounters(reg)
	fmt.Fprintf(&b, "%s final |", label)
	renderCounters(&b, final, nil)
	b.WriteByte('\n')
	return b.String()
}

// TestOpsGolden pins every pointer operation of the four reference models:
// for each mode, each op over each operand form (virtual, relative, null,
// mixed, two pools, DRAM), the result and every counter it moved must match
// testdata/ops_golden.txt. Run with -update to regenerate after an intended
// model change.
func TestOpsGolden(t *testing.T) {
	var got strings.Builder
	for _, mode := range Modes {
		got.WriteString(opsGolden(t, mode, mode.String(), nil))
	}
	got.WriteString(opsGolden(t, HW, "HW-ablated", func(c *Context) {
		c.DisableReuse = true
		c.MMUCriticalPath = true
	}))

	golden := filepath.Join("testdata", "ops_golden.txt")
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
		gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("ops diverged from golden at line %d (run with -update if intended)\n got: %s\nwant: %s", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("ops golden has %d lines, want %d", len(gl), len(wl))
	}
}
