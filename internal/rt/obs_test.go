package rt

import (
	"testing"

	"nvref/internal/obs"
)

// runSmallWorkload drives a few dozen reference operations so every layer's
// counters move.
func runSmallWorkload(c *Context) {
	a := c.Pmalloc(64)
	b := c.Pmalloc(64)
	c.StorePtr(tsStore, a, 0, b)
	for i := 0; i < 16; i++ {
		p := c.LoadPtr(tsLoad, a, 0)
		c.StoreWord(tsStore, p, 8, uint64(i))
		_ = c.LoadWord(tsLoad, p, 8)
		_ = c.PtrEq(tsLoad, p, b)
	}
	c.Pfree(b, 64)
}

func TestRegisterMetricsMatchesLegacyStats(t *testing.T) {
	for _, mode := range []Mode{Volatile, Explicit, SW, HW} {
		c := MustNew(mode)
		reg := obs.NewRegistry()
		c.RegisterMetrics(reg)
		runSmallWorkload(c)

		snap := reg.Snapshot()
		// The exported series must equal the legacy struct counters exactly:
		// the collectors read the same memory the experiments report from.
		checks := map[string]uint64{
			"rt_pointer_loads_total":    c.Stats.PointerLoads,
			"rt_pointer_stores_total":   c.Stats.PointerStores,
			"rt_allocs_total":           c.Stats.Allocs,
			"rt_frees_total":            c.Stats.Frees,
			"core_dynamic_checks_total": c.Env.Stats.DynamicChecks,
			"core_abs_to_rel_total":     c.Env.Stats.AbsToRel,
			"core_rel_to_abs_total":     c.Env.Stats.RelToAbs,
			"hw_polb_hits_total":        c.MMU.POLB.Stats.Hits,
			"hw_polb_misses_total":      c.MMU.POLB.Stats.Misses,
			"hw_valb_hits_total":        c.MMU.VALB.Stats.Hits,
			"hw_storep_ops_total":       c.StoreP.Stats.Ops,
			"cpu_cycles_total":          c.CPU.Stats.Cycles,
			"cpu_instructions_total":    c.CPU.Stats.Instructions,
			"cpu_branches_total":        c.CPU.Stats.Branch.Branches,
			"pmem_pool_creates_total":   c.Reg.Stats.Creates,
		}
		for name, want := range checks {
			if got := snap.Value(name); got != int64(want) {
				t.Errorf("%s mode: %s = %d, legacy counter = %d", mode, name, got, want)
			}
		}
		if mode == SW && snap.Value("core_dynamic_checks_total") == 0 {
			t.Errorf("SW mode: dynamic checks never counted")
		}
		if mode == HW && snap.Value("hw_storep_ops_total") == 0 {
			t.Errorf("HW mode: storeP ops never counted")
		}
	}
}

func TestRegisterMetricsRebindsToFreshContext(t *testing.T) {
	reg := obs.NewRegistry()
	c1 := MustNew(HW)
	c1.RegisterMetrics(reg)
	runSmallWorkload(c1)
	first := reg.Snapshot().Value("rt_pointer_loads_total")
	if first == 0 {
		t.Fatal("first context never counted")
	}

	c2 := MustNew(HW)
	c2.RegisterMetrics(reg) // collectors rebind; same series names
	if got := reg.Snapshot().Value("rt_pointer_loads_total"); got != 0 {
		t.Errorf("after rebind, fresh context reads %d, want 0", got)
	}
}

func TestStructuredTraceCarriesConversions(t *testing.T) {
	c := MustNew(HW)
	tr := obs.NewTracer(64)
	c.SetTracer(tr)

	a := c.Pmalloc(32)
	b := c.Pmalloc(32)
	c.StorePtr(tsStore, a, 0, b) // VA local into NVM: va2ra
	_ = c.LoadPtr(tsLoad, a, 0)  // relative loaded: ra2va

	var sawStore, sawLoad bool
	for _, e := range tr.Events() {
		switch e.Kind {
		case obs.EvStorePtr:
			sawStore = true
			if e.Conv != obs.ConvAbsToRel {
				t.Errorf("storePtr conv = %s, want va2ra", e.Conv)
			}
		case obs.EvLoadPtr:
			sawLoad = true
			if e.Conv != obs.ConvRelToAbs {
				t.Errorf("loadPtr conv = %s, want ra2va", e.Conv)
			}
		}
		if e.Mode != "HW" {
			t.Errorf("event mode %q, want HW", e.Mode)
		}
	}
	if !sawStore || !sawLoad {
		t.Fatalf("trace missing pointer events: store=%v load=%v", sawStore, sawLoad)
	}
}
