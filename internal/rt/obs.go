package rt

import "nvref/internal/obs"

// RegisterMetrics binds every counter of this Context — runtime layer,
// semantic layer (core.Env), hardware model (POLB/VALB/storeP), and timing
// model (cpu) — into reg as pull-style collector series. Collectors read
// the live stat structs only at snapshot time, so registration adds zero
// cost to the simulated hot path and the exported values are exactly the
// legacy struct counters (the Table V / Fig. 15 sources), never a copy that
// can drift.
//
// Registering a second Context on the same registry rebinds the series to
// the new Context (collectors replace); pass a fresh registry to keep both.
func (c *Context) RegisterMetrics(reg *obs.Registry) {
	ctr := func(name, help string, fn func() uint64) { reg.CounterFunc(name, help, fn) }

	// Runtime layer (rt.Stats).
	ctr("rt_pointer_loads_total", "pointer loads executed", func() uint64 { return c.Stats.PointerLoads })
	ctr("rt_pointer_stores_total", "pointer stores executed", func() uint64 { return c.Stats.PointerStores })
	ctr("rt_storep_ops_total", "storeP instructions executed (HW)", func() uint64 { return c.Stats.StorePOps })
	ctr("rt_ea_translations_total", "relative-to-virtual conversions at EA generation (HW)", func() uint64 { return c.Stats.EATranslations })
	ctr("rt_sw_check_branches_total", "dynamic-check conditional branches (SW)", func() uint64 { return c.Stats.SWCheckBranches })
	ctr("rt_explicit_accesses_total", "persistent-object accesses through the explicit API", func() uint64 { return c.Stats.ExplicitAccesses })
	ctr("rt_allocs_total", "allocations", func() uint64 { return c.Stats.Allocs })
	ctr("rt_frees_total", "deallocations", func() uint64 { return c.Stats.Frees })
	ctr("rt_trace_events_total", "structured trace events emitted", func() uint64 { return c.tracer.Emitted() })

	// Semantic layer (core.Stats) — the Table V counters.
	ctr("core_dynamic_checks_total", "determineX/determineY dispatches", func() uint64 { return c.Env.Stats.DynamicChecks })
	ctr("core_abs_to_rel_total", "virtual-to-relative (va2ra) conversions", func() uint64 { return c.Env.Stats.AbsToRel })
	ctr("core_rel_to_abs_total", "relative-to-virtual (ra2va) conversions", func() uint64 { return c.Env.Stats.RelToAbs })

	// Hardware model: lookaside buffers and the storeP unit.
	ctr("hw_polb_hits_total", "POLB hits", func() uint64 { return c.MMU.POLB.Stats.Hits })
	ctr("hw_polb_misses_total", "POLB misses (POW walks)", func() uint64 { return c.MMU.POLB.Stats.Misses })
	ctr("hw_polb_walk_cycles_total", "cycles spent in POW walks", func() uint64 { return c.MMU.POLB.Stats.WalkCycles })
	ctr("hw_valb_hits_total", "VALB hits", func() uint64 { return c.MMU.VALB.Stats.Hits })
	ctr("hw_valb_misses_total", "VALB misses (VAW walks)", func() uint64 { return c.MMU.VALB.Stats.Misses })
	ctr("hw_valb_walk_cycles_total", "cycles spent in VAW walks", func() uint64 { return c.MMU.VALB.Stats.WalkCycles })
	ctr("hw_storep_ops_total", "storeP unit operations", func() uint64 { return c.StoreP.Stats.Ops })
	ctr("hw_storep_faults_total", "storeP translation faults", func() uint64 { return c.StoreP.Stats.Faults })
	ctr("hw_storep_rd_translations_total", "storeP destination (ra2va) translations", func() uint64 { return c.StoreP.Stats.RdTranslations })
	ctr("hw_storep_rs_translations_total", "storeP source translations", func() uint64 { return c.StoreP.Stats.RsTranslations })
	ctr("hw_storep_cycles_total", "cycles storeP ops held FSM entries", func() uint64 { return c.StoreP.Stats.Cycles })
	reg.GaugeFunc("hw_storep_max_occupancy", "peak FSM buffer entries in flight", func() int64 { return int64(c.StoreP.Stats.MaxOccupancy) })
	reg.GaugeFunc("hw_storep_inflight", "FSM buffer entries currently in flight", func() int64 { return int64(len(c.storePBusy)) })

	// Timing model (cpu.Stats).
	ctr("cpu_cycles_total", "simulated cycles", func() uint64 { return c.CPU.Stats.Cycles })
	ctr("cpu_instructions_total", "retired instructions", func() uint64 { return c.CPU.Stats.Instructions })
	ctr("cpu_loads_total", "data loads", func() uint64 { return c.CPU.Stats.Loads })
	ctr("cpu_stores_total", "data stores", func() uint64 { return c.CPU.Stats.Stores })
	ctr("cpu_l1_hits_total", "L1 cache hits", func() uint64 { return c.CPU.Stats.L1.Hits })
	ctr("cpu_l1_misses_total", "L1 cache misses", func() uint64 { return c.CPU.Stats.L1.Misses })
	ctr("cpu_l2_hits_total", "L2 cache hits", func() uint64 { return c.CPU.Stats.L2.Hits })
	ctr("cpu_l2_misses_total", "L2 cache misses", func() uint64 { return c.CPU.Stats.L2.Misses })
	ctr("cpu_l3_hits_total", "L3 cache hits", func() uint64 { return c.CPU.Stats.L3.Hits })
	ctr("cpu_l3_misses_total", "L3 cache misses", func() uint64 { return c.CPU.Stats.L3.Misses })
	ctr("cpu_tlb_l1_hits_total", "L1 TLB hits", func() uint64 { return c.CPU.Stats.TLB.L1Hits })
	ctr("cpu_tlb_l2_hits_total", "L2 TLB hits", func() uint64 { return c.CPU.Stats.TLB.L2Hits })
	ctr("cpu_tlb_walks_total", "page walks", func() uint64 { return c.CPU.Stats.TLB.Walks })
	ctr("cpu_branches_total", "conditional branches", func() uint64 { return c.CPU.Stats.Branch.Branches })
	ctr("cpu_branch_mispredicts_total", "branch mispredictions", func() uint64 { return c.CPU.Stats.Branch.Mispredicts })
	ctr("cpu_dram_accesses_total", "accesses served by DRAM", func() uint64 { return c.CPU.Stats.DRAMAccesses })
	ctr("cpu_nvm_accesses_total", "accesses served by NVM", func() uint64 { return c.CPU.Stats.NVMAccesses })
	ctr("cpu_translation_cycles_total", "stall cycles from POLB/VALB/walkers", func() uint64 { return c.CPU.Stats.TranslationCycles })
	ctr("cpu_prefetch_issued_total", "prefetches issued", func() uint64 { return c.CPU.Prefetch().Issued })
	ctr("cpu_prefetch_useful_total", "demand accesses covered by a prefetch", func() uint64 { return c.CPU.Prefetch().UsefulHit })

	// Pool layer, through this Context's registry and pools.
	c.Reg.RegisterMetrics(reg)
}
