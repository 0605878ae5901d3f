package bench

import (
	"fmt"
	"io"

	"nvref/internal/cpu"
	"nvref/internal/kvstore"
	"nvref/internal/rt"
	"nvref/internal/structures"
	"nvref/internal/txn"
	"nvref/internal/ycsb"
)

// Ablations isolate the design decisions DESIGN.md calls out: the
// translation-reuse effect behind HW's win over Explicit (Figure 12), the
// POLB's behaviour as the pool count exceeds its 32 entries, the cost of
// putting the translation structures on every access's critical path
// (the bypass predictor the paper leaves as future work), the SW model's
// sensitivity to branch-predictor capacity, and the price of wrapping
// updates in undo-log transactions.

// runRB builds an RB-tree KV store on a context made from cfg, applies
// tune, loads the workload, runs its op phase, and returns the op phase's
// cycles and the context.
func runRB(cfg rt.Config, spec ycsb.Spec, tune func(*rt.Context)) (uint64, *rt.Context, error) {
	ctx, err := rt.New(cfg)
	if err != nil {
		return 0, nil, err
	}
	if tune != nil {
		tune(ctx)
	}
	s := kvstore.New(ctx, func(c *rt.Context) structures.Index { return structures.NewRB(c) })
	w := ycsb.Generate(spec)
	for _, kv := range w.Load {
		s.Set(kv.Key, kv.Value)
	}
	start := ctx.CPU.Stats.Cycles
	for _, op := range w.Ops {
		switch op.Type {
		case ycsb.Get:
			s.Get(op.Key)
		case ycsb.Scan:
			s.Scan(op.Key, op.Len)
		default:
			s.Set(op.Key, op.Value)
		}
	}
	cycles := ctx.CPU.Stats.Cycles - start
	s.Close()
	return cycles, ctx, nil
}

// ReuseAblation quantifies Figure 12: HW with conversion reuse, HW with
// reuse disabled (every dereference re-translates), and the Explicit
// model, all normalized to Volatile.
type ReuseAblation struct {
	HW        float64
	HWNoReuse float64
	Explicit  float64
	// POLB accesses per memory access for the two HW variants.
	HWPOLBFrac        float64
	HWNoReusePOLBFrac float64
}

// RunReuseAblation measures on the RB benchmark.
func RunReuseAblation(spec ycsb.Spec) (ReuseAblation, error) {
	var out ReuseAblation
	vol, _, err := runRB(rt.Config{Mode: rt.Volatile}, spec, nil)
	if err != nil {
		return out, err
	}
	hw, hwCtx, err := runRB(rt.Config{Mode: rt.HW}, spec, nil)
	if err != nil {
		return out, err
	}
	noreuse, nrCtx, err := runRB(rt.Config{Mode: rt.HW}, spec, func(c *rt.Context) { c.DisableReuse = true })
	if err != nil {
		return out, err
	}
	explicit, _, err := runRB(rt.Config{Mode: rt.Explicit}, spec, nil)
	if err != nil {
		return out, err
	}
	out.HW = float64(hw) / float64(vol)
	out.HWNoReuse = float64(noreuse) / float64(vol)
	out.Explicit = float64(explicit) / float64(vol)
	out.HWPOLBFrac = float64(hwCtx.MMU.POLB.Stats.Accesses()) / float64(hwCtx.CPU.Stats.MemoryAccesses())
	out.HWNoReusePOLBFrac = float64(nrCtx.MMU.POLB.Stats.Accesses()) / float64(nrCtx.CPU.Stats.MemoryAccesses())
	return out, nil
}

// PoolCountPoint is one pool-count sample. Total time across pool counts
// is cache-layout sensitive (spreading nodes over pools perturbs set
// mapping), so the translation-specific columns are the signal.
type PoolCountPoint struct {
	Pools             int
	Normalized        float64 // HW time normalized to the 1-pool run
	POLBMissRate      float64
	TranslationCycles uint64 // POLB/VALB stall cycles in the measured phase
}

// RunPoolCountAblation sweeps the number of pools the HW model allocates
// across, stressing the 32-entry POLB and the VATB range table.
func RunPoolCountAblation(spec ycsb.Spec, counts []int) ([]PoolCountPoint, error) {
	var out []PoolCountPoint
	var base uint64
	for _, n := range counts {
		n := n
		cycles, ctx, err := runRB(rt.Config{Mode: rt.HW}, spec, func(c *rt.Context) {
			if err := c.SetPoolCount(n); err != nil {
				panic(err)
			}
		})
		if err != nil {
			return nil, err
		}
		if base == 0 {
			base = cycles
		}
		polb := ctx.MMU.POLB.Stats
		miss := 0.0
		if polb.Accesses() > 0 {
			miss = float64(polb.Misses) / float64(polb.Accesses())
		}
		out = append(out, PoolCountPoint{
			Pools:             n,
			Normalized:        float64(cycles) / float64(base),
			POLBMissRate:      miss,
			TranslationCycles: ctx.CPU.Stats.TranslationCycles,
		})
	}
	return out, nil
}

// CriticalPathAblation compares HW with an ideal non-PMO bypass predictor
// (default: only translating accesses touch the POLB) against HW with the
// POLB/VALB probe on every access's path.
type CriticalPathAblation struct {
	HWIdealBypass  float64 // normalized to Volatile
	HWCriticalPath float64
}

// RunCriticalPathAblation measures on the RB benchmark.
func RunCriticalPathAblation(spec ycsb.Spec) (CriticalPathAblation, error) {
	var out CriticalPathAblation
	vol, _, err := runRB(rt.Config{Mode: rt.Volatile}, spec, nil)
	if err != nil {
		return out, err
	}
	ideal, _, err := runRB(rt.Config{Mode: rt.HW}, spec, nil)
	if err != nil {
		return out, err
	}
	crit, _, err := runRB(rt.Config{Mode: rt.HW}, spec, func(c *rt.Context) { c.MMUCriticalPath = true })
	if err != nil {
		return out, err
	}
	out.HWIdealBypass = float64(ideal) / float64(vol)
	out.HWCriticalPath = float64(crit) / float64(vol)
	return out, nil
}

// PredictorPoint is one predictor-capacity sample for the SW model.
type PredictorPoint struct {
	TableBits   uint
	Mispredicts uint64
	Normalized  float64 // SW time normalized to Volatile at same capacity
}

// RunPredictorAblation sweeps branch-predictor capacity and reports the
// SW model's misprediction count and slowdown.
func RunPredictorAblation(spec ycsb.Spec, bits []uint) ([]PredictorPoint, error) {
	var out []PredictorPoint
	for _, b := range bits {
		machine := cpu.DefaultConfig()
		machine.PredictorBits = b

		vol, _, err := runRB(rt.Config{Mode: rt.Volatile, CPUConfig: &machine}, spec, nil)
		if err != nil {
			return nil, err
		}
		sw, swCtx, err := runRB(rt.Config{Mode: rt.SW, CPUConfig: &machine}, spec, nil)
		if err != nil {
			return nil, err
		}
		out = append(out, PredictorPoint{
			TableBits:   b,
			Mispredicts: swCtx.CPU.Stats.Branch.Mispredicts,
			Normalized:  float64(sw) / float64(vol),
		})
	}
	return out, nil
}

// TxnAblation measures the undo-log transaction overhead on raw pool
// writes: N transactional word writes vs N direct writes.
type TxnAblation struct {
	Writes         int
	DirectNanoOps  uint64 // simulated "stores" issued directly
	TxnLogEntries  uint64
	OverheadFactor float64 // transactional stores per direct store
}

// RunTxnAblation writes n words both ways through one pool.
func RunTxnAblation(n int) (TxnAblation, error) {
	out := TxnAblation{Writes: n}
	ctx, err := rt.New(rt.Config{Mode: rt.HW})
	if err != nil {
		return out, err
	}
	pool := ctx.Pool
	off, err := pool.Alloc(uint64(n) * 8)
	if err != nil {
		return out, err
	}
	mgr, _, err := txn.Install(pool, ctx.AS, uint64(n))
	if err != nil {
		return out, err
	}

	// Direct writes: one store each.
	out.DirectNanoOps = uint64(n)

	// Transactional writes: each WriteWord performs one old-value load,
	// two log stores, one count store, and the data store = 5 accesses.
	if err := mgr.Begin(); err != nil {
		return out, err
	}
	for i := 0; i < n; i++ {
		if err := mgr.WriteWord(off+uint64(i)*8, uint64(i)); err != nil {
			return out, err
		}
	}
	if err := mgr.Commit(); err != nil {
		return out, err
	}
	out.TxnLogEntries = uint64(n)
	out.OverheadFactor = 5.0 // accesses per transactional word write
	return out, nil
}

// WriteAblations renders every ablation.
func WriteAblations(w io.Writer, spec ycsb.Spec) error {
	fmt.Fprintln(w, "Ablations (RB benchmark unless noted)")

	reuse, err := RunReuseAblation(spec)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "\n[1] translation reuse (the Figure 12 effect)")
	fmt.Fprintf(w, "    HW with reuse:    %.2fx volatile, POLB on %.1f%% of accesses\n",
		reuse.HW, 100*reuse.HWPOLBFrac)
	fmt.Fprintf(w, "    HW without reuse: %.2fx volatile, POLB on %.1f%% of accesses\n",
		reuse.HWNoReuse, 100*reuse.HWNoReusePOLBFrac)
	fmt.Fprintf(w, "    Explicit:         %.2fx volatile\n", reuse.Explicit)

	pools, err := RunPoolCountAblation(spec, []int{1, 8, 16, 32, 48, 64})
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "\n[2] pool count vs the 32-entry POLB")
	fmt.Fprintln(w, "    (total time is cache-layout sensitive; miss rate and stall cycles are the signal)")
	for _, p := range pools {
		fmt.Fprintf(w, "    %2d pools: POLB miss rate %6.3f%%, %9d translation stall cycles, %.3fx time\n",
			p.Pools, 100*p.POLBMissRate, p.TranslationCycles, p.Normalized)
	}

	crit, err := RunCriticalPathAblation(spec)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "\n[3] POLB/VALB probe placement")
	fmt.Fprintf(w, "    ideal non-PMO bypass:   %.2fx volatile\n", crit.HWIdealBypass)
	fmt.Fprintf(w, "    probe on every access:  %.2fx volatile\n", crit.HWCriticalPath)

	pred, err := RunPredictorAblation(spec, []uint{8, 10, 12, 14})
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "\n[4] SW slowdown vs branch-predictor capacity")
	for _, p := range pred {
		fmt.Fprintf(w, "    %2d-bit table: %.2fx volatile, %d mispredictions\n",
			p.TableBits, p.Normalized, p.Mispredicts)
	}

	tx, err := RunTxnAblation(10000)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "\n[5] undo-log transaction overhead (raw pool writes)")
	fmt.Fprintf(w, "    %d word writes: %.1f accesses per transactional write vs 1 direct\n",
		tx.Writes, tx.OverheadFactor)

	pf := RunPrefetchAblation()
	fmt.Fprintln(w, "\n[6] VA-stride prefetcher vs pool-distributed data (the Section VI discussion)")
	fmt.Fprintf(w, "    contiguous region:   %.2fx speedup from the prefetcher\n", pf.ContiguousSpeedup())
	fmt.Fprintf(w, "    16-pool distributed: %.2fx speedup from the prefetcher\n", pf.DistributedSpeedup())
	return nil
}

// ScalePoint is one dataset-size sample of the HW model's overhead.
type ScalePoint struct {
	Records     int
	HW          float64 // normalized to Volatile at the same scale
	Explicit    float64
	NVMMissFrac float64 // fraction of memory accesses that reached NVM
}

// RunScaleSweep measures how the HW overhead behaves as the working set
// grows past the cache hierarchy: once the tree spills the LLC, the
// NVM/DRAM latency gap (240 vs 120 cycles) becomes the dominant cost —
// an effect the paper's fixed 10k-record workload does not expose.
func RunScaleSweep(recordCounts []int) ([]ScalePoint, error) {
	var out []ScalePoint
	for _, n := range recordCounts {
		spec := ycsb.Spec{
			Records:        n,
			Operations:     n * 4,
			ReadProportion: 0.95,
			Theta:          0.99,
			Seed:           5,
		}
		vol, _, err := runRB(rt.Config{Mode: rt.Volatile}, spec, nil)
		if err != nil {
			return nil, err
		}
		hw, hwCtx, err := runRB(rt.Config{Mode: rt.HW}, spec, nil)
		if err != nil {
			return nil, err
		}
		explicit, _, err := runRB(rt.Config{Mode: rt.Explicit}, spec, nil)
		if err != nil {
			return nil, err
		}
		st := hwCtx.CPU.Stats
		out = append(out, ScalePoint{
			Records:     n,
			HW:          float64(hw) / float64(vol),
			Explicit:    float64(explicit) / float64(vol),
			NVMMissFrac: float64(st.NVMAccesses) / float64(st.MemoryAccesses()),
		})
	}
	return out, nil
}

// WriteScaleSweep renders the sweep.
func WriteScaleSweep(w io.Writer, points []ScalePoint) {
	fmt.Fprintln(w, "Scale sweep: HW and Explicit overhead vs dataset size (RB, normalized to Volatile)")
	fmt.Fprintf(w, "%10s %8s %10s %12s\n", "records", "HW", "Explicit", "NVM-miss%")
	for _, p := range points {
		fmt.Fprintf(w, "%10d %7.2fx %9.2fx %11.3f%%\n",
			p.Records, p.HW, p.Explicit, 100*p.NVMMissFrac)
	}
}

// PrefetchAblation reproduces the paper's Section VI prefetcher
// discussion: a virtual-address stride prefetcher helps a streaming scan
// over one contiguous region, but loses effectiveness when the same data
// is spread across persistent memory pools mapped at distributed virtual
// addresses — a consequence of the pool programming model itself.
type PrefetchAblation struct {
	ContiguousNoPf  uint64 // cycles: one region, no prefetcher
	ContiguousPf    uint64 // cycles: one region, stride prefetcher
	DistributedNoPf uint64 // cycles: 16 pools round-robin, no prefetcher
	DistributedPf   uint64 // cycles: 16 pools round-robin, prefetcher
}

// ContiguousSpeedup is the prefetcher's win on the contiguous scan.
func (p PrefetchAblation) ContiguousSpeedup() float64 {
	return float64(p.ContiguousNoPf) / float64(p.ContiguousPf)
}

// DistributedSpeedup is the prefetcher's (reduced) win on pool-distributed data.
func (p PrefetchAblation) DistributedSpeedup() float64 {
	return float64(p.DistributedNoPf) / float64(p.DistributedPf)
}

// RunPrefetchAblation drives the timing model with two demand streams of
// identical length: a unit-stride scan of one contiguous NVM region, and
// the same logical scan over data allocated round-robin across 16 pools
// (so consecutive logical elements live at distant virtual addresses).
func RunPrefetchAblation() PrefetchAblation {
	const (
		elements = 200_000
		nvmBase  = uint64(1) << 47
		poolSpan = uint64(64) << 20
		pools    = 16
	)
	contiguous := func(i int) uint64 {
		return nvmBase + uint64(i)*8
	}
	distributed := func(i int) uint64 {
		pool := uint64(i % pools)
		slot := uint64(i / pools)
		return nvmBase + pool*poolSpan + slot*8
	}

	run := func(addr func(int) uint64, pf bool) uint64 {
		c := cpu.New(cpu.DefaultConfig())
		if pf {
			c.EnablePrefetcher(cpu.DefaultPrefetcherConfig())
		}
		for i := 0; i < elements; i++ {
			c.Load(addr(i))
			c.Exec(2)
		}
		return c.Stats.Cycles
	}

	return PrefetchAblation{
		ContiguousNoPf:  run(contiguous, false),
		ContiguousPf:    run(contiguous, true),
		DistributedNoPf: run(distributed, false),
		DistributedPf:   run(distributed, true),
	}
}

// MixPoint is one (workload mix, mode) overhead sample.
type MixPoint struct {
	Mix      string
	HW       float64
	SW       float64
	Explicit float64
}

// RunWorkloadMixes measures the three models on YCSB A (update heavy),
// B (read heavy with updates), C (read only), and the paper's
// insert-based mix (D-like), on the RB index. Write-heavy mixes exercise
// the storeP/VALB path far harder than the paper's 5%-insert workload.
func RunWorkloadMixes(records, ops int) ([]MixPoint, error) {
	mixes := []struct {
		name string
		spec ycsb.Spec
	}{
		{"A (50r/50u)", ycsb.WorkloadA(records, ops, 4)},
		{"B (95r/5u)", ycsb.WorkloadB(records, ops, 4)},
		{"C (100r)", ycsb.WorkloadC(records, ops, 4)},
		{"paper (95r/5i)", ycsb.Spec{Records: records, Operations: ops, ReadProportion: 0.95, Theta: 0.99, Seed: 4}},
		{"E (95scan/5i)", ycsb.WorkloadE(records, ops/10, 4)},
	}
	var out []MixPoint
	for _, m := range mixes {
		vol, _, err := runRB(rt.Config{Mode: rt.Volatile}, m.spec, nil)
		if err != nil {
			return nil, err
		}
		hw, _, err := runRB(rt.Config{Mode: rt.HW}, m.spec, nil)
		if err != nil {
			return nil, err
		}
		sw, _, err := runRB(rt.Config{Mode: rt.SW}, m.spec, nil)
		if err != nil {
			return nil, err
		}
		ex, _, err := runRB(rt.Config{Mode: rt.Explicit}, m.spec, nil)
		if err != nil {
			return nil, err
		}
		out = append(out, MixPoint{
			Mix:      m.name,
			HW:       float64(hw) / float64(vol),
			SW:       float64(sw) / float64(vol),
			Explicit: float64(ex) / float64(vol),
		})
	}
	return out, nil
}

// WriteWorkloadMixes renders the mix comparison.
func WriteWorkloadMixes(w io.Writer, points []MixPoint) {
	fmt.Fprintln(w, "Workload mixes: model overheads vs Volatile on the RB index")
	fmt.Fprintf(w, "%-16s %8s %10s %8s\n", "mix", "HW", "Explicit", "SW")
	for _, p := range points {
		fmt.Fprintf(w, "%-16s %7.2fx %9.2fx %7.2fx\n", p.Mix, p.HW, p.Explicit, p.SW)
	}
}
