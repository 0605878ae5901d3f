package main

// embedded_paper: no server. The paper's own use — a legacy container
// library called in-process — at the Fig. 11 configuration (six containers
// under the four reference models), followed by the minc corpus compiled
// and run under every model. Simulated counts must repeat exactly from pass
// to pass; host times are medians over the passes.

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"sync"
	"time"

	"nvref/internal/bench"
	"nvref/internal/kvstore"
	"nvref/internal/minc"
	"nvref/internal/rt"
	"nvref/internal/structures"
	"nvref/internal/ycsb"
)

// fig11Committed is the table EXPERIMENTS.md commits (overhead over
// Volatile at ycsb.PaperSpec, seed 1), the reference the model's numbers
// are stated against.
var fig11Committed = map[string]map[rt.Mode]float64{
	"LL":    {rt.HW: 1.03, rt.Explicit: 1.26, rt.SW: 1.69},
	"Hash":  {rt.HW: 1.07, rt.Explicit: 1.20, rt.SW: 1.63},
	"RB":    {rt.HW: 1.06, rt.Explicit: 1.25, rt.SW: 1.73},
	"Splay": {rt.HW: 1.13, rt.Explicit: 1.81, rt.SW: 7.01},
	"AVL":   {rt.HW: 1.16, rt.Explicit: 1.46, rt.SW: 2.41},
	"SG":    {rt.HW: 1.10, rt.Explicit: 1.56, rt.SW: 3.47},
}

// embeddedConfig is the Fig. 11 run configuration with the workload stream
// drawn from seed.
func embeddedConfig(quick bool, seed int64) bench.RunConfig {
	cfg := bench.PaperRunConfig()
	if quick {
		cfg = bench.QuickRunConfig()
	}
	cfg.Spec.Seed = seed
	return cfg
}

// cellOps is how many container operations one (container, model) cell
// performs in its measured phase; for LL an operation is one node visit.
func cellOps(name string, cfg bench.RunConfig) int {
	if name == "LL" {
		return cfg.LLNodes * cfg.LLIters
	}
	return cfg.Spec.Operations
}

// simCounts is every simulated number one pass produces. Two passes over
// the same inputs must produce equal Cells and CorpusInstrs. CorpusCycles is
// not held to that: every minc.Run registers fresh rt.NewSite IDs from a
// process-global counter, the branch predictor is indexed by them, and so
// a program's cycles shift by a fraction of a percent with how many sites
// the process created before it. The drift is reported as a metric.
type simCounts struct {
	Cells        map[string]map[rt.Mode]bench.Measurement
	CorpusInstrs map[rt.Mode]uint64
	CorpusCycles map[rt.Mode]uint64
}

// repeats reports whether two passes agree on everything that must repeat.
func (s simCounts) repeats(o simCounts) bool {
	return reflect.DeepEqual(s.Cells, o.Cells) && reflect.DeepEqual(s.CorpusInstrs, o.CorpusInstrs)
}

// passTimes is the host-clock side of one pass.
type passTimes struct {
	total      time.Duration // whole pass
	cpu        time.Duration
	fig11      time.Duration
	fig11Total uint64 // simulated cycles of every cell, build phase included
	corpus     time.Duration
	callLat    [][]int64 // per repetition: ascending per-call host latency of the RB/HW engine, ns
	polb, valb [2]uint64 // HW-model hits, accesses over the six containers
}

const (
	// callReps is how many times a pass repeats the per-call latency loop.
	callReps = 3
	// cellWorkers is how many Fig. 11 cells simulate at once: one per core
	// of the pinned 2-core box, like the serve_* workloads' two clients.
	cellWorkers = 2
	// minPasses is the fewest passes a run makes, so that a median over
	// passes can drop a disturbed one.
	minPasses = 3
)

// embeddedPass runs the Fig. 11 cells, the corpus under every model, and
// the per-call latency loop once.
func embeddedPass(cfg bench.RunConfig, progs []*minc.Program) (simCounts, passTimes, error) {
	sim := simCounts{
		Cells:        make(map[string]map[rt.Mode]bench.Measurement),
		CorpusCycles: make(map[rt.Mode]uint64),
		CorpusInstrs: make(map[rt.Mode]uint64),
	}
	var pt passTimes
	runtime.GC() // every pass starts from the same heap state
	start, cpu0 := time.Now(), cpuTime()

	// The 24 cells are independent simulations (one rt.Context each), so
	// cellWorkers of them run side by side; the results are folded in table
	// order, which keeps every simulated sum independent of scheduling.
	type cell struct {
		name string
		mode rt.Mode
		m    bench.Measurement
		ctx  *rt.Context
		err  error
	}
	var cells []*cell
	for _, name := range bench.Benchmarks {
		sim.Cells[name] = make(map[rt.Mode]bench.Measurement)
		for _, mode := range rt.Modes {
			cells = append(cells, &cell{name: name, mode: mode})
		}
	}
	next := make(chan *cell)
	var wg sync.WaitGroup
	for w := 0; w < cellWorkers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for c := range next {
				run := cfg
				run.Observe = func(ctx *rt.Context) { c.ctx = ctx }
				c.m, c.err = bench.Run(c.name, c.mode, run)
			}
		}()
	}
	for _, c := range cells {
		next <- c
	}
	close(next)
	wg.Wait()
	for _, c := range cells {
		if c.err != nil {
			return sim, pt, fmt.Errorf("fig11 %s/%s: %w", c.name, c.mode, c.err)
		}
		sim.Cells[c.name][c.mode] = c.m
		pt.fig11Total += c.ctx.CPU.Stats.Cycles
		if c.mode == rt.HW {
			pt.polb[0] += c.ctx.MMU.POLB.Stats.Hits
			pt.polb[1] += c.ctx.MMU.POLB.Stats.Accesses()
			pt.valb[0] += c.ctx.MMU.VALB.Stats.Hits
			pt.valb[1] += c.ctx.MMU.VALB.Stats.Accesses()
		}
	}
	pt.fig11 = time.Since(start)

	corpusStart := time.Now()
	for _, mode := range rt.Modes {
		for i, prog := range progs {
			_, c, err := minc.Run(prog, mode)
			if err != nil {
				return sim, pt, fmt.Errorf("corpus program %d under %s: %w", i, mode, err)
			}
			sim.CorpusCycles[mode] += c.CPU.Stats.Cycles
			sim.CorpusInstrs[mode] += c.CPU.Stats.Instructions
		}
	}
	pt.corpus = time.Since(corpusStart)

	// What a caller of the library observes per call: the serving tier's
	// engine (RB index under the HW model) driven by the same stream, each
	// call timed on the host clock, callReps times over.
	wl := ycsb.Generate(cfg.Spec)
	for r := 0; r < callReps; r++ {
		c, err := rt.New(rt.Config{Mode: rt.HW})
		if err != nil {
			return sim, pt, err
		}
		st := kvstore.New(c, func(c *rt.Context) structures.Index { return structures.NewRB(c) })
		for _, kv := range wl.Load {
			st.Set(kv.Key, kv.Value)
		}
		lat := make([]int64, 0, len(wl.Ops))
		for _, op := range wl.Ops {
			t0 := time.Now()
			if op.Type == ycsb.Get {
				st.Get(op.Key)
			} else {
				st.Set(op.Key, op.Value)
			}
			lat = append(lat, time.Since(t0).Nanoseconds())
		}
		st.Close()
		pt.callLat = append(pt.callLat, sortedCopy(lat))
	}

	pt.total, pt.cpu = time.Since(start), cpuTime()-cpu0
	return sim, pt, nil
}

// overheads returns cycles(mode)/cycles(Volatile) per container.
func (s simCounts) overheads(mode rt.Mode) []float64 {
	var out []float64
	for _, name := range bench.Benchmarks {
		out = append(out, float64(s.Cells[name][mode].Cycles)/float64(s.Cells[name][rt.Volatile].Cycles))
	}
	return out
}

// checkEmbedded is the output check: the four models agree on every
// container's checksum, and every corpus program prints the same thing
// under every model.
func checkEmbedded(res *legResult, sim simCounts) {
	for _, name := range bench.Benchmarks {
		want := sim.Cells[name][rt.Volatile].Checksum
		for _, mode := range rt.Modes {
			res.Attempted++
			if got := sim.Cells[name][mode].Checksum; got != want {
				res.Failed++
				res.note("%s: %s checksum %#x, Volatile %#x", name, mode, got, want)
			}
		}
	}
	for _, p := range minc.Corpus() {
		res.Attempted++
		if _, err := minc.VerifyAllModes(p.Source); err != nil {
			res.Failed++
			res.note("corpus %s: %v", p.Name, err)
		}
	}
}

// embeddedRun is everything the passes of one leg produced.
type embeddedRun struct {
	cfg               bench.RunConfig
	ops               int // container operations per pass, all cells
	first             simCounts
	passes            []passTimes
	drift             float64 // largest relative corpus-cycle difference from pass 1
	setups, compileUS []float64
	sites, checked    int      // pointer sites of the corpus, and those that kept their check
	before, after     procSnap // around the measured passes
}

// over is the median over the passes of a per-pass figure.
func (r *embeddedRun) over(f func(passTimes) float64) float64 {
	xs := make([]float64, len(r.passes))
	for i, pt := range r.passes {
		xs[i] = f(pt)
	}
	return median(xs)
}

func runEmbedded(o runOpts) (*legResult, error) {
	r := &embeddedRun{cfg: embeddedConfig(o.quick, o.seed)}
	corpus := minc.Corpus()

	// Set-up is everything before the first simulated operation: drawing
	// the workload stream and compiling the corpus.
	var progs []*minc.Program
	for spent := time.Duration(0); o.setUpAgain(len(r.setups), spent); {
		t0 := time.Now()
		ycsb.Generate(r.cfg.Spec)
		compileStart := time.Now()
		progs, r.sites, r.checked = progs[:0], 0, 0
		for _, p := range corpus {
			prog, rep, err := minc.Compile(p.Source)
			if err != nil {
				return nil, fmt.Errorf("corpus %s: %w", p.Name, err)
			}
			progs = append(progs, prog)
			r.sites += rep.PtrSites
			r.checked += rep.Checked
		}
		r.compileUS = append(r.compileUS, float64(time.Since(compileStart).Microseconds())/float64(len(corpus)))
		r.setups = append(r.setups, time.Since(t0).Seconds())
		spent += time.Since(t0)
	}

	// A scaled-down pass first, so heap growth and lazy runtime set-up are
	// not charged to the first measured pass. (At smoke scale that is a
	// measured pass already.)
	passFloor := minPasses
	if o.quick {
		passFloor = 2
	} else if _, _, err := embeddedPass(embeddedConfig(true, o.seed), progs); err != nil {
		return nil, err
	}

	res := &legResult{}
	r.before = snapProc(nil)
	for start := time.Now(); len(r.passes) < passFloor || time.Since(start) < o.seconds; {
		sim, pt, err := embeddedPass(r.cfg, progs)
		if err != nil {
			return nil, err
		}
		if len(r.passes) == 0 {
			r.first = sim
		} else {
			res.Attempted++
			if !r.first.repeats(sim) {
				res.Failed++
				res.note("pass %d: simulated counts differ from pass 1", len(r.passes)+1)
			}
			for mode, c := range r.first.CorpusCycles {
				r.drift = math.Max(r.drift, math.Abs(float64(sim.CorpusCycles[mode])-float64(c))/float64(c))
			}
		}
		r.passes = append(r.passes, pt)
	}
	r.after = snapProc(nil)
	checkEmbedded(res, r.first)
	res.Correct = res.Failed == 0
	for _, name := range bench.Benchmarks {
		r.ops += cellOps(name, r.cfg) * len(rt.Modes)
	}
	res.Attempted += r.ops * len(r.passes)

	if !o.trace {
		ms := newMetricSet(endToEnd)
		if err := r.endToEnd(ms); err != nil {
			return nil, err
		}
		res.Metrics = ms.vals
		res.Slices = r.slices()
		return res, nil
	}
	ms := newMetricSet(perLayer)
	if err := r.layers(ms); err != nil {
		return nil, err
	}
	if err := isolatedLayers(ms, o); err != nil {
		return nil, err
	}
	res.Metrics = ms.vals
	return res, nil
}

// callPercentile is the median, over every repetition of the per-call
// latency loop, of the loop's p-th percentile in microseconds.
func (r *embeddedRun) callPercentile(p float64) (us float64, calls int, err error) {
	var ps []float64
	for _, pt := range r.passes {
		for _, lat := range pt.callLat {
			v, ok := percentile(lat, p)
			if !ok {
				return 0, 0, fmt.Errorf("embedded_paper: %d calls are too few to report p%g", len(lat), p)
			}
			ps = append(ps, float64(v)/1e3)
			calls += len(lat)
		}
	}
	return median(ps), calls, nil
}

func (r *embeddedRun) endToEnd(ms *metricSet) error {
	p50, calls, err := r.callPercentile(50)
	if err != nil {
		return err
	}
	ops := float64(r.ops)
	ms.setN("ops_per_s", r.over(func(pt passTimes) float64 { return ops / pt.total.Seconds() }), len(r.passes))
	ms.setN("p50_us", p50, calls)
	ms.setN("cpu_us_per_op", r.over(func(pt passTimes) float64 { return float64(pt.cpu.Microseconds()) / ops }), len(r.passes))
	var perOp []float64
	for _, name := range bench.Benchmarks {
		perOp = append(perOp, float64(r.first.Cells[name][rt.HW].Cycles)/float64(cellOps(name, r.cfg)))
	}
	ms.setN("sim_cycles_per_op", geomean(perOp), len(perOp))
	ms.setN("setup_s", median(r.setups), len(r.setups))
	return nil
}

// slices is what the end-to-end medians were taken over, pass by pass.
func (r *embeddedRun) slices() map[string][]float64 {
	out := map[string][]float64{"setup_s": r.setups}
	for _, pt := range r.passes {
		out["ops_per_s"] = append(out["ops_per_s"], float64(r.ops)/pt.total.Seconds())
		out["cpu_us_per_op"] = append(out["cpu_us_per_op"], float64(pt.cpu.Microseconds())/float64(r.ops))
		for _, lat := range pt.callLat {
			if v, ok := percentile(lat, 50); ok {
				out["p50_us"] = append(out["p50_us"], float64(v)/1e3)
			}
		}
	}
	return out
}

func (r *embeddedRun) layers(ms *metricSet) error {
	first, passes := r.first, r.passes
	p99, calls, err := r.callPercentile(99)
	if err != nil {
		return err
	}
	ms.setN("p99_us", p99, calls)
	ms.set("sim_overhead_hw", geomean(first.overheads(rt.HW)))
	ms.set("sim_overhead_sw", geomean(first.overheads(rt.SW)))
	ms.set("minc_sim_overhead_sw", float64(first.CorpusCycles[rt.SW])/float64(first.CorpusCycles[rt.Volatile]))
	maxErr := 0.0
	for name, row := range fig11Committed {
		for mode, want := range row {
			got := float64(first.Cells[name][mode].Cycles) / float64(first.Cells[name][rt.Volatile].Cycles)
			maxErr = math.Max(maxErr, math.Abs(got-want))
		}
	}
	ms.set("sim_fig11_max_abs_err", maxErr)

	// Model counters per container operation, summed over the six
	// containers, for the HW and SW models.
	sum := func(mode rt.Mode, f func(bench.Measurement) uint64) float64 {
		var n uint64
		for _, name := range bench.Benchmarks {
			n += f(first.Cells[name][mode])
		}
		return float64(n)
	}
	opsPerMode := float64(r.ops) / float64(len(rt.Modes))
	perOp := func(mode rt.Mode, f func(bench.Measurement) uint64) float64 { return sum(mode, f) / opsPerMode }
	checks := func(m bench.Measurement) uint64 { return m.Env.DynamicChecks }
	mispredicts := func(m bench.Measurement) uint64 { return m.Mispredicts }
	branches := func(m bench.Measurement) uint64 { return m.Branches }
	memAcc := func(m bench.Measurement) uint64 { return m.MemAccesses }
	ms.set("rt.storep_per_op.hw", perOp(rt.HW, func(m bench.Measurement) uint64 { return m.StorePOps }))
	ms.set("rt.ea_translations_per_op.hw", perOp(rt.HW, func(m bench.Measurement) uint64 { return m.EATranslations }))
	ms.set("core.dynamic_checks_per_op.hw", perOp(rt.HW, checks))
	ms.set("core.dynamic_checks_per_op.sw", perOp(rt.SW, checks))
	ms.set("rt.sw_check_branches_per_op.sw", perOp(rt.SW, func(m bench.Measurement) uint64 { return m.SWChecks }))
	ms.set("cpu.branch_mispredict_rate.hw", sum(rt.HW, mispredicts)/sum(rt.HW, branches))
	ms.set("cpu.branch_mispredict_rate.sw", sum(rt.SW, mispredicts)/sum(rt.SW, branches))
	ms.set("cpu.mem_accesses_per_op.hw", perOp(rt.HW, memAcc))
	ms.set("cpu.mem_accesses_per_op.sw", perOp(rt.SW, memAcc))
	pt0 := passes[0]
	ms.set("hw.polb_hit_rate.hw", float64(pt0.polb[0])/float64(pt0.polb[1]))
	ms.set("hw.valb_hit_rate.hw", float64(pt0.valb[0])/float64(pt0.valb[1]))
	ms.setN("cpu.host_ns_per_sim_cycle", r.over(func(pt passTimes) float64 {
		return float64(pt.fig11.Nanoseconds()) / float64(pt.fig11Total)
	}), len(passes))

	ms.set("minc.checked_site_frac", float64(r.checked)/float64(r.sites))
	ms.setN("minc.compile_us_per_program", median(r.compileUS), len(r.compileUS))
	var instrs uint64
	for _, mode := range rt.Modes {
		instrs += first.CorpusInstrs[mode]
		ms.set("minc.corpus_sim_cycles."+modeSuffix(mode), float64(first.CorpusCycles[mode]))
	}
	ms.setN("minc.corpus_sim_cycles_pass_drift", r.drift, len(passes))
	ms.setN("minc.interp_host_ns_per_sim_instr", r.over(func(pt passTimes) float64 {
		return float64(pt.corpus.Nanoseconds()) / float64(instrs)
	}), len(passes))

	measured := r.ops * len(passes)
	ms.setN("process.allocs_per_op", float64(r.after.mallocs-r.before.mallocs)/float64(measured), measured)
	ms.set("process.gc_pause_ms_per_s", float64(r.after.pauseNS-r.before.pauseNS)/1e6/r.after.at.Sub(r.before.at).Seconds())
	ms.set("process.peak_heap_mb", float64(r.after.heapSys)/(1<<20))
	// trace.overhead_frac stays 0: this workload has no tracing switch —
	// its counters are always on — so the traced leg costs what the
	// untraced one does.
	return nil
}
