package main

// One leg of one workload: set-up, warm-up, the measured window, the output
// check, and the metrics. End-to-end numbers come from the untraced leg; a
// separate traced leg on a fresh topology produces the per-layer numbers.

import (
	"fmt"
	"os"
	"sync"
	"time"

	"nvref/internal/obs"
	"nvref/internal/server"
)

// runOpts is everything a leg is told.
type runOpts struct {
	p         pinned
	quick     bool
	seed      int64
	seconds   time.Duration
	warmup    time.Duration
	setupReps int
	trace     bool
	tmpRoot   string
	spansOut  string
}

// legResult is what a leg reports.
type legResult struct {
	Correct   bool
	Attempted int
	Failed    int
	Metrics   map[string]metric
	// Slices holds the per-slice values a leg's medians were taken over, by
	// metric name, for the -out record.
	Slices map[string][]float64
	// Notes explain a failed check (first error seen, void conditions).
	Notes []string
}

func (r *legResult) note(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

func runLeg(w workload, o runOpts) (*legResult, error) {
	switch {
	case w.Embedded:
		return runEmbedded(o)
	case o.trace:
		return runServeTraced(w, o)
	default:
		return runServe(w, o)
	}
}

// Set-up is repeated so that its median can be reported: at least twice,
// then until setupBudget has been spent on it or maxSetups have been made.
// The durable topology's 5.5 s load runs twice. The replicated pair's runs
// six times: its first set-up in a process takes 2.2 s and its later ones
// 1.4 s, and only a median that lands among the later ones is steady.
const (
	setupBudget = 9 * time.Second
	maxSetups   = 9
)

// setUpAgain reports whether another set-up repetition is due after done of
// them took spent in all.
func (o runOpts) setUpAgain(done int, spent time.Duration) bool {
	return done < o.setupReps && (done < 2 || spent < setupBudget)
}

const (
	// sliceLen is how long the slices of a timed untraced window are.
	sliceLen = 2 * time.Second
	// minCountedSlices is the fewest slices a counted window is cut into,
	// so that a median over them can drop a stalled one.
	minCountedSlices = 3
)

// windowPhases lays a leg's window out: an unrecorded warm-up, then n
// recorded phases of equal length (n <= 0: as many slices as the window
// holds). A timed window splits o.seconds; a counted one turns seconds into
// operations at the workload's CountedRate and measures whole checkpoint
// periods, one per slice.
func windowPhases(w workload, o runOpts, n int) []phase {
	if w.CountedRate == 0 {
		if n <= 0 {
			n = 1 // at smoke scale: a slice can be shorter than one checkpoint stall
			if !o.quick {
				n = max(int(o.seconds/sliceLen), 1)
			}
		}
		phases := []phase{{dur: o.warmup}}
		for i := 0; i < n; i++ {
			phases = append(phases, phase{dur: o.seconds / time.Duration(n), record: true})
		}
		return phases
	}
	ops := func(d time.Duration) int { return max(int(d.Seconds()*float64(w.CountedRate)), 1) }
	total := ops(o.seconds)
	if !o.quick {
		period := w.periodOps(o.p)
		total = period * max((total+period/2)/period, minCountedSlices)
		if n <= 0 {
			n = total / period
		}
	} else if n <= 0 {
		n = 1
	}
	phases := []phase{{ops: ops(o.warmup)}}
	for i := 0; i < n; i++ {
		phases = append(phases, phase{ops: total / n, record: true})
	}
	return phases
}

// window is the merged view of one recorded phase across clients.
type window struct {
	dur   time.Duration
	ops   int
	puts  int
	lat   []int64 // ascending, ns
	sumNS int64
}

func mergeWindow(clients []*loadClient, idx int, dur time.Duration) window {
	win := window{dur: dur}
	for _, c := range clients {
		ps := c.phases[idx]
		win.lat = append(win.lat, ps.lat...)
		win.puts += ps.puts
	}
	win.ops = len(win.lat)
	win.lat = sortedCopy(win.lat)
	for _, x := range win.lat {
		win.sumNS += x
	}
	return win
}

func (win window) opsPerSec() float64 { return float64(win.ops) / win.dur.Seconds() }

// shardSum adds one per-shard counter over a STATS document.
func shardSum(st server.Stats, f func(server.ShardStats) uint64) uint64 {
	var n uint64
	for _, sh := range st.PerShard {
		n += f(sh)
	}
	return n
}

func degradedAcks(sh server.ShardStats) uint64 {
	if sh.Repl == nil {
		return 0
	}
	return sh.Repl.DegradedAcks
}

func timeoutAcks(sh server.ShardStats) uint64 {
	if sh.Repl == nil {
		return 0
	}
	return sh.Repl.TimeoutAcks
}

// finishServe runs the output check and folds client failures into the
// result. A replicated run is void unless no ack was degraded or timed out
// since the topology came up (load included).
func finishServe(res *legResult, topo *topology, clients []*loadClient, ops int) (reopen time.Duration) {
	final := topo.primary.CollectStats() // before the check reopens a durable primary
	res.Attempted = ops
	for _, c := range clients {
		res.Failed += c.failed
		if c.err != nil {
			res.note("client %d: %v", c.id, c.err)
		}
	}
	checked, bad, reopen, err := verifyServe(topo, clients)
	res.Attempted += checked
	res.Failed += bad
	if err != nil {
		res.Failed++
		res.note("%v", err)
	}
	if bad > 0 {
		res.note("%d of %d read-backs did not return the last acknowledged value", bad, checked)
	}
	res.Correct = res.Failed == 0
	if topo.w.Replica {
		if d, t := shardSum(final, degradedAcks), shardSum(final, timeoutAcks); d != 0 || t != 0 {
			res.Correct = false
			res.note("run void: degraded_acks=%d timeout_acks=%d on a replicated topology", d, t)
		}
	}
	return reopen
}

// runServe is the untraced leg of a serve_* workload: no tracing plane is
// attached anywhere, and set-up is repeated so its median is reported.
func runServe(w workload, o runOpts) (*legResult, error) {
	var (
		topo    *topology
		clients []*loadClient
		setups  []float64
	)
	for spent := time.Duration(0); o.setUpAgain(len(setups), spent); {
		if topo != nil {
			closeClients(clients)
			topo.close()
		}
		var d time.Duration
		var err error
		topo, clients, d, err = setUp(o.p, w, o.tmpRoot, o.seed, nil, false)
		if err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", w.Name, err)
		}
		setups = append(setups, d.Seconds())
		spent += d
	}
	defer topo.close()
	defer closeClients(clients)

	// The window is cut into equal slices and every figure is the median
	// over the slices: a burst from a noisy neighbour lands in one or two
	// of them and leaves the median alone.
	phases := windowPhases(w, o, 0)
	snaps, err := drive(topo, clients, phases, 0, nil)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.Name, err)
	}

	res := &legResult{}
	ms := newMetricSet(endToEnd)
	var rate, p50s, cpu, cycles []float64
	ops := 0
	for i := 1; i < len(phases); i++ {
		win := mergeWindow(clients, i, snaps[i+1].at.Sub(snaps[i].at))
		ops += win.ops
		rate = append(rate, win.opsPerSec())
		// A slice a stalled disk left nearly empty still counts as a slow
		// slice of throughput, but has no percentile to offer.
		p50, ok := percentile(win.lat, 50)
		if !ok {
			continue
		}
		a, b := snaps[i], snaps[i+1]
		p50s = append(p50s, float64(p50)/1e3)
		cpu = append(cpu, float64((b.cpu-a.cpu).Microseconds())/float64(win.ops))
		cycles = append(cycles, float64(b.cycles-a.cycles)/float64(win.ops))
	}
	if len(p50s) == 0 {
		return nil, fmt.Errorf("%s: no slice of the window holds enough operations to report a median (%d in all, need %d samples beyond it)",
			w.Name, ops, minBeyond)
	}
	ms.setN("ops_per_s", median(rate), ops)
	ms.setN("p50_us", median(p50s), ops)
	ms.setN("cpu_us_per_op", median(cpu), ops)
	ms.setN("sim_cycles_per_op", median(cycles), ops)
	ms.setN("setup_s", median(setups), len(setups))
	res.Metrics = ms.vals
	res.Slices = map[string][]float64{"ops_per_s": rate, "p50_us": p50s,
		"cpu_us_per_op": cpu, "sim_cycles_per_op": cycles, "setup_s": setups}
	finishServe(res, topo, clients, ops)
	return res, nil
}

// runServeTraced is the traced leg: the tracing plane is attached from the
// start, an unsampled reference phase runs first, then a phase with every
// request sampled; the ratio of their throughputs is the tracing overhead.
// The isolated layer timings ride along so one traced run reports every
// per-layer metric.
func runServeTraced(w workload, o runOpts) (*legResult, error) {
	rec := obs.NewSpanRecorder(1024, nil)
	agg := newStageAgg(o.spansOut != "")
	rec.SetSink(agg.sink)

	topo, clients, _, err := setUp(o.p, w, o.tmpRoot, o.seed, rec, w.Durable)
	if err != nil {
		return nil, fmt.Errorf("%s: set-up: %w", w.Name, err)
	}
	defer topo.close()
	defer closeClients(clients)
	for _, c := range clients {
		c.cl.SetSpanRecorder(rec)
	}

	phases := windowPhases(w, o, 2)
	const refIdx, tracedIdx = 1, 2
	phases[tracedIdx].traced = true

	// At the traced phase's boundaries: gate the span aggregate and the
	// page differ, read the stores' byte counters, and run the lag sampler,
	// which reads the primary's replication lag every 2 ms in between.
	var (
		lagMax     uint64
		lagStop    = make(chan struct{})
		lagWG      sync.WaitGroup
		meterBytes [2]uint64 // at the start and end of the traced phase
	)
	sampleLag := func() {
		defer lagWG.Done()
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-lagStop:
				return
			case <-tick.C:
				if l := topo.primary.CollectStats().ReplLagRecords; l > lagMax {
					lagMax = l
				}
			}
		}
	}
	snaps, err := drive(topo, clients, phases, uint64(o.seed), func(next int) {
		if next < tracedIdx {
			return
		}
		on := next == tracedIdx
		agg.on.Store(on)
		for _, m := range topo.meters {
			m.diffing.Store(on)
			meterBytes[next-tracedIdx] += m.saved.Load()
		}
		switch {
		case !on:
			close(lagStop)
			lagWG.Wait()
		case topo.replica != nil:
			lagWG.Add(1)
			go sampleLag()
		}
	})
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.Name, err)
	}
	rec.SetSink(nil)
	ref := mergeWindow(clients, refIdx, snaps[refIdx+1].at.Sub(snaps[refIdx].at))
	tr := mergeWindow(clients, tracedIdx, snaps[tracedIdx+1].at.Sub(snaps[tracedIdx].at))
	if ref.ops == 0 || tr.ops == 0 {
		return nil, fmt.Errorf("%s: a traced-leg phase completed no operation", w.Name)
	}

	res := &legResult{}
	ms := newMetricSet(perLayer)
	agg.stageTable(ms, tr.sumNS)

	a, b := snaps[tracedIdx], snaps[tracedIdx+1]
	delta := func(f func(server.ShardStats) uint64) float64 {
		return float64(shardSum(b.stats, f) - shardSum(a.stats, f))
	}
	var high uint64
	for _, sh := range b.stats.PerShard {
		if sh.QueueHigh > high {
			high = sh.QueueHigh
		}
	}
	ms.set("server.queue.high_water", float64(high))
	ms.set("server.sheds", delta(func(s server.ShardStats) uint64 { return s.Sheds }))
	ms.set("server.unavailable", delta(func(s server.ShardStats) uint64 { return s.Unavailable }))
	ms.set("server.deadline_drops", delta(func(s server.ShardStats) uint64 { return s.DeadlineDrops }))
	checkpoints := delta(func(s server.ShardStats) uint64 { return s.Checkpoints })
	ms.set("server.checkpoints", checkpoints)
	ms.set("server.degraded_acks", delta(degradedAcks))
	ms.set("server.timeout_acks", delta(timeoutAcks))

	if w.Durable {
		ms.set("pmem.checkpoints", checkpoints)
		if tr.puts > 0 {
			ms.setN("pmem.bytes_saved_per_put", float64(meterBytes[1]-meterBytes[0])/float64(tr.puts), tr.puts)
		}
		var saves, dirty uint64
		for _, m := range topo.meters {
			s, d := m.counts()
			saves, dirty = saves+s, dirty+d
		}
		if saves > 0 {
			ms.setN("parity.dirty_pages_per_checkpoint", float64(dirty)/float64(saves), int(saves))
		}
	}
	if topo.replica != nil && a.fstats != nil && b.fstats != nil {
		pulls := float64(b.fstats.Pulls - a.fstats.Pulls)
		applies := float64(len(agg.dur[server.StageReplApply]))
		ms.set("repl.lag_records_max", float64(lagMax))
		ms.set("repl.pulls_per_s", pulls/tr.dur.Seconds())
		if applies > 0 {
			ms.setN("repl.records_per_pull", float64(b.fstats.Applied-a.fstats.Applied)/applies, int(applies))
		}
		if pulls > 0 {
			ms.setN("repl.empty_pull_frac", 1-applies/pulls, int(pulls))
		}
		if v, ok := percentile(sortedCopy(agg.dur[server.StageReplApply]), 50); ok {
			ms.setN("repl.apply_p50_us", float64(v)/1e3, int(applies))
		}
	}

	// The tail and the process metrics describe the program without
	// sampling, so they come from the reference phase.
	if v, ok := percentile(ref.lat, 99); ok {
		ms.setN("p99_us", float64(v)/1e3, ref.ops)
	}
	ra, rb := snaps[refIdx], snaps[refIdx+1]
	ms.setN("process.allocs_per_op", float64(rb.mallocs-ra.mallocs)/float64(ref.ops), ref.ops)
	ms.set("process.gc_pause_ms_per_s", float64(rb.pauseNS-ra.pauseNS)/1e6/ref.dur.Seconds())
	ms.set("process.peak_heap_mb", float64(b.heapSys)/(1<<20))
	ms.setN("trace.overhead_frac", 1-tr.opsPerSec()/ref.opsPerSec(), tr.ops)

	reopen := finishServe(res, topo, clients, ref.ops+tr.ops)
	if w.Durable {
		ms.set("pmem.reopen_ms", float64(reopen.Microseconds())/1e3)
	}
	// The isolated timings want the box to themselves: no follower polling
	// in the background.
	closeClients(clients)
	topo.close()
	if err := isolatedLayers(ms, o); err != nil {
		return nil, err
	}
	res.Metrics = ms.vals

	if o.spansOut != "" {
		if err := writeSpans(o.spansOut, agg.kept); err != nil {
			return nil, err
		}
	}
	return res, nil
}

func writeSpans(path string, spans []obs.Span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := obs.WriteSpanJSONL(f, spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
