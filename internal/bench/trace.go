// The trace experiment gates the request-tracing plane's two promises: it
// tells the truth, and it is effectively free when off.
//
// Truth: against a live primary/replica pair, every explicitly traced
// request's reply echoes its trace ID (batch sub-replies included), the
// primary's request-path spans of a traced op form an ordered,
// non-overlapping chain that fits inside the end-to-end latency the client
// measured around it, every stage of the vocabulary shows up somewhere
// across the client, primary, and replica recorders, and the slow-op log
// fires. Killing the primary mid-run must
// make the promoted replica's flight recorder freeze and dump a JSONL
// snapshot that contains the promotion trigger plus the spans in flight.
//
// Cost: with the tracing plane attached but no request sampled, a
// closed-loop PUT/GET workload may regress by less than
// TraceOverheadThresholdPct against a server with no plane at all.
// Repetitions interleave both sides so machine drift cancels, and the min
// is taken per side (the floor is the true cost; the rest is noise).
package bench

import (
	"fmt"
	"io"
	"os"
	"sort"
	"time"

	"nvref/internal/obs"
	"nvref/internal/rt"
	"nvref/internal/server"
)

// TraceOverheadThresholdPct is the acceptance bound on the disabled-path
// cost of the tracing plane.
const TraceOverheadThresholdPct = 2.0

// TraceStages is the full stage vocabulary the experiment requires
// coverage of, across the client, primary, and replica recorders.
var TraceStages = []string{
	server.StageClientSend,
	server.StageDecode,
	server.StageQueueWait,
	server.StageExecute,
	server.StageOplogAppend,
	server.StageOplogFlush,
	server.StageReplShip,
	server.StageReplApply,
	server.StageAckHold,
	server.StageReplyEncode,
}

// TraceSpec parameterizes the trace experiment. Operations counts the
// traced operations driven against the primary; the traced stream and the
// overhead loop are single-client.
type TraceSpec struct {
	LoadSpec
	Batches   int // traced batches (each BatchSize sub-ops)
	BatchSize int
	// SlowOp is the primary's slow-op threshold; the default (1ns) makes
	// every operation a wide event so the slow-op path is exercised
	// deterministically.
	SlowOp time.Duration
	// PromoteAfter is the replica's silence budget before self-promotion.
	PromoteAfter time.Duration
	// OverheadOps and OverheadReps size the disabled-path timing phase;
	// OverheadReps < 1 skips it (race-enabled CI runs, where timing gates
	// only measure the race detector).
	OverheadOps  int
	OverheadReps int
}

// TraceSpecFor returns the standard experiment sizes.
func TraceSpecFor(quick bool) TraceSpec {
	s := TraceSpec{
		LoadSpec: LoadSpec{
			Records:    800,
			Operations: 600,
			Clients:    1,
			Shards:     2,
			Mode:       rt.HW,
			PoolSize:   4 << 20,
			Seed:       23,
		},
		Batches:      40,
		BatchSize:    8,
		SlowOp:       time.Nanosecond,
		PromoteAfter: 150 * time.Millisecond,
		OverheadOps:  6000,
		OverheadReps: 5,
	}
	if quick {
		s.Records, s.Operations, s.Batches = 300, 250, 16
		s.OverheadOps, s.OverheadReps = 2500, 3
	}
	return s
}

// TraceResult is the experiment document.
type TraceResult struct {
	Operations int    `json:"operations"`
	Batches    int    `json:"batches"`
	Shards     int    `json:"shards"`
	Mode       string `json:"mode"`

	// Echo and stage-sum checks over the explicitly traced stream.
	TracedOps           int `json:"traced_ops"`
	EchoMissing         int `json:"echo_missing"`
	BatchSubReplies     int `json:"batch_sub_replies"`
	BatchSubEchoMissing int `json:"batch_sub_echo_missing"`
	SumChecked          int `json:"sum_checked"`
	SumViolations       int `json:"sum_violations"`

	// Span production and the slow-op log.
	PrimarySpans uint64 `json:"primary_spans"`
	ReplicaSpans uint64 `json:"replica_spans"`
	ClientSpans  uint64 `json:"client_spans"`
	SlowOps      uint64 `json:"slow_ops"`

	// Stage coverage across all three recorders.
	StagesSeen    []string `json:"stages_seen"`
	MissingStages []string `json:"missing_stages"`

	// Incident leg: the killed-primary flight dump on the promoted replica.
	Promotions       uint64 `json:"promotions"`
	DumpPath         string `json:"dump_path"`
	DumpWideEvents   int    `json:"dump_wide_events"`
	DumpSpans        int    `json:"dump_spans"`
	DumpHasPromotion bool   `json:"dump_has_promotion"`

	// Disabled-path overhead.
	OverheadReps    int   `json:"overhead_reps"`
	BaselineNS      int64 `json:"baseline_ns"`
	InstrumentedNS  int64 `json:"instrumented_ns"`
	OverheadSkipped bool  `json:"overhead_skipped"`
}

// OverheadPct is the relative disabled-path cost; at or below zero the
// difference drowned in noise.
func (r *TraceResult) OverheadPct() float64 {
	if r.BaselineNS == 0 {
		return 0
	}
	return 100 * float64(r.InstrumentedNS-r.BaselineNS) / float64(r.BaselineNS)
}

// Pass applies the acceptance gates.
func (r *TraceResult) Pass() bool {
	return r.TracedOps > 0 &&
		r.EchoMissing == 0 &&
		r.BatchSubReplies > 0 && r.BatchSubEchoMissing == 0 &&
		r.SumChecked > 0 && r.SumViolations == 0 &&
		r.SlowOps > 0 &&
		len(r.MissingStages) == 0 &&
		r.Promotions == 1 &&
		r.DumpHasPromotion && r.DumpSpans > 0 &&
		(r.OverheadSkipped || r.OverheadPct() < TraceOverheadThresholdPct)
}

// traceID derives a deterministic nonzero trace ID for op i.
func traceID(seed int64, i int) uint64 {
	z := uint64(seed)*0x9e3779b97f4a7c15 + uint64(i+1)*0xbf58476d1ce4e5b9
	if z == 0 {
		z = 1
	}
	return z
}

// RunTrace executes the experiment against an in-process primary/replica
// pair on loopback listeners.
func RunTrace(spec TraceSpec) (*TraceResult, error) {
	res := &TraceResult{
		Operations: spec.Operations,
		Batches:    spec.Batches,
		Shards:     spec.Shards,
		Mode:       spec.Mode.String(),
	}

	flightDir, err := os.MkdirTemp("", "nvbench-flight-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(flightDir)

	// Both sides get explicit recorders so the experiment can read the
	// spans back; the replica's flight recorder dumps to disk.
	pspans := obs.NewSpanRecorder(16384, nil)
	pcfg := spec.config()
	pcfg.SlowOp = spec.SlowOp
	pcfg.Spans = pspans
	pcfg.Flight = obs.NewFlightRecorder(0, "", pspans)
	rspans := obs.NewSpanRecorder(16384, nil)
	rflight := obs.NewFlightRecorder(0, flightDir, rspans)
	rcfg := spec.config()
	rcfg.PromoteAfter = spec.PromoteAfter
	rcfg.Spans = rspans
	rcfg.Flight = rflight
	p, err := startPair(pcfg, rcfg)
	if err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	defer p.close()
	primary, replica := p.primary, p.replica

	cspans := obs.NewSpanRecorder(16384, nil)
	cl, err := server.Dial(p.paddr)
	if err != nil {
		return nil, err
	}
	defer cl.Close()
	cl.SetSpanRecorder(cspans)

	// Seed phase, untraced.
	for i := 0; i < spec.Records; i++ {
		if err := cl.Put(uint64(i)*2654435761, uint64(i)); err != nil {
			return nil, fmt.Errorf("trace: seed put: %w", err)
		}
	}

	// Traced stream: every op carries an explicit sampled trace envelope,
	// timed end to end around the round trip.
	type tracedOp struct {
		id  uint64
		e2e time.Duration
	}
	traced := make([]tracedOp, 0, spec.Operations)
	for i := 0; i < spec.Operations; i++ {
		id := traceID(spec.Seed, i)
		key := uint64(i%spec.Records) * 2654435761
		req := &server.Request{Op: server.OpPut, Key: key, Value: uint64(i), Trace: id, Sampled: true}
		if i%3 == 2 {
			req = &server.Request{Op: server.OpGet, Key: key, Trace: id, Sampled: true}
		}
		t0 := time.Now()
		rep, err := cl.Do(req)
		e2e := time.Since(t0)
		if err != nil {
			return nil, fmt.Errorf("trace: traced op %d: %w", i, err)
		}
		res.TracedOps++
		if rep.Trace != id {
			res.EchoMissing++
			continue
		}
		traced = append(traced, tracedOp{id: id, e2e: e2e})
	}

	// Traced batches: every sub-reply must echo the batch's trace ID.
	for b := 0; b < spec.Batches; b++ {
		id := traceID(spec.Seed, spec.Operations+b)
		sub := make([]server.Request, 0, spec.BatchSize)
		for j := 0; j < spec.BatchSize; j++ {
			key := uint64((b*spec.BatchSize+j)%spec.Records) * 2654435761
			if j%2 == 0 {
				sub = append(sub, server.Request{Op: server.OpPut, Key: key, Value: uint64(j)})
			} else {
				sub = append(sub, server.Request{Op: server.OpGet, Key: key})
			}
		}
		rep, err := cl.Do(&server.Request{Op: server.OpBatch, Sub: sub, Trace: id, Sampled: true})
		if err != nil {
			return nil, fmt.Errorf("trace: traced batch %d: %w", b, err)
		}
		if rep.Trace != id {
			res.EchoMissing++
		}
		for i := range rep.Sub {
			res.BatchSubReplies++
			if rep.Sub[i].Trace != id {
				res.BatchSubEchoMissing++
			}
		}
	}

	// A few traced reads against the replica, so its recorder holds
	// request-path spans alongside the background apply/flush ones.
	rcl, err := server.Dial(p.raddr)
	if err != nil {
		return nil, err
	}
	for i := 0; i < 32; i++ {
		id := traceID(spec.Seed, spec.Operations+spec.Batches+i)
		key := uint64(i%spec.Records) * 2654435761
		if _, err := rcl.Do(&server.Request{Op: server.OpGet, Key: key, Trace: id, Sampled: true}); err != nil {
			rcl.Close()
			return nil, fmt.Errorf("trace: replica get: %w", err)
		}
	}
	rcl.Close()

	// Let the replica drain so apply-side spans exist before the kill.
	if err := waitUntil(5*time.Second, func() bool {
		return primary.CollectStats().ReplLagRecords == 0
	}); err != nil {
		return nil, fmt.Errorf("trace: replication lag never drained: %w", err)
	}

	// Stage-chain soundness, per traced op, over the primary's spans.
	chains := make(map[uint64]map[string]obs.Span)
	for _, sp := range pspans.Spans() {
		if sp.Trace == 0 {
			continue
		}
		if chains[sp.Trace] == nil {
			chains[sp.Trace] = make(map[string]obs.Span)
		}
		chains[sp.Trace][sp.Stage] = sp
	}
	for _, op := range traced {
		// server_decode is a trace's first recorded span: if the ring
		// still holds it, it holds the rest of the chain too.
		if _, ok := chains[op.id][server.StageDecode]; !ok {
			continue // ring wrapped past this op's spans
		}
		res.SumChecked++
		if !chainSound(chains[op.id], op.e2e) {
			res.SumViolations++
		}
	}

	// Stage coverage across all three recorders.
	seen := make(map[string]bool)
	for _, s := range cspans.Spans() {
		seen[s.Stage] = true
	}
	for _, s := range pspans.Spans() {
		seen[s.Stage] = true
	}
	for _, s := range rspans.Spans() {
		seen[s.Stage] = true
	}
	for stage := range seen {
		res.StagesSeen = append(res.StagesSeen, stage)
	}
	sort.Strings(res.StagesSeen)
	for _, stage := range TraceStages {
		if !seen[stage] {
			res.MissingStages = append(res.MissingStages, stage)
		}
	}
	res.PrimarySpans = pspans.Emitted()
	res.ReplicaSpans = rspans.Emitted()
	res.ClientSpans = cspans.Emitted()
	for _, sh := range primary.CollectStats().PerShard {
		res.SlowOps += sh.SlowOps
	}

	// Incident leg: kill the primary without ceremony; the replica must
	// promote itself and its flight recorder must freeze and dump.
	p.kill()
	if err := p.awaitPromotion(); err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	res.Promotions = replica.CollectStats().Promotions
	if err := waitUntil(5*time.Second, func() bool {
		return rflight.LastDump() != ""
	}); err != nil {
		return nil, fmt.Errorf("trace: promotion never produced a flight dump: %w", err)
	}
	res.DumpPath = rflight.LastDump()
	df, err := os.Open(res.DumpPath)
	if err != nil {
		return nil, fmt.Errorf("trace: open flight dump: %w", err)
	}
	lines, err := obs.ReadFlightDump(df)
	df.Close()
	if err != nil {
		return nil, fmt.Errorf("trace: parse flight dump: %w", err)
	}
	for _, ln := range lines {
		switch ln.Type {
		case "wide":
			res.DumpWideEvents++
			if ln.Event.Kind == server.TriggerPromotion {
				res.DumpHasPromotion = true
			}
		case "span":
			res.DumpSpans++
		}
	}

	// Disabled-path overhead: a plane-attached-but-unsampled server
	// against one with no plane, interleaved, min per side.
	if spec.OverheadReps < 1 {
		res.OverheadSkipped = true
		return res, nil
	}
	res.OverheadReps = spec.OverheadReps
	base, inst, err := traceOverhead(spec)
	if err != nil {
		return nil, err
	}
	res.BaselineNS = minNS(base)
	res.InstrumentedNS = minNS(inst)
	return res, nil
}

// chainSound checks one traced op's request-path spans on the primary
// structurally, using their recorded start and duration (all on the
// recorder's one monotonic clock): server_decode -> queue_wait ->
// oplog_append/execute -> replack_hold -> reply_encode must be ordered and
// pairwise non-overlapping — each stage is closed before the request is
// handed to the next — so their sum fits the server-side wall (decode
// start to reply_encode end), which in turn fits the e2e latency the
// client measured around the round trip: the server starts decoding after
// the client sent, and closes reply_encode before it flushes the reply.
// client_send is deliberately left out: it closes after the client's
// flush, by which time the server may already be decoding.
func chainSound(st map[string]obs.Span, e2e time.Duration) bool {
	for _, stage := range []string{server.StageQueueWait, server.StageExecute, server.StageReplyEncode} {
		if _, ok := st[stage]; !ok {
			return false
		}
	}
	// The shard worker stamps oplog_append and execute with one start and
	// disjoint durations: together they are the worker's segment, and the
	// append must lie inside it.
	work := st[server.StageExecute]
	if app, ok := st[server.StageOplogAppend]; ok {
		work.DurNS += app.DurNS
		if app.StartNS < work.StartNS || app.StartNS+app.DurNS > work.StartNS+work.DurNS {
			return false
		}
	}
	chain := []obs.Span{st[server.StageDecode], st[server.StageQueueWait], work}
	if hold, ok := st[server.StageAckHold]; ok {
		chain = append(chain, hold)
	}
	chain = append(chain, st[server.StageReplyEncode])

	var sum int64
	end := chain[0].StartNS
	for _, sp := range chain {
		if sp.DurNS < 0 || sp.StartNS < end {
			return false
		}
		end = sp.StartNS + sp.DurNS
		sum += sp.DurNS
	}
	wall := end - chain[0].StartNS
	return sum <= wall && wall <= e2e.Nanoseconds()
}

// traceOverhead times the harness's closed loop against a bare standalone
// server and one with the tracing plane attached but sampling disabled,
// interleaving repetitions.
func traceOverhead(spec TraceSpec) (base, inst []int64, err error) {
	bcfg, icfg := spec.config(), spec.config()
	icfg.Spans = obs.NewSpanRecorder(0, nil)
	bsrv, baddr, err := startServer(bcfg)
	if err != nil {
		return nil, nil, err
	}
	defer bsrv.Abort()
	isrv, iaddr, err := startServer(icfg)
	if err != nil {
		return nil, nil, err
	}
	defer isrv.Abort()

	load := spec.LoadSpec
	load.Operations = spec.OverheadOps
	h := newAcceptance(load)
	timed := func(addr string) (int64, error) {
		err := h.drive(func(int) (kv, error) { return server.Dial(addr) })
		if err == nil && h.res.OpsFailed > 0 {
			err = fmt.Errorf("trace: overhead loop: %d ops failed", h.res.OpsFailed)
		}
		return h.wall.Nanoseconds(), err
	}
	// Repetition -1 is an untimed pair, so allocator and code warm-up lands
	// on neither timed side.
	for rep := -1; rep < spec.OverheadReps; rep++ {
		b, err := timed(baddr)
		if err != nil {
			return nil, nil, err
		}
		i, err := timed(iaddr)
		if err != nil {
			return nil, nil, err
		}
		if rep >= 0 {
			base, inst = append(base, b), append(inst, i)
		}
	}
	return base, inst, nil
}

// WriteText renders the experiment as text.
func (r *TraceResult) WriteText(w io.Writer) {
	fmt.Fprintf(w, "trace: %d traced ops + %d batches, %d shards, %s mode\n",
		r.TracedOps, r.Batches, r.Shards, r.Mode)
	fmt.Fprintf(w, "echo: %d/%d op replies carried the trace; %d/%d batch sub-replies\n",
		r.TracedOps-r.EchoMissing, r.TracedOps, r.BatchSubReplies-r.BatchSubEchoMissing, r.BatchSubReplies)
	fmt.Fprintf(w, "stage sums: %d ops checked, %d out of order or over their end-to-end latency (must be 0)\n",
		r.SumChecked, r.SumViolations)
	fmt.Fprintf(w, "spans: client %d, primary %d, replica %d; slow ops %d\n",
		r.ClientSpans, r.PrimarySpans, r.ReplicaSpans, r.SlowOps)
	if len(r.MissingStages) == 0 {
		fmt.Fprintf(w, "stage coverage: all %d stages observed\n", len(TraceStages))
	} else {
		fmt.Fprintf(w, "stage coverage: MISSING %v\n", r.MissingStages)
	}
	fmt.Fprintf(w, "incident: %d promotion(s); dump %s: %d wide events (promotion trigger %v), %d spans\n",
		r.Promotions, r.DumpPath, r.DumpWideEvents, r.DumpHasPromotion, r.DumpSpans)
	if r.OverheadSkipped {
		fmt.Fprintln(w, "overhead: skipped (reps < 1)")
	} else {
		fmt.Fprintf(w, "overhead: baseline %d ns, plane attached %d ns -> %+.2f%% (threshold %.0f%%, min of %d)\n",
			r.BaselineNS, r.InstrumentedNS, r.OverheadPct(), TraceOverheadThresholdPct, r.OverheadReps)
	}
	fmt.Fprintln(w, verdict(r.Pass()))
}
