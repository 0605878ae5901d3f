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
// Cost: "free when off" is asserted by counting, not by racing a clock.
// With the plane attached and no request sampled, the same PUT/GET stream
// must cost exactly the allocations per round trip it costs a server with
// no plane at all, put exactly the same bytes on the wire in both
// directions (no trace envelope, no echo), and reach the span recorder
// zero times. What the unsampled branch costs in time is reported, ungated,
// as trace.overhead_frac by the pinned benchmark's traced leg.
package bench

import (
	"fmt"
	"io"
	"net"
	"os"
	"sort"
	"sync/atomic"
	"testing"
	"time"

	"nvref/internal/obs"
	"nvref/internal/rt"
	"nvref/internal/server"
)

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

// TraceSpec parameterizes the trace experiment. Records keys are seeded
// before the traced stream; Operations counts the traced operations driven
// against the primary. The traced stream and the disabled-path loop are
// single-client.
type TraceSpec struct {
	Records    int
	Operations int
	// Shards, Mode and PoolSize configure every server of the experiment.
	Shards   int
	Mode     rt.Mode
	PoolSize uint64
	Seed     int64

	Batches   int // traced batches (each BatchSize sub-ops)
	BatchSize int
	// SlowOp is the primary's slow-op threshold; the default (1ns) makes
	// every operation a wide event so the slow-op path is exercised
	// deterministically.
	SlowOp time.Duration
	// PromoteAfter is the replica's silence budget before self-promotion.
	PromoteAfter time.Duration
	// DisabledOps is how many PUT+GET round-trip pairs the disabled-path
	// leg counts allocations, wire bytes and recorder calls over.
	DisabledOps int
}

// TraceSpecFor returns the standard experiment sizes.
func TraceSpecFor(quick bool) TraceSpec {
	s := TraceSpec{
		Records:      800,
		Operations:   600,
		Shards:       2,
		Mode:         rt.HW,
		PoolSize:     4 << 20,
		Seed:         23,
		Batches:      40,
		BatchSize:    8,
		SlowOp:       time.Nanosecond,
		PromoteAfter: 150 * time.Millisecond,
		DisabledOps:  2000,
	}
	if quick {
		s.Records, s.Operations, s.Batches = 300, 250, 16
		s.DisabledOps = 500
	}
	return s
}

// config returns the server.Config fields every server of the experiment
// shares; each leg adds what is its own.
func (s TraceSpec) config() server.Config {
	return server.Config{Shards: s.Shards, Mode: s.Mode, PoolSize: s.PoolSize}
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

	// Disabled path, counted: the same stream against a server with no
	// plane (Bare) and one with the plane attached and sampling off
	// (Disabled).
	Bare     DisabledPathCount `json:"bare"`
	Disabled DisabledPathCount `json:"disabled"`
}

// DisabledPathCount is what one server's share of the disabled-path leg
// counted.
type DisabledPathCount struct {
	AllocsPerPair float64 `json:"allocs_per_pair"` // process-wide mallocs per PUT+GET round-trip pair
	WireBytes     int64   `json:"wire_bytes"`      // bytes the client wrote plus bytes it read
	RecorderCalls uint64  `json:"recorder_calls"`  // spans the server's recorder was handed
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
		r.Bare.WireBytes > 0 && r.Disabled.WireBytes == r.Bare.WireBytes &&
		r.Disabled.AllocsPerPair == r.Bare.AllocsPerPair &&
		r.Disabled.RecorderCalls == 0
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

	// Disabled path: a server with no plane, then one with the plane
	// attached and nothing sampled, under the same stream.
	if res.Bare, err = countDisabledPath(spec, nil); err != nil {
		return nil, err
	}
	if res.Disabled, err = countDisabledPath(spec, obs.NewSpanRecorder(0, nil)); err != nil {
		return nil, err
	}
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
// client_send is left out: the client records it on its own recorder.
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

// countingConn counts the bytes a client writes to and reads from its
// connection.
type countingConn struct {
	net.Conn
	bytes atomic.Int64
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.bytes.Add(int64(n))
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.bytes.Add(int64(n))
	return n, err
}

// countDisabledPath drives spec.DisabledOps untraced PUT+GET pairs at a
// standalone server — with the tracing plane attached when spans is
// non-nil, and no sampling either way — and counts what they cost. One
// untimed pass over the same keys comes first, so index growth and buffer
// warm-up land outside the count.
func countDisabledPath(spec TraceSpec, spans *obs.SpanRecorder) (DisabledPathCount, error) {
	var out DisabledPathCount
	cfg := spec.config()
	cfg.Spans = spans
	srv, addr, err := startServer(cfg)
	if err != nil {
		return out, err
	}
	defer srv.Abort()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return out, err
	}
	cc := &countingConn{Conn: conn}
	cl := server.NewClient(cc)
	defer cl.Close()

	i := 0
	var opErr error
	pair := func() {
		key := uint64(i%spec.Records) * 2654435761
		i++
		if err := cl.Put(key, uint64(i)); err != nil && opErr == nil {
			opErr = err
		}
		if _, _, err := cl.Get(key); err != nil && opErr == nil {
			opErr = err
		}
	}
	for n := 0; n < spec.Records; n++ {
		pair()
	}
	before := cc.bytes.Load()
	// AllocsPerRun calls pair once more than it counts, as its own warm-up.
	out.AllocsPerPair = testing.AllocsPerRun(spec.DisabledOps, pair)
	out.WireBytes = cc.bytes.Load() - before
	if spans != nil {
		out.RecorderCalls = spans.Emitted()
	}
	if opErr != nil {
		return out, fmt.Errorf("trace: disabled-path loop: %w", opErr)
	}
	return out, nil
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
	fmt.Fprintf(w, "disabled path: %.0f allocs per PUT+GET pair with the plane attached, %.0f without; %d wire bytes vs %d; %d recorder calls (must be equal, equal, 0)\n",
		r.Disabled.AllocsPerPair, r.Bare.AllocsPerPair, r.Disabled.WireBytes, r.Bare.WireBytes, r.Disabled.RecorderCalls)
	fmt.Fprintln(w, verdict(r.Pass()))
}
