package server

import (
	"encoding/binary"
	"errors"
	"net"
	"os"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"nvref/internal/obs"
	"nvref/internal/rt"
)

// ---- Envelope encoding and decoding --------------------------------------

func TestTraceEnvelopeRoundTrip(t *testing.T) {
	cases := []Request{
		{Op: OpGet, Key: 8, Trace: 0xDEADBEEF, Sampled: true},
		{Op: OpPut, Key: 1, Value: 2, Trace: 5},
		{Op: OpDelete, Key: 3, Trace: 1 << 63, Sampled: true},
		// All three envelopes at once, in canonical order.
		{Op: OpGet, Key: 8, TTLms: 20, Trace: 9, Sampled: true, Gate: 4},
		// A traced batch: the envelope rides the outer request only.
		{Op: OpBatch, Trace: 11, Sampled: true, Sub: []Request{
			{Op: OpPut, Key: 1, Value: 2},
			{Op: OpGet, Key: 1},
		}},
	}
	for _, req := range cases {
		body, err := AppendRequest(nil, &req)
		if err != nil {
			t.Fatalf("%+v: encode: %v", req, err)
		}
		got, err := DecodeRequest(body)
		if err != nil {
			t.Fatalf("%+v: decode: %v", req, err)
		}
		if got.Trace != req.Trace || got.Sampled != req.Sampled {
			t.Errorf("%+v: trace round trip -> id=%d sampled=%v", req, got.Trace, got.Sampled)
		}
		if got.TTLms != req.TTLms || got.Gate != req.Gate {
			t.Errorf("%+v: sibling envelopes mangled: ttl=%d gate=%d", req, got.TTLms, got.Gate)
		}
		if len(got.Sub) != len(req.Sub) {
			t.Errorf("%+v: batch shape lost: %d subs", req, len(got.Sub))
		}
	}
}

func TestTraceEnvelopeEncodeRejections(t *testing.T) {
	// The sampled flag is meaningless without a trace ID.
	if _, err := AppendRequest(nil, &Request{Op: OpGet, Key: 1, Sampled: true}); !errors.Is(err, ErrProto) {
		t.Errorf("sampled-without-trace encoded: %v", err)
	}
	// Sub-requests inherit the batch's trace; their own envelope is illegal.
	_, err := AppendRequest(nil, &Request{Op: OpBatch, Sub: []Request{
		{Op: OpGet, Key: 1, Trace: 7},
	}})
	if !errors.Is(err, ErrProto) {
		t.Errorf("trace envelope inside a batch encoded: %v", err)
	}
}

func TestTraceEnvelopeDecodeRejections(t *testing.T) {
	le64 := func(v uint64) []byte {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		return b[:]
	}
	get8 := append([]byte{OpGet}, le64(8)...)
	cases := map[string][]byte{
		"zero trace id": append(append(append([]byte{OpTrace}, le64(0)...), 0), get8...),
		"unknown flags": append(append(append([]byte{OpTrace}, le64(1)...), 0xFF), get8...),
		"truncated":     {OpTrace, 1, 0, 0},
		"double trace envelope": append(append(append([]byte{OpTrace}, le64(1)...), 0),
			append(append([]byte{OpTrace}, le64(2)...), 0)...),
		"trace inside batch sub": append([]byte{OpBatch, 1, 0, 0, 0},
			append(append(append([]byte{OpTrace}, le64(1)...), 0), get8...)...),
	}
	for name, body := range cases {
		if _, err := DecodeRequest(body); !errors.Is(err, ErrProto) {
			t.Errorf("%s: accepted (err=%v)", name, err)
		}
	}
}

func TestTraceReplyEchoContract(t *testing.T) {
	traced := &Request{Op: OpGet, Key: 8, Trace: 7, Sampled: true}

	// A traced request's reply opens with the echo and round-trips it.
	body := AppendReply(nil, OpGet, &Reply{Trace: 7, Status: StatusOK, Found: true, Value: 42})
	rep, err := DecodeReply(traced, body)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Trace != 7 || !rep.Found || rep.Value != 42 {
		t.Errorf("echoed reply = %+v", rep)
	}

	// Error replies carry the echo too, so failures stay attributable.
	body = AppendReply(nil, OpGet, &Reply{Trace: 7, Status: StatusShed})
	if rep, err = DecodeReply(traced, body); err != nil {
		t.Fatal(err)
	}
	if rep.Trace != 7 || rep.Status != StatusShed {
		t.Errorf("error reply lost its echo: %+v", rep)
	}

	// A reply without the echo is a protocol error for a traced request...
	bare := AppendReply(nil, OpGet, &Reply{Status: StatusOK, Found: true, Value: 42})
	if _, err := DecodeReply(traced, bare); !errors.Is(err, ErrProto) {
		t.Errorf("missing echo accepted: %v", err)
	}
	// ...but exactly right for an untraced one.
	if _, err := DecodeReply(&Request{Op: OpGet, Key: 8}, bare); err != nil {
		t.Errorf("untraced decode: %v", err)
	}

	// Batch: the outer reply and every sub-reply carry their own echo.
	breq := &Request{Op: OpBatch, Trace: 9, Sub: []Request{
		{Op: OpPut, Key: 1, Value: 2},
		{Op: OpGet, Key: 1},
	}}
	brep := &Reply{Trace: 9, Status: StatusOK, Sub: []Reply{
		{Trace: 9, Status: StatusOK, Shard: 0, Seq: 1},
		{Trace: 9, Status: StatusOK, Found: true, Value: 2},
	}}
	body = AppendBatchReply(nil, breq, brep)
	rep, err = DecodeReply(breq, body)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Trace != 9 || len(rep.Sub) != 2 {
		t.Fatalf("batch reply = %+v", rep)
	}
	for i, sub := range rep.Sub {
		if sub.Trace != 9 {
			t.Errorf("sub-reply %d lost its echo: %+v", i, sub)
		}
	}
}

// ---- Live propagation ----------------------------------------------------

// stagesFor collects the stage set a recorder holds for one trace ID.
func stagesFor(r *obs.SpanRecorder, trace uint64) map[string]bool {
	m := make(map[string]bool)
	for _, s := range r.Spans() {
		if s.Trace == trace {
			m[s.Stage] = true
		}
	}
	return m
}

func TestExplicitTraceEndToEnd(t *testing.T) {
	spans := obs.NewSpanRecorder(1024, nil)
	ts := startServer(t, Config{Shards: 2, Spans: spans})
	cl := dial(t, ts)

	rep, err := cl.Do(&Request{Op: OpPut, Key: 1, Value: keyVal(1), Trace: 0xABCD, Sampled: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Err(); err != nil {
		t.Fatal(err)
	}
	if rep.Trace != 0xABCD {
		t.Fatalf("trace echo = %#x, want 0xabcd", rep.Trace)
	}

	// The server-side stages land in the recorder; reply_encode is stamped
	// after the reply is flushed, so poll briefly.
	want := []string{StageDecode, StageQueueWait, StageExecute, StageReplyEncode}
	waitFor(t, "server stages", 2*time.Second, func() bool {
		got := stagesFor(spans, 0xABCD)
		for _, st := range want {
			if !got[st] {
				return false
			}
		}
		return true
	})

	// Traced but unsampled: the echo still comes back, no spans are cut.
	rep, err = cl.Do(&Request{Op: OpGet, Key: 1, Trace: 0x99})
	if err != nil || rep.Err() != nil {
		t.Fatalf("unsampled traced get: %v / %v", err, rep.Err())
	}
	if rep.Trace != 0x99 {
		t.Fatalf("unsampled trace echo = %#x", rep.Trace)
	}
	if got := stagesFor(spans, 0x99); len(got) != 0 {
		t.Errorf("unsampled request cut spans: %v", got)
	}
}

func TestBatchTracePropagation(t *testing.T) {
	spans := obs.NewSpanRecorder(1024, nil)
	ts := startServer(t, Config{Shards: 2, Spans: spans})
	cl := dial(t, ts)

	const id = 0xBA7C4
	rep, err := cl.Do(&Request{Op: OpBatch, Trace: id, Sampled: true, Sub: []Request{
		{Op: OpPut, Key: 1, Value: keyVal(1)},
		{Op: OpPut, Key: 2, Value: keyVal(2)},
		{Op: OpGet, Key: 1},
		{Op: OpDelete, Key: 2},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Err(); err != nil {
		t.Fatal(err)
	}
	if rep.Trace != id {
		t.Fatalf("batch trace echo = %#x, want %#x", rep.Trace, id)
	}
	if len(rep.Sub) != 4 {
		t.Fatalf("%d sub-replies", len(rep.Sub))
	}
	for i, sub := range rep.Sub {
		if sub.Trace != id {
			t.Errorf("sub-reply %d echo = %#x, want the batch trace", i, sub.Trace)
		}
		if err := sub.Err(); err != nil {
			t.Errorf("sub-reply %d: %v", i, err)
		}
	}
	// Sub-operations execute under the batch's trace on their shards.
	waitFor(t, "batch execute spans", 2*time.Second, func() bool {
		return stagesFor(spans, id)[StageExecute]
	})
}

// traceStages is the whole stage vocabulary, in hop order.
var traceStages = []string{
	StageClientSend, StageDecode, StageQueueWait, StageExecute, StageOplogAppend,
	StageOplogFlush, StageReplShip, StageReplApply, StageAckHold, StageReplyEncode,
}

// TestTraceChainSound drives traced PUTs and GETs through a primary with a
// live replica, each timed end to end around Do. Every reply must echo its
// trace; every op's request-path spans on the primary must form a sound
// chain inside the latency the client measured (chainSound, with the
// op-log append and the held REPLACK in it for a PUT); and the client,
// primary and replica recorders together must hold every stage of the
// vocabulary.
func TestTraceChainSound(t *testing.T) {
	const ops, keys = 200, 50
	pspans := obs.NewSpanRecorder(16384, nil)
	rspans := obs.NewSpanRecorder(16384, nil)
	p, r, paddr, _ := startPair(t, 2,
		func(c *Config) { c.Spans = pspans },
		func(c *Config) { c.Spans = rspans })
	defer r.Abort()
	defer p.Abort()
	// Acks are held for the replica only once it has made contact.
	waitFor(t, "follower contact", 5*time.Second, func() bool {
		return r.CollectStats().Follower.Pulls > 0
	})
	cl, err := Dial(paddr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	cspans := obs.NewSpanRecorder(16384, nil)
	cl.SetSpanRecorder(cspans)

	e2e := make(map[uint64]time.Duration, ops)
	for i := 0; i < ops; i++ {
		id := uint64(i + 1)
		req := &Request{Op: OpPut, Key: uint64(i % keys), Value: uint64(i), Trace: id, Sampled: true}
		if i%3 == 2 {
			req = &Request{Op: OpGet, Key: uint64(i % keys), Trace: id, Sampled: true}
		}
		t0 := time.Now()
		rep, err := cl.Do(req)
		e2e[id] = time.Since(t0)
		if err != nil {
			t.Fatalf("traced op %d: %v", i, err)
		}
		if err := rep.Err(); err != nil {
			t.Fatalf("traced op %d: %v", i, err)
		}
		if rep.Trace != id {
			t.Fatalf("traced op %d: echo %#x, want %#x", i, rep.Trace, id)
		}
	}
	// Apply-side spans are cut before the REPLACK that released the acks;
	// the drain only makes the replica's recorder final.
	waitFor(t, "replication drain", 5*time.Second, func() bool {
		return r.replLagRecords() == 0
	})

	// Every span a traced op cut is recorded before its reply is flushed,
	// and the ring holds them all, so each op's chain is complete.
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
	for id, d := range e2e {
		if _, ok := chains[id][StageDecode]; !ok {
			t.Fatalf("trace %d: no %s span", id, StageDecode)
		}
		if !chainSound(chains[id], d) {
			t.Fatalf("trace %d: stage chain out of order or over its %v end-to-end latency: %+v", id, d, chains[id])
		}
	}

	seen := make(map[string]bool)
	for _, rec := range []*obs.SpanRecorder{cspans, pspans, rspans} {
		for _, sp := range rec.Spans() {
			seen[sp.Stage] = true
		}
	}
	for _, stage := range traceStages {
		if !seen[stage] {
			t.Errorf("stage %s never observed on the client, primary or replica", stage)
		}
	}
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
	for _, stage := range []string{StageQueueWait, StageExecute, StageReplyEncode} {
		if _, ok := st[stage]; !ok {
			return false
		}
	}
	// The shard worker stamps oplog_append and execute with one start and
	// disjoint durations: together they are the worker's segment, and the
	// append must lie inside it.
	work := st[StageExecute]
	if app, ok := st[StageOplogAppend]; ok {
		work.DurNS += app.DurNS
		if app.StartNS < work.StartNS || app.StartNS+app.DurNS > work.StartNS+work.DurNS {
			return false
		}
	}
	chain := []obs.Span{st[StageDecode], st[StageQueueWait], work}
	if hold, ok := st[StageAckHold]; ok {
		chain = append(chain, hold)
	}
	chain = append(chain, st[StageReplyEncode])

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

// TestTraceFreeWhenOff: the tracing plane attached with nothing sampled
// costs what no plane costs, by count, with no clock read. The same
// untraced PUT+GET stream against a plane-less server and against one with
// a span recorder attached must allocate the same per round-trip pair and
// put the same bytes on the wire, and the recorder must never be called.
func TestTraceFreeWhenOff(t *testing.T) {
	bareAllocs, bareBytes := countDisabledPath(t, nil)
	spans := obs.NewSpanRecorder(0, nil)
	offAllocs, offBytes := countDisabledPath(t, spans)
	if bareBytes == 0 || offBytes != bareBytes {
		t.Errorf("wire bytes: %d with the plane attached, %d without", offBytes, bareBytes)
	}
	if bareAllocs == 0 || offAllocs != bareAllocs {
		t.Errorf("allocs per PUT+GET pair: %v with the plane attached, %v without", offAllocs, bareAllocs)
	}
	if n := spans.Emitted(); n != 0 {
		t.Errorf("unsampled requests reached the span recorder %d times", n)
	}
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

// countDisabledPath drives untraced PUT+GET pairs at a standalone server —
// with the tracing plane attached when spans is non-nil, and no sampling
// either way — and returns the process-wide mallocs per pair and the bytes
// the counted pairs put on the wire. One uncounted pass over the same keys
// comes first, so index growth and buffer warm-up land outside the count.
func countDisabledPath(t *testing.T, spans *obs.SpanRecorder) (allocsPerPair float64, wireBytes int64) {
	t.Helper()
	const keys, pairs = 300, 500
	ts := startServer(t, Config{Shards: 2, Mode: rt.HW, Spans: spans})
	defer ts.abort()
	conn, err := net.Dial("tcp", ts.addr)
	if err != nil {
		t.Fatal(err)
	}
	cc := &countingConn{Conn: conn}
	cl := NewClient(cc)
	defer cl.Close()

	i := 0
	pair := func() {
		key := uint64(i%keys) * 2654435761
		i++
		if err := cl.Put(key, uint64(i)); err != nil {
			t.Fatal(err)
		}
		if _, _, err := cl.Get(key); err != nil {
			t.Fatal(err)
		}
	}
	for n := 0; n < keys; n++ {
		pair()
	}
	before := cc.bytes.Load()
	// AllocsPerRun calls pair once more than it counts, as its own warm-up.
	allocsPerPair = testing.AllocsPerRun(pairs, pair)
	return allocsPerPair, cc.bytes.Load() - before
}

func TestPipelineTracePropagation(t *testing.T) {
	ts := startServer(t, Config{Shards: 2, Spans: obs.NewSpanRecorder(1024, nil)})
	cl := dial(t, ts)
	cspans := obs.NewSpanRecorder(256, nil)
	cl.SetTraceSample(1, 42)
	cl.SetSpanRecorder(cspans)

	p := cl.Pipeline()
	for k := uint64(1); k <= 4; k++ {
		p.Put(k, keyVal(k))
	}
	for k := uint64(1); k <= 4; k++ {
		p.Get(k)
	}
	reps, err := p.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(reps) != 8 {
		t.Fatalf("%d replies", len(reps))
	}
	seen := make(map[uint64]bool)
	for i, rep := range reps {
		if err := rep.Err(); err != nil {
			t.Fatalf("pipelined reply %d: %v", i, err)
		}
		if rep.Trace == 0 {
			t.Fatalf("pipelined reply %d lost its trace echo", i)
		}
		if seen[rep.Trace] {
			t.Errorf("trace id %#x reused across pipelined requests", rep.Trace)
		}
		seen[rep.Trace] = true
	}
	// Every sampled send stamped a client_send span under its own trace.
	var sends int
	for _, s := range cspans.Spans() {
		if s.Stage == StageClientSend && seen[s.Trace] {
			sends++
		}
	}
	if sends != 8 {
		t.Errorf("client_send spans = %d, want 8", sends)
	}
}

func TestServerSampledTraceStaysOffWire(t *testing.T) {
	spans := obs.NewSpanRecorder(256, nil)
	ts := startServer(t, Config{Shards: 1, TraceSample: 1, Spans: spans})
	cl := dial(t, ts)

	rep, err := cl.Do(&Request{Op: OpPut, Key: 1, Value: keyVal(1)})
	if err != nil || rep.Err() != nil {
		t.Fatalf("put: %v / %v", err, rep.Err())
	}
	// Server-chosen trace IDs never appear on the wire: the client did not
	// ask, so the reply carries no echo...
	if rep.Trace != 0 {
		t.Fatalf("server-sampled trace leaked onto the wire: %#x", rep.Trace)
	}
	// ...but the server still cut spans for the request under a fresh ID.
	waitFor(t, "server-sampled spans", 2*time.Second, func() bool {
		for _, s := range spans.Spans() {
			if s.Trace != 0 && s.Stage == StageExecute {
				return true
			}
		}
		return false
	})
}

func TestSlowOpNotedToFlightRecorder(t *testing.T) {
	flight := obs.NewFlightRecorder(64, "", nil)
	spans := obs.NewSpanRecorder(256, nil)
	ts := startServer(t, Config{Shards: 1, SlowOp: time.Nanosecond, Spans: spans, Flight: flight})
	cl := dial(t, ts)
	for k := uint64(1); k <= 8; k++ {
		if err := cl.Put(k, keyVal(k)); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "slow-op wide events", 2*time.Second, func() bool { return flight.Len() > 0 })
	var slow *obs.WideEvent
	for _, ev := range flight.Events() {
		if ev.Kind == "slow_op" {
			e := ev
			slow = &e
			break
		}
	}
	if slow == nil {
		t.Fatal("no slow_op wide event recorded")
	}
	if slow.Op != "put" || slow.TotalUS < 0 {
		t.Errorf("slow_op shape: %+v", slow)
	}
	if _, ok := slow.StagesUS[StageExecute]; !ok {
		t.Errorf("slow_op lost its stage breakdown: %v", slow.StagesUS)
	}
	if got := ts.CollectStats().PerShard[0].SlowOps; got == 0 {
		t.Error("shard slow-op counter did not move")
	}
}

// ---- Health probes and /statusz ------------------------------------------

func TestReadinessContract(t *testing.T) {
	// A healthy standalone server is live and ready.
	ts := startServer(t, Config{Shards: 1})
	if !ts.Live() {
		t.Error("standalone server not live")
	}
	if ready, reason := ts.Ready(); !ready {
		t.Errorf("standalone server not ready: %s", reason)
	}

	// A replica is live but never ready for client traffic.
	p, r, _, _ := startPair(t, 1, nil, nil)
	defer p.Abort()
	defer r.Abort()
	if !r.Live() {
		t.Error("replica not live")
	}
	if ready, reason := r.Ready(); ready || !strings.Contains(reason, "read-only replica") {
		t.Errorf("replica readiness = %v %q", ready, reason)
	}
	if ready, reason := p.Ready(); !ready {
		t.Errorf("paired primary not ready: %s", reason)
	}

	// A closed server fails both probes.
	solo, err := New(Config{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	solo.Close()
	if solo.Live() {
		t.Error("closed server still live")
	}
	if ready, reason := solo.Ready(); ready || reason != "shutting down" {
		t.Errorf("closed readiness = %v %q", ready, reason)
	}
}

func TestFencedPrimaryNotReady(t *testing.T) {
	solo, err := New(Config{Shards: 1, Role: RolePrimary, FenceAfter: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer solo.Abort()
	if ready, _ := solo.Ready(); !ready {
		t.Fatal("primary that never saw a replica should be ready")
	}
	solo.markReplContact()                             // a replica appears...
	waitFor(t, "fencing", 2*time.Second, func() bool { // ...then goes silent
		ready, _ := solo.Ready()
		return !ready
	})
	if _, reason := solo.Ready(); !strings.Contains(reason, "write-fenced") {
		t.Errorf("fenced readiness reason = %q", reason)
	}
	doc := solo.CollectStatusz()
	if !doc.Live || doc.Ready || !doc.Fenced {
		t.Errorf("statusz of a fenced primary: live=%v ready=%v fenced=%v", doc.Live, doc.Ready, doc.Fenced)
	}
}

func TestStatuszTraceBlock(t *testing.T) {
	// No tracing plane: the block stays disabled.
	plain := startServer(t, Config{Shards: 1})
	if doc := plain.CollectStatusz(); doc.Trace.Enabled {
		t.Error("trace block enabled without a tracing plane")
	}

	spans := obs.NewSpanRecorder(256, nil)
	flight := obs.NewFlightRecorder(16, "", spans)
	ts := startServer(t, Config{Shards: 1, Spans: spans, Flight: flight, SlowOp: time.Millisecond})
	cl := dial(t, ts)
	rep, err := cl.Do(&Request{Op: OpPut, Key: 1, Value: 2, Trace: 3, Sampled: true})
	if err != nil || rep.Err() != nil {
		t.Fatalf("traced put: %v / %v", err, rep.Err())
	}
	waitFor(t, "spans emitted", 2*time.Second, func() bool { return spans.Emitted() > 0 })
	doc := ts.CollectStatusz()
	if !doc.Trace.Enabled || doc.Trace.SpansEmitted == 0 {
		t.Errorf("trace block = %+v", doc.Trace)
	}
	if doc.Trace.SlowOpUS != 1000 {
		t.Errorf("SlowOpUS = %d, want 1000", doc.Trace.SlowOpUS)
	}
}

func TestPromotionDumpsFlightRecorder(t *testing.T) {
	dir := t.TempDir()
	rspans := obs.NewSpanRecorder(1024, nil)
	p, r, paddr, raddr := startPair(t, 1, nil, func(c *Config) {
		c.FlightDir = dir
		c.Spans = rspans
	})
	defer r.Abort()
	waitFor(t, "follower contact", 5*time.Second, func() bool {
		return r.CollectStats().Follower.Pulls > 0
	})
	c, err := Dial(paddr.String())
	if err != nil {
		t.Fatal(err)
	}
	for k := uint64(1); k <= 8; k++ {
		if err := c.Put(k, keyVal(k)); err != nil {
			t.Fatal(err)
		}
	}
	c.Close()
	waitFor(t, "replication drain", 5*time.Second, func() bool {
		return r.replLagRecords() == 0
	})
	// A traced read on the replica, so the dump has a request's spans in
	// flight beside the apply-side ones.
	rc, err := Dial(raddr.String())
	if err != nil {
		t.Fatal(err)
	}
	const id = 0xF11647
	rep, err := rc.Do(&Request{Op: OpGet, Key: 1, Trace: id, Sampled: true})
	rc.Close()
	if err != nil || rep.Err() != nil || rep.Trace != id {
		t.Fatalf("traced replica get: %v / %v, echo %#x", err, rep.Err(), rep.Trace)
	}

	p.Abort() // the primary dies; the operator promotes the replica
	if err := r.Promote(); err != nil {
		t.Fatal(err)
	}
	doc := r.CollectStatusz()
	if doc.Trace.LastDump == "" || doc.Trace.FlightDumps == 0 {
		t.Fatalf("promotion did not dump the flight recorder: %+v", doc.Trace)
	}
	f, err := os.Open(doc.Trace.LastDump)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	lines, err := obs.ReadFlightDump(f)
	if err != nil {
		t.Fatal(err)
	}
	var sawPromotion, sawTraced bool
	var spanLines int
	for _, ln := range lines {
		switch {
		case ln.Type == "wide" && ln.Event.Kind == TriggerPromotion:
			sawPromotion = true
			if ln.Event.Detail == "" {
				t.Error("promotion event lost its detail")
			}
		case ln.Type == "span":
			spanLines++
			sawTraced = sawTraced || ln.Span.Trace == id
		}
	}
	if !sawPromotion {
		t.Fatalf("dump %s has no promotion trigger", doc.Trace.LastDump)
	}
	if spanLines == 0 || !sawTraced {
		t.Fatalf("dump %s: %d span lines, traced read's spans present %v", doc.Trace.LastDump, spanLines, sawTraced)
	}
}

// ---- Sampler and labels --------------------------------------------------

func TestTraceSampler(t *testing.T) {
	if newTraceSampler(0, 1) != nil {
		t.Error("rate 0 should disable the sampler")
	}
	var off *traceSampler
	if id, ok := off.next(); ok || id != 0 {
		t.Error("nil sampler sampled")
	}

	all := newTraceSampler(1, 7)
	ids := make(map[uint64]bool)
	for i := 0; i < 10; i++ {
		id, ok := all.next()
		if !ok || id == 0 {
			t.Fatalf("call %d: rate-1 sampler skipped (id=%d ok=%v)", i, id, ok)
		}
		if ids[id] {
			t.Fatalf("trace id %#x repeated", id)
		}
		ids[id] = true
	}

	// The counter makes fractional rates exact, not probabilistic.
	for _, tc := range []struct {
		rate float64
		want int
	}{{0.5, 50}, {0.25, 25}, {0.1, 10}} {
		s := newTraceSampler(tc.rate, 7)
		var hits int
		for i := 0; i < 100; i++ {
			if _, ok := s.next(); ok {
				hits++
			}
		}
		if hits != tc.want {
			t.Errorf("rate %v: %d/100 sampled, want %d", tc.rate, hits, tc.want)
		}
	}
}

func TestOpNames(t *testing.T) {
	for op, want := range map[byte]string{
		OpGet: "get", OpPut: "put", OpDelete: "delete", OpScan: "scan",
		OpBatch: "batch", OpStats: "stats", OpCheckpoint: "checkpoint",
		OpReplicate: "replicate", OpReplAck: "replack", 200: "op200",
	} {
		if got := opName(op); got != want {
			t.Errorf("opName(%d) = %q, want %q", op, got, want)
		}
	}
}
