package obs

// Request-scoped span tracing: the serving tier stamps every hop of a
// sampled request (decode, queue wait, execute, op-log append, replication
// ship, ack hold, reply encode) as a Span, recorded into a SpanRecorder —
// the request-plane sibling of the reference-operation Tracer. Both are
// built on the same ring (ring.go): a mutex-guarded fixed-capacity buffer,
// an optional sink called under the lock, and one JSONL codec. The
// recorder also feeds a per-stage latency histogram into a Registry, so
// the aggregate view (where does time go, across all requests) costs
// nothing beyond the per-span ring write.

import (
	"io"
	"time"
)

// Span is one timed stage of a request. Offsets are monotonic nanoseconds
// from the recorder's epoch (captured at construction), so spans from one
// recorder order and align with each other even across goroutines; Trace
// groups the stages of one request (zero marks a background stage sample
// that only feeds the histograms, e.g. a replication ship).
type Span struct {
	Trace   uint64 `json:"trace"`
	Seq     uint64 `json:"seq"`
	Stage   string `json:"stage"`
	Shard   int    `json:"shard"` // -1 when the stage is not shard-scoped
	Op      string `json:"op,omitempty"`
	Key     uint64 `json:"key,omitempty"`
	StartNS int64  `json:"start_ns"`
	DurNS   int64  `json:"dur_ns"`
}

// spanStageBounds are the microsecond buckets of the per-stage latency
// histograms (finer at the low end than the shard latency buckets: single
// stages are often sub-microsecond).
var spanStageBounds = []uint64{1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000, 5000, 10000, 50000}

// SpanRecorder collects spans in a fixed-capacity ring buffer. All methods
// are safe for concurrent use and nil-safe, so instrumented code needs no
// guards. When constructed over a Registry, every recorded span also
// observes a per-stage histogram trace_stage_<stage>_us.
type SpanRecorder struct {
	epoch time.Time
	reg   *Registry
	r     ring[Span]
	hists map[string]*Histogram // under r.mu
}

// NewSpanRecorder returns a recorder retaining the last capacity spans
// (DefaultTraceCapacity when capacity <= 0). reg may be nil to skip the
// per-stage histograms.
func NewSpanRecorder(capacity int, reg *Registry) *SpanRecorder {
	if capacity <= 0 {
		capacity = DefaultTraceCapacity
	}
	return &SpanRecorder{
		epoch: time.Now(),
		reg:   reg,
		r:     ring[Span]{buf: make([]Span, capacity), stamp: func(s *Span, seq uint64) { s.Seq = seq }},
		hists: make(map[string]*Histogram),
	}
}

// Epoch returns the instant StartNS offsets are relative to.
func (r *SpanRecorder) Epoch() time.Time {
	if r == nil {
		return time.Time{}
	}
	return r.epoch
}

// SetSink forwards every subsequent span to fn (nil detaches). The sink is
// called with the lock held: keep it fast. A sink that panics is detached
// and counted (SinkPanics) — tracing must never take the traced server down.
func (r *SpanRecorder) SetSink(fn func(Span)) {
	if r != nil {
		r.r.setSink(fn)
	}
}

// SinkPanics returns how many sinks were detached after panicking.
func (r *SpanRecorder) SinkPanics() uint64 {
	if r == nil {
		return 0
	}
	return r.r.panics()
}

// Record stores one span, assigning its sequence number and observing the
// stage histogram.
func (r *SpanRecorder) Record(s Span) {
	if r == nil {
		return
	}
	r.r.mu.Lock()
	if r.reg != nil {
		h, ok := r.hists[s.Stage]
		if !ok {
			h = r.reg.Histogram("trace_stage_"+s.Stage+"_us",
				"duration of the "+s.Stage+" request stage, microseconds", spanStageBounds)
			r.hists[s.Stage] = h
		}
		h.Observe(uint64(s.DurNS / 1000))
	}
	r.r.put(s)
	r.r.mu.Unlock()
}

// RecordTimed is Record over a wall measurement: the span starts at start
// (converted to an epoch offset) and lasted dur.
func (r *SpanRecorder) RecordTimed(trace uint64, stage string, shard int, op string, key uint64, start time.Time, dur time.Duration) {
	if r == nil {
		return
	}
	r.Record(Span{
		Trace:   trace,
		Stage:   stage,
		Shard:   shard,
		Op:      op,
		Key:     key,
		StartNS: start.Sub(r.epoch).Nanoseconds(),
		DurNS:   dur.Nanoseconds(),
	})
}

// Spans returns the retained spans in recording order.
func (r *SpanRecorder) Spans() []Span {
	if r == nil {
		return nil
	}
	return r.r.values()
}

// Len returns how many spans are retained.
func (r *SpanRecorder) Len() int {
	if r == nil {
		return 0
	}
	return r.r.len()
}

// Emitted returns the total number of spans ever recorded (>= Len when the
// ring has wrapped).
func (r *SpanRecorder) Emitted() uint64 {
	if r == nil {
		return 0
	}
	return r.r.emitted()
}

// Reset drops all retained spans and restarts sequence numbering.
func (r *SpanRecorder) Reset() {
	if r != nil {
		r.r.reset()
	}
}

// WriteSpanJSONL writes spans one JSON document per line.
func WriteSpanJSONL(w io.Writer, spans []Span) error { return writeJSONL(w, spans) }

// ReadSpanJSONL parses a JSONL span stream, skipping blank lines.
func ReadSpanJSONL(r io.Reader) ([]Span, error) { return readJSONL[Span](r, "span jsonl", nil) }
