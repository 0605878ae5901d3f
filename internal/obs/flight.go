package obs

// Incident flight recorder: a ring of structured "wide events" (one record
// per interesting occurrence, carrying its whole context — the canonical
// observability-2.0 shape) that buffers continuously and freezes into a
// JSONL dump when a trigger fires. The serving tier notes slow ops and
// control-plane transitions here; when something goes wrong (promotion,
// fencing, breaker open, supervisor restart, divergence) the recorder
// writes everything it held — the wide events plus the spans in flight —
// so the minutes before an incident are preserved without anyone having
// had tracing "turned up" in advance.

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"
)

// DefaultFlightCapacity is the wide-event ring size when unspecified.
const DefaultFlightCapacity = 1024

// WideEvent is one structured record in the flight ring: a slow op with its
// stage breakdown, or a control-plane trigger.
type WideEvent struct {
	TimeUnixNS int64            `json:"time_unix_ns"`
	Seq        uint64           `json:"seq"`
	Kind       string           `json:"kind"`
	Trace      uint64           `json:"trace,omitempty"`
	Shard      int              `json:"shard"`
	Op         string           `json:"op,omitempty"`
	Key        uint64           `json:"key,omitempty"`
	TotalUS    int64            `json:"total_us,omitempty"`
	Detail     string           `json:"detail,omitempty"`
	StagesUS   map[string]int64 `json:"stages_us,omitempty"`
}

// FlightLine is one line of a flight dump: a wide event or a span that was
// in flight at trigger time, tagged by Type ("wide" or "span").
type FlightLine struct {
	Type  string     `json:"type"`
	Event *WideEvent `json:"event,omitempty"`
	Span  *Span      `json:"span,omitempty"`
}

// FlightRecorder buffers wide events in a fixed ring and snapshots them —
// along with the attached SpanRecorder's in-flight spans — to a JSONL file
// when Trigger fires. All methods are nil-safe and safe for concurrent use.
type FlightRecorder struct {
	dir   string
	spans *SpanRecorder
	r     ring[WideEvent]

	dumps, dumpErrs uint64 // under r.mu, as is lastDump
	lastDump        string
}

// NewFlightRecorder returns a recorder retaining the last capacity wide
// events (DefaultFlightCapacity when capacity <= 0). dir is where Trigger
// writes dumps (created on demand; empty keeps snapshots in memory only).
// spans may be nil; when set, dumps include its retained spans.
func NewFlightRecorder(capacity int, dir string, spans *SpanRecorder) *FlightRecorder {
	if capacity <= 0 {
		capacity = DefaultFlightCapacity
	}
	return &FlightRecorder{
		dir:   dir,
		spans: spans,
		r:     ring[WideEvent]{buf: make([]WideEvent, capacity), stamp: func(e *WideEvent, seq uint64) { e.Seq = seq }},
	}
}

// Note records one wide event, stamping its time (when zero) and sequence.
func (f *FlightRecorder) Note(e WideEvent) {
	if f == nil {
		return
	}
	if e.TimeUnixNS == 0 {
		e.TimeUnixNS = time.Now().UnixNano()
	}
	f.r.add(e)
}

// Trigger records a trigger event of the given kind, freezes the ring, and
// dumps it (plus the spans in flight) as JSONL to the recorder's directory.
// It returns the dump path, empty when the recorder keeps snapshots in
// memory only. Dump failures are counted, never propagated as panics.
func (f *FlightRecorder) Trigger(kind, detail string) (string, error) {
	if f == nil {
		return "", nil
	}
	f.r.mu.Lock()
	f.r.put(WideEvent{
		TimeUnixNS: time.Now().UnixNano(),
		Kind:       kind,
		Shard:      -1,
		Detail:     detail,
	})
	f.dumps++
	n := f.dumps
	events := f.r.snapshot()
	f.r.mu.Unlock()

	if f.dir == "" {
		return "", nil
	}
	// The span snapshot takes the span recorder's own lock; never nest it
	// under ours.
	spans := f.spans.Spans()

	if err := os.MkdirAll(f.dir, 0o755); err != nil {
		return "", f.dumpFailed(err)
	}
	path := filepath.Join(f.dir, fmt.Sprintf("flight-%03d-%s.jsonl", n, kind))
	w, err := os.Create(path)
	if err != nil {
		return "", f.dumpFailed(err)
	}
	if err := WriteFlightDump(w, events, spans); err != nil {
		w.Close()
		return "", f.dumpFailed(err)
	}
	if err := w.Close(); err != nil {
		return "", f.dumpFailed(err)
	}
	f.r.mu.Lock()
	f.lastDump = path
	f.r.mu.Unlock()
	return path, nil
}

// dumpFailed counts a failed dump and returns the error for logging.
func (f *FlightRecorder) dumpFailed(err error) error {
	f.r.mu.Lock()
	f.dumpErrs++
	f.r.mu.Unlock()
	return fmt.Errorf("obs: flight dump: %w", err)
}

// Events returns the retained wide events in recording order.
func (f *FlightRecorder) Events() []WideEvent {
	if f == nil {
		return nil
	}
	return f.r.values()
}

// Len returns how many wide events are retained.
func (f *FlightRecorder) Len() int {
	if f == nil {
		return 0
	}
	return f.r.len()
}

// Dumps returns how many triggers have fired.
func (f *FlightRecorder) Dumps() uint64 {
	if f == nil {
		return 0
	}
	f.r.mu.Lock()
	defer f.r.mu.Unlock()
	return f.dumps
}

// DumpErrors returns how many dumps failed to write.
func (f *FlightRecorder) DumpErrors() uint64 {
	if f == nil {
		return 0
	}
	f.r.mu.Lock()
	defer f.r.mu.Unlock()
	return f.dumpErrs
}

// LastDump returns the path of the most recent successful dump ("" if none).
func (f *FlightRecorder) LastDump() string {
	if f == nil {
		return ""
	}
	f.r.mu.Lock()
	defer f.r.mu.Unlock()
	return f.lastDump
}

// WriteFlightDump writes a flight snapshot as type-tagged JSONL: first the
// wide events, then the spans that were in flight.
func WriteFlightDump(w io.Writer, events []WideEvent, spans []Span) error {
	lines := make([]FlightLine, 0, len(events)+len(spans))
	for i := range events {
		lines = append(lines, FlightLine{Type: "wide", Event: &events[i]})
	}
	for i := range spans {
		lines = append(lines, FlightLine{Type: "span", Span: &spans[i]})
	}
	return writeJSONL(w, lines)
}

// ReadFlightDump parses a flight dump written by WriteFlightDump.
func ReadFlightDump(r io.Reader) ([]FlightLine, error) {
	return readJSONL(r, "flight jsonl", func(fl *FlightLine) error {
		if fl.Type != "wide" && fl.Type != "span" {
			return fmt.Errorf("unknown type %q", fl.Type)
		}
		return nil
	})
}
