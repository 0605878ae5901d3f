package obs

import (
	"encoding/json"
	"fmt"
	"io"
)

// Structured event tracing. The tracer replaces the runtime's old
// unstructured text stream: each reference operation emits one fixed-shape
// Event into a mutex-guarded ring buffer, optionally forwarded to a sink
// (text compat formatter, JSONL writer) while the lock is held — so
// concurrent emitters can no longer interleave partial lines.

// EventKind names the operation an event records.
type EventKind uint8

// Event kinds, mirroring the runtime's reference operations.
const (
	EvLoad     EventKind = iota // scalar load
	EvStore                     // scalar store (storeD)
	EvLoadPtr                   // pointer load (pdy = pxr rule)
	EvStorePtr                  // pointer store (storeP / pointerAssignment)
	EvAlloc                     // persistent or volatile allocation
	EvFree                      // deallocation
)

var eventKindNames = [...]string{"load", "storeD", "loadPtr", "storePtr", "alloc", "free"}

func (k EventKind) String() string {
	if int(k) < len(eventKindNames) {
		return eventKindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// MarshalJSON encodes the kind as its name.
func (k EventKind) MarshalJSON() ([]byte, error) { return json.Marshal(k.String()) }

// UnmarshalJSON decodes a kind name.
func (k *EventKind) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return err
	}
	for i, name := range eventKindNames {
		if name == s {
			*k = EventKind(i)
			return nil
		}
	}
	return fmt.Errorf("obs: unknown event kind %q", s)
}

// Conversion records which pointer-format translation an operation
// performed, if any.
type Conversion uint8

// Conversion directions.
const (
	ConvNone     Conversion = iota
	ConvRelToAbs            // ra2va: relative form resolved to a virtual address
	ConvAbsToRel            // va2ra: virtual address made relocatable
)

var conversionNames = [...]string{"none", "ra2va", "va2ra"}

func (c Conversion) String() string {
	if int(c) < len(conversionNames) {
		return conversionNames[c]
	}
	return fmt.Sprintf("conv(%d)", uint8(c))
}

// MarshalJSON encodes the conversion as its name.
func (c Conversion) MarshalJSON() ([]byte, error) { return json.Marshal(c.String()) }

// UnmarshalJSON decodes a conversion name.
func (c *Conversion) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return err
	}
	for i, name := range conversionNames {
		if name == s {
			*c = Conversion(i)
			return nil
		}
	}
	return fmt.Errorf("obs: unknown conversion %q", s)
}

// Event is one traced reference operation. Pointer words are carried raw
// (the 64-bit reference encoding); the consumer decodes form and fields.
type Event struct {
	Seq   uint64     `json:"seq"`
	Cycle uint64     `json:"cycle"`
	Mode  string     `json:"mode"`
	Kind  EventKind  `json:"kind"`
	P     uint64     `json:"p"`             // base reference of the access
	Off   int64      `json:"off"`           // byte offset from P
	Val   uint64     `json:"val"`           // loaded/stored word, or resolved VA for scalar ops
	Res   uint64     `json:"res,omitempty"` // converted local (loadPtr) / stored form (storePtr)
	Conv  Conversion `json:"conv"`
}

// Tracer collects events in a fixed-capacity ring buffer. All methods are
// safe for concurrent use and nil-safe; the sink runs under the tracer's
// lock so its output preserves event order even when a Context is
// (incorrectly but commonly) shared across goroutines.
type Tracer struct{ r ring[Event] }

// DefaultTraceCapacity bounds the ring when callers do not choose one.
const DefaultTraceCapacity = 4096

// NewTracer returns a tracer retaining the last capacity events
// (DefaultTraceCapacity when capacity <= 0).
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultTraceCapacity
	}
	return &Tracer{ring[Event]{buf: make([]Event, capacity), stamp: func(e *Event, seq uint64) { e.Seq = seq }}}
}

// SetSink forwards every subsequent event to fn (nil detaches). The sink is
// called with the lock held: keep it fast. A sink that panics is detached
// and counted (SinkPanics) — tracing must never take the traced run down.
func (t *Tracer) SetSink(fn func(Event)) {
	if t != nil {
		t.r.setSink(fn)
	}
}

// SinkPanics returns how many sinks were detached after panicking.
func (t *Tracer) SinkPanics() uint64 {
	if t == nil {
		return 0
	}
	return t.r.panics()
}

// Emit records one event, assigning its sequence number.
func (t *Tracer) Emit(e Event) {
	if t != nil {
		t.r.add(e)
	}
}

// Events returns the retained events in emission order.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	return t.r.values()
}

// Len returns how many events are retained.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	return t.r.len()
}

// Emitted returns the total number of events ever emitted (>= Len when the
// ring has wrapped).
func (t *Tracer) Emitted() uint64 {
	if t == nil {
		return 0
	}
	return t.r.emitted()
}

// Reset drops all retained events and restarts sequence numbering.
func (t *Tracer) Reset() {
	if t != nil {
		t.r.reset()
	}
}

// WriteJSONL writes events one JSON document per line.
func WriteJSONL(w io.Writer, events []Event) error { return writeJSONL(w, events) }

// ReadJSONL parses a JSONL event stream, skipping blank lines.
func ReadJSONL(r io.Reader) ([]Event, error) { return readJSONL[Event](r, "jsonl", nil) }

// JSONLSink returns a sink function streaming each event to w as JSONL,
// suitable for Tracer.SetSink. Errors are reported through errf once
// (nil errf ignores them); tracing must not abort the traced run.
func JSONLSink(w io.Writer, errf func(error)) func(Event) {
	enc := json.NewEncoder(w)
	failed := false
	return func(e Event) {
		if failed {
			return
		}
		if err := enc.Encode(e); err != nil {
			failed = true
			if errf != nil {
				errf(err)
			}
		}
	}
}
