package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sync"
)

// ring is the core every recorder in this package is built on: a mutex, a
// fixed buffer that overwrites its oldest entry once full, a sequence
// counter stamped into each value, and an optional sink called under the
// lock with panic containment. Recorders keep their own extra state under
// mu too, so one lock orders everything a recorder does.
type ring[T any] struct {
	mu         sync.Mutex
	buf        []T
	next       int
	wrapped    bool
	seq        uint64
	stamp      func(*T, uint64)
	sink       func(T)
	sinkPanics uint64
}

// put numbers v, stores it, and forwards it to the sink (caller holds mu).
// A sink that panics is detached and counted: recording must never take
// the recorded program down.
func (r *ring[T]) put(v T) {
	r.seq++
	r.stamp(&v, r.seq)
	r.buf[r.next] = v
	r.next++
	if r.next == len(r.buf) {
		r.next = 0
		r.wrapped = true
	}
	if r.sink == nil {
		return
	}
	defer func() {
		if p := recover(); p != nil {
			r.sink = nil
			r.sinkPanics++
		}
	}()
	r.sink(v)
}

// snapshot copies the retained values in recording order (caller holds mu).
func (r *ring[T]) snapshot() []T {
	if !r.wrapped {
		return append(make([]T, 0, r.next), r.buf[:r.next]...)
	}
	out := make([]T, 0, len(r.buf))
	out = append(out, r.buf[r.next:]...)
	return append(out, r.buf[:r.next]...)
}

// add records one value.
func (r *ring[T]) add(v T) {
	r.mu.Lock()
	r.put(v)
	r.mu.Unlock()
}

// values returns the retained values in recording order.
func (r *ring[T]) values() []T {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.snapshot()
}

// len returns how many values are retained.
func (r *ring[T]) len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.wrapped {
		return len(r.buf)
	}
	return r.next
}

// emitted returns how many values were ever recorded.
func (r *ring[T]) emitted() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.seq
}

// reset drops every retained value and restarts sequence numbering.
func (r *ring[T]) reset() {
	r.mu.Lock()
	r.next, r.wrapped, r.seq = 0, false, 0
	r.mu.Unlock()
}

// setSink forwards every later value to fn (nil detaches).
func (r *ring[T]) setSink(fn func(T)) {
	r.mu.Lock()
	r.sink = fn
	r.mu.Unlock()
}

// panics returns how many sinks were detached after panicking.
func (r *ring[T]) panics() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.sinkPanics
}

// writeJSONL writes vs one JSON document per line.
func writeJSONL[T any](w io.Writer, vs []T) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for i := range vs {
		if err := enc.Encode(&vs[i]); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// readJSONL parses a JSONL stream, skipping blank lines. A line that does
// not decode, or that check (when non-nil) refuses, fails the read with
// "obs: <stream> line <n>: <why>".
func readJSONL[T any](r io.Reader, stream string, check func(*T) error) ([]T, error) {
	var out []T
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for line := 1; sc.Scan(); line++ {
		b := sc.Bytes()
		if len(b) == 0 {
			continue
		}
		var v T
		err := json.Unmarshal(b, &v)
		if err == nil && check != nil {
			err = check(&v)
		}
		if err != nil {
			return nil, fmt.Errorf("obs: %s line %d: %w", stream, line, err)
		}
		out = append(out, v)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}
