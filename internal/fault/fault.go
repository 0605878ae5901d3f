// Package fault is the injectable fault plane of the persistence stack. It
// provides three things the recovery machinery is verified against:
//
//   - Named crash points: pmem and txn call Crash(label) after every
//     durable store that publishes state ("persist points"). With no
//     scheduler armed the call is a no-op costing one atomic load; a test
//     harness arms a Scheduler that kills the simulated run at a chosen
//     point by panicking with *CrashPanic, which the harness recovers.
//
//   - Fault classes and a transient-error convention: stores signal
//     retryable device faults by wrapping ErrTransient, and RetryPolicy
//     bounds how callers (the pmem Registry's snapshot/open paths) retry
//     them.
//
//   - Deterministic, seed-driven corruption primitives (Tear, FlipBit)
//     used by the injecting store wrapper to model torn writes and media
//     bit flips.
//
// The package sits below pmem and txn in the import graph so those layers
// can be instrumented directly; the pieces that need the pool types live in
// the subpackages fault/inject (the Store wrapper) and fault/harness (the
// crash-point enumerator).
package fault

import (
	"sort"
	"sync"
	"sync/atomic"
)

// Scheduler decides, at each crash point, whether the run crashes there.
// Implementations must be safe for use from a single goroutine at a time
// (the simulator is single-threaded per run) but the armed/disarmed
// transition itself is atomic.
type Scheduler interface {
	// Hit records one execution of the crash point and reports whether the
	// run must crash now.
	Hit(label string) bool
}

// schedHolder wraps the scheduler so an atomic pointer can represent the
// disarmed state as nil.
type schedHolder struct{ s Scheduler }

var active atomic.Pointer[schedHolder]

// SetScheduler arms s as the process-wide crash scheduler; nil disarms.
func SetScheduler(s Scheduler) {
	if s == nil {
		active.Store(nil)
		return
	}
	active.Store(&schedHolder{s: s})
}

// CrashPanic is the value Crash panics with when the scheduler fires. It
// models the machine losing power at that persist point: everything not yet
// stored to the simulated NVM is gone.
type CrashPanic struct {
	// Label names the crash point that fired.
	Label string
}

func (c *CrashPanic) String() string { return "crash at " + c.Label }

// Crash marks a persist point. Instrumented code calls it immediately after
// each durable store that publishes state; with no scheduler armed it is a
// no-op.
func Crash(label string) {
	h := active.Load()
	if h == nil {
		return
	}
	crashPointsHit.Add(1)
	if h.s.Hit(label) {
		crashesFired.Add(1)
		panic(&CrashPanic{Label: label})
	}
}

// AsCrash extracts the *CrashPanic from a recover() value, if it is one.
func AsCrash(r any) (*CrashPanic, bool) {
	c, ok := r.(*CrashPanic)
	return c, ok
}

// Run executes f with s armed as the crash scheduler, disarming it again on
// return. If f crashes at a scheduled point, Run recovers the CrashPanic
// and returns it; any other panic propagates.
func Run(s Scheduler, f func() error) (crashed *CrashPanic, err error) {
	SetScheduler(s)
	defer SetScheduler(nil)
	defer func() {
		if r := recover(); r != nil {
			if c, ok := AsCrash(r); ok {
				crashed = c
				return
			}
			panic(r)
		}
	}()
	return nil, f()
}

// Recorder is a Scheduler that never crashes; it counts how often each
// crash point executes, which is how the harness enumerates the persist
// points a workload reaches.
type Recorder struct {
	mu     sync.Mutex
	counts map[string]int
}

// NewRecorder returns an empty Recorder.
func NewRecorder() *Recorder {
	return &Recorder{counts: make(map[string]int)}
}

// Hit implements Scheduler.
func (r *Recorder) Hit(label string) bool {
	r.mu.Lock()
	r.counts[label]++
	r.mu.Unlock()
	return false
}

// Counts returns a copy of the per-label hit counts.
func (r *Recorder) Counts() map[string]int {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]int, len(r.counts))
	for k, v := range r.counts {
		out[k] = v
	}
	return out
}

// Labels returns the recorded crash-point labels, sorted.
func (r *Recorder) Labels() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]string, 0, len(r.counts))
	for k := range r.counts {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Trigger is a Scheduler that crashes the run at the Nth execution of one
// labeled crash point and ignores every other point.
type Trigger struct {
	mu    sync.Mutex
	label string
	n     int
	hits  int
}

// NewTrigger returns a Trigger firing at the nth (1-based) hit of label.
func NewTrigger(label string, nth int) *Trigger {
	if nth < 1 {
		nth = 1
	}
	return &Trigger{label: label, n: nth}
}

// Hit implements Scheduler.
func (t *Trigger) Hit(label string) bool {
	if label != t.label {
		return false
	}
	t.mu.Lock()
	t.hits++
	fire := t.hits == t.n
	t.mu.Unlock()
	return fire
}

// Fired reports whether the trigger's crash point was reached often enough
// to fire.
func (t *Trigger) Fired() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.hits >= t.n
}

// Periodic is a goroutine-safe Scheduler that fires on every nth execution
// of one labeled crash point — the recurring sibling of Trigger. The sim's
// network faults (sim.Faults) use it to fault a steady fraction of I/O calls;
// an empty label matches every point, so one Periodic can drive both the
// read and write points at once.
type Periodic struct {
	label string
	every uint64
	hits  atomic.Uint64
	fired atomic.Uint64
}

// NewPeriodic returns a Periodic firing at every nth (1-based) hit of
// label; an empty label matches all points.
func NewPeriodic(label string, every int) *Periodic {
	if every < 1 {
		every = 1
	}
	return &Periodic{label: label, every: uint64(every)}
}

// Hit implements Scheduler.
func (p *Periodic) Hit(label string) bool {
	if p.label != "" && label != p.label {
		return false
	}
	if p.hits.Add(1)%p.every != 0 {
		return false
	}
	p.fired.Add(1)
	return true
}

// Fired returns how many times the scheduler has fired.
func (p *Periodic) Fired() uint64 { return p.fired.Load() }
