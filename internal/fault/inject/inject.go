// Package inject wraps a pmem.Store with deterministic, seed-driven fault
// injection. A wrapped store misbehaves on scheduled occurrences of Save or
// Load — transient errors, torn writes, single-bit flips, silently dropped
// saves — so tests and the nvbench fault matrix can prove the registry's
// retry and integrity checks catch each class (Table I's storeP faults at
// the device level rather than the instruction level).
package inject

import (
	"fmt"

	"nvref/internal/fault"
	"nvref/internal/pmem"
)

// Op selects which store operation a fault applies to.
type Op int

const (
	// OpSave faults a Registry checkpoint (or any other image write).
	OpSave Op = iota
	// OpLoad faults an image read on open or reattach.
	OpLoad
)

func (o Op) String() string {
	if o == OpLoad {
		return "load"
	}
	return "save"
}

// Fault schedules one fault: the Nth occurrence (1-based) of Op suffers
// Class. Occurrences are counted per operation across the store's lifetime,
// so retried attempts count separately — a Transient fault at Nth=1 is
// absorbed by a retry budget of two or more attempts.
type Fault struct {
	Class fault.Class
	Op    Op
	Nth   int
}

func (f Fault) String() string {
	return fmt.Sprintf("%s on %s #%d", f.Class, f.Op, f.Nth)
}

// Event records one fault that actually fired.
type Event struct {
	Fault Fault
	Name  string // pool name the operation targeted
}

// Store is a pmem.Store that injects the scheduled faults and otherwise
// delegates to the wrapped store. List and Delete always pass through.
type Store struct {
	inner  pmem.Store
	rng    *fault.Rand
	faults []Fault
	saves  int
	loads  int

	// Events lists the faults that fired, in order.
	Events []Event
}

// New wraps inner. The seed drives where torn writes cut and which bits
// flip; the same seed and schedule reproduce the same corruption.
func New(inner pmem.Store, seed uint64, faults ...Fault) *Store {
	return &Store{inner: inner, rng: fault.NewRand(seed), faults: faults}
}

func (s *Store) scheduled(op Op, n int) (Fault, bool) {
	for _, f := range s.faults {
		if f.Op == op && f.Nth == n {
			return f, true
		}
	}
	return Fault{}, false
}

// Save implements pmem.Store.
func (s *Store) Save(meta pmem.Meta, data []byte) error {
	s.saves++
	f, ok := s.scheduled(OpSave, s.saves)
	if !ok {
		return s.inner.Save(meta, data)
	}
	s.Events = append(s.Events, Event{Fault: f, Name: meta.Name})
	switch f.Class {
	case fault.Transient:
		return fault.Transientf("inject: save %q attempt %d", meta.Name, s.saves)
	case fault.Torn:
		return s.inner.Save(meta, fault.Tear(data, s.rng))
	case fault.BitFlip:
		cp := make([]byte, len(data))
		copy(cp, data)
		fault.FlipBit(cp, s.rng)
		return s.inner.Save(meta, cp)
	case fault.Stale:
		// The write is acknowledged but never reaches the device; the
		// previous image remains current.
		return nil
	}
	return fmt.Errorf("inject: unknown fault class %d", f.Class)
}

// Load implements pmem.Store. A Stale fault on load passes through
// unchanged: staleness is a property of lost writes, not of reads.
func (s *Store) Load(name string) (pmem.Meta, []byte, error) {
	s.loads++
	f, ok := s.scheduled(OpLoad, s.loads)
	if !ok {
		return s.inner.Load(name)
	}
	s.Events = append(s.Events, Event{Fault: f, Name: name})
	if f.Class == fault.Transient {
		return pmem.Meta{}, nil, fault.Transientf("inject: load %q attempt %d", name, s.loads)
	}
	meta, data, err := s.inner.Load(name)
	if err != nil {
		return meta, data, err
	}
	switch f.Class {
	case fault.Torn:
		data = fault.Tear(data, s.rng)
	case fault.BitFlip:
		fault.FlipBit(data, s.rng)
	}
	return meta, data, nil
}

// List implements pmem.Store.
func (s *Store) List() ([]string, error) { return s.inner.List() }

// Delete implements pmem.Store.
func (s *Store) Delete(name string) error { return s.inner.Delete(name) }

var _ pmem.Store = (*Store)(nil)
