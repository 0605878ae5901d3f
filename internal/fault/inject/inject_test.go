package inject

import (
	"errors"
	"testing"

	"nvref/internal/fault"
	"nvref/internal/mem"
	"nvref/internal/pmem"
)

// newPool builds a registry over an injecting store with one checkpointed
// pool holding a single allocation. Store op counters at return: the
// Create existence check was load #1 and the checkpoint was save #1.
func newPool(t *testing.T, inj *Store) (*pmem.Registry, *pmem.Pool) {
	t.Helper()
	reg := pmem.NewRegistry(mem.New(), inj)
	pool, err := reg.Create("img", 64<<10)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pool.Alloc(64); err != nil {
		t.Fatal(err)
	}
	if err := reg.Checkpoint(pool); err != nil {
		t.Fatal(err)
	}
	return reg, pool
}

func open(inj *Store) (*pmem.Pool, error) {
	reg := pmem.NewRegistry(mem.New(), inj, pmem.WithMapBase(mem.NVMBase+256*mem.PageSize))
	return reg.Open("img")
}

func TestTransientSaveAbsorbedByRetry(t *testing.T) {
	inj := New(pmem.NewMemStore(), 1, Fault{Class: fault.Transient, Op: OpSave, Nth: 2})
	reg, pool := newPool(t, inj) // save #1: one allocation
	if _, err := pool.Alloc(128); err != nil {
		t.Fatal(err)
	}
	if err := reg.Checkpoint(pool); err != nil { // save #2 must survive the faulted attempt
		t.Fatal(err)
	}
	if len(inj.Events) != 1 {
		t.Errorf("events = %v, want exactly the scheduled transient", inj.Events)
	}
	reopened, err := open(inj)
	if err != nil {
		t.Fatalf("open after retried save: %v", err)
	}
	if got := reopened.AllocCount(); got != 2 {
		t.Errorf("reopened pool has %d allocations, want the latest checkpoint's 2", got)
	}
}

func TestTransientLoadAbsorbedByRetry(t *testing.T) {
	inj := New(pmem.NewMemStore(), 1, Fault{Class: fault.Transient, Op: OpLoad, Nth: 2})
	newPool(t, inj)
	reopened, err := open(inj) // open is load #2
	if err != nil {
		t.Fatalf("open with one transient load fault: %v", err)
	}
	if got := reopened.AllocCount(); got != 1 {
		t.Errorf("reopened pool has %d allocations, want the checkpoint's 1", got)
	}
}

func TestTornSaveDetectedOnOpen(t *testing.T) {
	inj := New(pmem.NewMemStore(), 2, Fault{Class: fault.Torn, Op: OpSave, Nth: 1})
	newPool(t, inj)
	if _, err := open(inj); !errors.Is(err, pmem.ErrCorrupt) {
		t.Errorf("open of torn image: err = %v, want ErrCorrupt", err)
	}
}

func TestBitFlipSaveDetectedOnOpen(t *testing.T) {
	inj := New(pmem.NewMemStore(), 3, Fault{Class: fault.BitFlip, Op: OpSave, Nth: 1})
	newPool(t, inj)
	if _, err := open(inj); !errors.Is(err, pmem.ErrCorrupt) {
		t.Errorf("open of bit-flipped image: err = %v, want ErrCorrupt", err)
	}
}

func TestTornLoadDetected(t *testing.T) {
	inj := New(pmem.NewMemStore(), 4, Fault{Class: fault.Torn, Op: OpLoad, Nth: 2})
	newPool(t, inj)
	if _, err := open(inj); !errors.Is(err, pmem.ErrCorrupt) {
		t.Errorf("torn load: err = %v, want ErrCorrupt", err)
	}
}

func TestBitFlipLoadDetected(t *testing.T) {
	inj := New(pmem.NewMemStore(), 5, Fault{Class: fault.BitFlip, Op: OpLoad, Nth: 2})
	newPool(t, inj)
	if _, err := open(inj); !errors.Is(err, pmem.ErrCorrupt) {
		t.Errorf("bit-flipped load: err = %v, want ErrCorrupt", err)
	}
}

func TestStaleSaveServesPreviousImage(t *testing.T) {
	inj := New(pmem.NewMemStore(), 6, Fault{Class: fault.Stale, Op: OpSave, Nth: 2})
	reg, pool := newPool(t, inj) // save #1: one allocation
	if _, err := pool.Alloc(128); err != nil {
		t.Fatal(err)
	}
	if err := reg.Checkpoint(pool); err != nil { // save #2: silently dropped
		t.Fatal(err)
	}
	reopened, err := open(inj)
	if err != nil {
		t.Fatalf("open after stale save: %v", err)
	}
	// The second allocation never reached the device: the image is the
	// first checkpoint, valid but old.
	if got := reopened.AllocCount(); got != 1 {
		t.Errorf("reopened pool has %d allocations, want the stale image's 1", got)
	}
}

func TestPassThroughWithoutSchedule(t *testing.T) {
	inner := pmem.NewMemStore()
	inj := New(inner, 7)
	newPool(t, inj)
	names, err := inj.List()
	if err != nil || len(names) != 1 || names[0] != "img" {
		t.Fatalf("List = %v, %v", names, err)
	}
	if err := inj.Delete("img"); err != nil {
		t.Fatal(err)
	}
	if names, _ := inner.List(); len(names) != 0 {
		t.Errorf("delete did not reach inner store: %v", names)
	}
	if len(inj.Events) != 0 {
		t.Errorf("unscheduled store logged events: %v", inj.Events)
	}
}
