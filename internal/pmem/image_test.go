package pmem

import (
	"errors"
	"testing"

	"nvref/internal/fault"
	"nvref/internal/mem"
)

// checkpointed builds a store holding one checkpointed pool image and
// returns the store plus the saved meta and data.
func checkpointed(t *testing.T) (*MemStore, Meta, []byte) {
	t.Helper()
	store := NewMemStore()
	as := mem.New()
	reg := NewRegistry(as, store)
	pool, err := reg.Create("img", 64<<10)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pool.Alloc(128); err != nil {
		t.Fatal(err)
	}
	if err := reg.Checkpoint(pool); err != nil {
		t.Fatal(err)
	}
	meta, data, err := store.Load("img")
	if err != nil {
		t.Fatal(err)
	}
	return store, meta, data
}

func reopen(store Store) (*Pool, error) {
	reg := NewRegistry(mem.New(), store, WithMapBase(mem.NVMBase+128*mem.PageSize))
	return reg.Open("img")
}

func TestCheckpointRecordsChecksum(t *testing.T) {
	_, meta, data := checkpointed(t)
	if meta.Sum == 0 {
		t.Fatal("checkpoint left Meta.Sum unset")
	}
	if meta.Sum != ImageChecksum(data) {
		t.Errorf("Meta.Sum = %#x, image checksum = %#x", meta.Sum, ImageChecksum(data))
	}
}

func TestOpenDetectsBitFlip(t *testing.T) {
	store, meta, data := checkpointed(t)
	fault.FlipBit(data, fault.NewRand(7))
	if err := store.Save(meta, data); err != nil {
		t.Fatal(err)
	}
	if _, err := reopen(store); !errors.Is(err, ErrCorrupt) {
		t.Errorf("open of bit-flipped image: err = %v, want ErrCorrupt", err)
	}
}

// A zero Meta.Sum is a checksum like any other, not "unknown": over bytes
// whose CRC64 is not zero it is a mismatch.
func TestOpenChecksZeroSum(t *testing.T) {
	store, meta, data := checkpointed(t)
	meta.Sum = 0
	if err := store.Save(meta, data); err != nil {
		t.Fatal(err)
	}
	if _, err := reopen(store); !errors.Is(err, ErrCorrupt) {
		t.Errorf("open of an image saved with Sum 0: err = %v, want ErrCorrupt", err)
	}
}

func TestOpenDetectsTornImage(t *testing.T) {
	store, meta, data := checkpointed(t)
	if err := store.Save(meta, fault.Tear(data, fault.NewRand(7))); err != nil {
		t.Fatal(err)
	}
	if _, err := reopen(store); !errors.Is(err, ErrCorrupt) {
		t.Errorf("open of torn image: err = %v, want ErrCorrupt", err)
	}
}

func TestReattachDetectsCorruption(t *testing.T) {
	store := NewMemStore()
	as := mem.New()
	reg := NewRegistry(as, store)
	pool, err := reg.Create("img", 64<<10)
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.Detach(pool); err != nil {
		t.Fatal(err)
	}
	meta, data, err := store.Load("img")
	if err != nil {
		t.Fatal(err)
	}
	fault.FlipBit(data, fault.NewRand(9))
	if err := store.Save(meta, data); err != nil {
		t.Fatal(err)
	}
	if err := reg.Attach(pool); !errors.Is(err, ErrCorrupt) {
		t.Errorf("reattach of corrupt image: err = %v, want ErrCorrupt", err)
	}
}

// flakyStore fails Save/Load with transient errors a fixed number of times.
type flakyStore struct {
	Store
	saveFails, loadFails int
}

func (f *flakyStore) Save(meta Meta, data []byte) error {
	if f.saveFails > 0 {
		f.saveFails--
		return fault.Transientf("save %q", meta.Name)
	}
	return f.Store.Save(meta, data)
}

func (f *flakyStore) Load(name string) (Meta, []byte, error) {
	if f.loadFails > 0 {
		f.loadFails--
		return Meta{}, nil, fault.Transientf("load %q", name)
	}
	return f.Store.Load(name)
}

func TestRegistryRetriesTransientFaults(t *testing.T) {
	flaky := &flakyStore{Store: NewMemStore(), saveFails: 2}
	as := mem.New()
	reg := NewRegistry(as, flaky)
	pool, err := reg.Create("img", 64<<10)
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.Checkpoint(pool); err != nil {
		t.Errorf("checkpoint with 2 transient faults (3 attempts): %v", err)
	}

	flaky.loadFails = 2
	reg2 := NewRegistry(mem.New(), flaky)
	if _, err := reg2.Open("img"); err != nil {
		t.Errorf("open with 2 transient faults: %v", err)
	}

	// An exhausted budget surfaces the failure.
	flaky.loadFails = 10
	reg3 := NewRegistry(mem.New(), flaky, WithRetryPolicy(fault.RetryPolicy{Attempts: 2}))
	if _, err := reg3.Open("img"); !errors.Is(err, ErrNoSuchPool) {
		t.Errorf("open with exhausted retries: err = %v", err)
	}
}
