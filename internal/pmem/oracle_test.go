package pmem_test

import (
	"bytes"
	"hash/crc64"
	"math/rand"
	"slices"
	"testing"

	"nvref/internal/fault"
	"nvref/internal/fault/inject"
	"nvref/internal/mem"
	"nvref/internal/parity"
	"nvref/internal/pmem"
)

// TestIncrementalCheckpointMatchesFullImage is the oracle that store-time
// tags miss no store: over random Store8/Store32/Store64/WriteBytes writes,
// page-straddling ones included, every checkpoint saves exactly a Snapshot
// of the pool, its Meta.Sum is crc64 of the image, its sidecar is byte for
// byte the full build's, and it checksums just the pages written since the
// last saved image. A save that fails with its retries exhausted saves
// nothing and loses none of its pages, and the first checkpoint after a
// reopen patches the image the open loaded.
func TestIncrementalCheckpointMatchesFullImage(t *testing.T) {
	const pg = parity.DefaultPageSize
	const size = 64 * pg
	const failAt = 7 // this checkpoint's image save fails, retry included
	inner := pmem.NewMemStore()
	pol := parity.Default()
	rng := rand.New(rand.NewSource(1))
	// Each checkpoint saves an image then a sidecar, so checkpoint i's image
	// save is save 2i+1, and its one retry the next.
	store := inject.New(inner, 1,
		inject.Fault{Class: fault.Transient, Op: inject.OpSave, Nth: 2*failAt + 1},
		inject.Fault{Class: fault.Transient, Op: inject.OpSave, Nth: 2*failAt + 2})
	retry := pmem.WithRetryPolicy(fault.RetryPolicy{Attempts: 2})

	written := map[int]bool{} // pages written since the last saved image
	write := func(t *testing.T, as *mem.AddressSpace, p *pmem.Pool) {
		t.Helper()
		for n := rng.Intn(6); n > 0; n-- {
			width := []int{1, 4, 8, 1 + rng.Intn(3*pg)}[rng.Intn(4)]
			off := pmem.HeapStart + uint64(rng.Int63n(int64(size-pmem.HeapStart)-int64(width)))
			if rng.Intn(3) == 0 { // straddle a page boundary
				off = uint64(1+rng.Intn(63))*pg - uint64(1+rng.Intn(min(width, pg)))/2
				off = min(off, size-uint64(width))
			}
			va := p.Base() + off
			var err error
			switch width {
			case 1:
				err = as.Store8(va, byte(rng.Intn(255)+1))
			case 4:
				err = as.Store32(va, rng.Uint32()|1)
			case 8:
				err = as.Store64(va, rng.Uint64()|1)
			default:
				buf := make([]byte, width)
				rng.Read(buf)
				err = as.WriteBytes(va, buf)
			}
			if err != nil {
				t.Fatal(err)
			}
			for i := off / pg; i <= (off+uint64(width)-1)/pg; i++ {
				written[int(i)] = true
			}
		}
	}
	check := func(t *testing.T, r *pmem.Registry, as *mem.AddressSpace, p *pmem.Pool, step int, dirty uint64) {
		t.Helper()
		meta, data, err := inner.Load("ck")
		if err != nil {
			t.Fatal(err)
		}
		snap, err := as.Snapshot(p.Base(), p.Size())
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(data, snap) {
			t.Fatalf("step %d: the saved image differs from a Snapshot of the pool", step)
		}
		if want := crc64.Checksum(data, crc64.MakeTable(crc64.ECMA)); meta.Sum != want {
			t.Fatalf("step %d: Meta.Sum %#x, crc64 of the image %#x", step, meta.Sum, want)
		}
		_, blob, err := inner.Load(parity.SidecarName("ck"))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(blob, parity.Build(data, pol).Encode()) {
			t.Fatalf("step %d: saved sidecar differs from a full build of the image", step)
		}
		if !slices.Equal(pmem.RecordedSums(r, "ck"), pmem.PageSums(r, data)) {
			t.Fatalf("step %d: recorded page sums drifted from the image", step)
		}
		if dirty != uint64(len(written)) {
			t.Fatalf("step %d: checkpoint took %d pages, %d were written", step, dirty, len(written))
		}
		clear(written)
	}

	r := pmem.NewRegistry(mem.New(), store, pmem.WithParity(pol), retry)
	as := r.AddressSpace()
	p, err := r.Create("ck", size)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 64; i++ { // the first checkpoint copies every page
		written[i] = true
	}
	step := 0
	for ; step < 20; step++ {
		write(t, as, p)
		if step == failAt {
			// A page nothing writes again: only the failed save's own
			// pages can carry it into a later image.
			if err := as.Store64(p.Base()+62*pg+8, 0xfa11); err != nil {
				t.Fatal(err)
			}
			written[62] = true
			_, before, _ := inner.Load("ck")
			if err := r.Checkpoint(p); err == nil {
				t.Fatalf("step %d: checkpoint succeeded through an exhausted retry budget", step)
			}
			if _, after, _ := inner.Load("ck"); !bytes.Equal(before, after) {
				t.Fatalf("step %d: the failed checkpoint changed the stored image", step)
			}
			continue
		}
		before := r.Stats.DirtyPages
		if err := r.Checkpoint(p); err != nil {
			t.Fatal(err)
		}
		check(t, r, as, p, step, r.Stats.DirtyPages-before)
	}
	if len(store.Events) != 2 {
		t.Fatalf("injected faults fired: %v, want both", store.Events)
	}

	// A new run: the first checkpoint after Open patches the image the open
	// loaded, and folds into the stored sidecar the open adopted.
	r2 := pmem.NewRegistry(mem.New(), inner, pmem.WithParity(pol), pmem.WithMapBase(mem.NVMBase+256*mem.PageSize))
	as2 := r2.AddressSpace()
	p2, err := r2.Open("ck")
	if err != nil {
		t.Fatal(err)
	}
	for ; step < 30; step++ {
		write(t, as2, p2)
		before := r2.Stats.DirtyPages
		if err := r2.Checkpoint(p2); err != nil {
			t.Fatal(err)
		}
		check(t, r2, as2, p2, step, r2.Stats.DirtyPages-before)
	}
	if r2.Stats.ParityBuilds != 0 || r2.Stats.ParityUpdates != 10 {
		t.Fatalf("after reopen: %d builds, %d delta updates; want 0 and 10",
			r2.Stats.ParityBuilds, r2.Stats.ParityUpdates)
	}
	if r2.Stats.DirtyPages >= 64*10 {
		t.Fatalf("reopened registry checksummed %d pages over 10 checkpoints: not incremental", r2.Stats.DirtyPages)
	}
}

// TestCheckpointTagsAtOtherPageSizes: with a parity page smaller or larger
// than the address space's 4 KiB page, the store-time tags still cover
// every written byte, so each checkpoint saves a Snapshot of the pool.
func TestCheckpointTagsAtOtherPageSizes(t *testing.T) {
	for _, pageSize := range []int{1024, 3 * 4096} {
		store := pmem.NewMemStore()
		pol := parity.Policy{Enabled: true, PageSize: pageSize, RangeletPages: 4}
		r := pmem.NewRegistry(mem.New(), store, pmem.WithParity(pol))
		as := r.AddressSpace()
		p, err := r.Create("ps", 40*4096)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(int64(pageSize)))
		for step := 0; step < 12; step++ {
			for n := rng.Intn(5); n > 0; n-- {
				off := pmem.HeapStart + uint64(rng.Int63n(int64(p.Size()-pmem.HeapStart-8)))
				if err := as.Store64(p.Base()+off, rng.Uint64()); err != nil {
					t.Fatal(err)
				}
			}
			if err := r.Checkpoint(p); err != nil {
				t.Fatal(err)
			}
			_, data, err := store.Load("ps")
			if err != nil {
				t.Fatal(err)
			}
			if snap, _ := as.Snapshot(p.Base(), p.Size()); !bytes.Equal(data, snap) {
				t.Fatalf("page size %d, step %d: the saved image differs from a Snapshot", pageSize, step)
			}
		}
	}
}
