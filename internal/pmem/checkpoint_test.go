package pmem

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc64"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"nvref/internal/mem"
	"nvref/internal/parity"
)

// TestCheckpointAllocatesOnlyDirtyPages: once a pool has its two images,
// a checkpoint copies and saves the pages written since the last one into
// them in place — it allocates no fresh snapshot of the pool.
func TestCheckpointAllocatesOnlyDirtyPages(t *testing.T) {
	const size = 32 << 20
	r := NewRegistry(mem.New(), NewMemStore())
	p, err := r.Create("big", size)
	if err != nil {
		t.Fatal(err)
	}
	as := r.AddressSpace()
	scribble := func(gen uint64) {
		for pg := uint64(0); pg < 64; pg++ {
			if err := as.Store64(p.Base()+HeapStart+pg*(size/64), gen); err != nil {
				t.Fatal(err)
			}
		}
	}
	for gen := uint64(1); gen <= 3; gen++ { // the full copy, then the second image
		scribble(gen)
		if err := r.Checkpoint(p); err != nil {
			t.Fatal(err)
		}
	}
	scribble(4)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	if err := r.Checkpoint(p); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > 256<<10 {
		t.Fatalf("checkpointing 64 dirty pages of a 32 MiB pool allocated %d bytes", got)
	}
	if _, data, err := r.store.Load("big"); err != nil || binary.LittleEndian.Uint64(data[HeapStart+63*(size/64):]) != 4 {
		t.Fatalf("the checkpoint did not save the last write (err %v)", err)
	}
}

// failingStore fails the next Save of one named image, permanently (no
// retry absorbs it).
type failingStore struct {
	Store
	failName string
}

var errInjected = errors.New("injected save failure")

func (f *failingStore) Save(meta Meta, data []byte) error {
	if meta.Name == f.failName {
		f.failName = ""
		return errInjected
	}
	return f.Store.Save(meta, data)
}

// A checkpoint whose sidecar save fails must still leave the registry's
// record of the image — bytes and parity — in step, so the next checkpoint
// folds the right old page out of parity. If it did not, parity would carry
// a stale page and a later single-page repair in that rangelet would fail.
func TestFailedSidecarSaveKeepsParityInStep(t *testing.T) {
	store := &failingStore{Store: NewMemStore()}
	r := NewRegistry(mem.New(), store, WithParity(parity.Default()))
	const pg = parity.DefaultPageSize
	p, err := r.Create("pool", 16*pg)
	if err != nil {
		t.Fatal(err)
	}
	as := r.AddressSpace()
	put := func(page int, v uint64) {
		t.Helper()
		for off := uint64(256); off < pg; off += 512 {
			if err := as.Store64(p.Base()+uint64(page)*pg+off, v+off); err != nil {
				t.Fatal(err)
			}
		}
	}
	for page := 0; page < 16; page++ {
		put(page, uint64(page)<<32)
	}
	if err := r.Checkpoint(p); err != nil { // A
		t.Fatal(err)
	}
	put(3, 0xb0b0)
	store.failName = parity.SidecarName("pool")
	if err := r.Checkpoint(p); !errors.Is(err, errInjected) { // B: image saved, sidecar not
		t.Fatalf("checkpoint B: err = %v, want the injected sidecar failure", err)
	}
	put(3, 0xc0c0)
	if err := r.Checkpoint(p); err != nil { // C
		t.Fatal(err)
	}

	// Corrupt page 5, a sibling of page 3 in rangelet 0, in the store.
	meta, data, err := store.Load("pool")
	if err != nil {
		t.Fatal(err)
	}
	want := append([]byte(nil), data...)
	data[5*pg+100] ^= 0x10
	if err := store.Store.Save(meta, data); err != nil {
		t.Fatal(err)
	}
	rep, err := r.ScrubMedia("pool", true)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Recovered() || !slices.Equal(rep.Repaired, []int{5}) || !rep.Healed {
		t.Fatalf("scrub report %+v: want page 5 reconstructed and healed", rep)
	}
	if _, healed, _ := store.Load("pool"); !bytes.Equal(healed, want) {
		t.Fatal("healed image differs from checkpoint C's")
	}
}

// FuzzImageChecksum: for any image, page size and set of page edits, the
// per-page sums fold to crc64.Checksum of the whole image — from scratch, and
// incrementally from the previous image's sums with only the edited pages
// re-summed.
//
// Pages here are at most 256 bytes, so that small inputs span many of them
// (and minimizing a failure stays quick); the 4 KiB pages of real pools are
// TestIncrementalCheckpointMatchesFullImage's.
func FuzzImageChecksum(f *testing.F) {
	img := make([]byte, 3*256+100)
	rand.New(rand.NewSource(3)).Read(img)
	f.Add(img, []byte{1, 7, 0xff, 3, 0, 1}, uint16(255))
	f.Add(img[:256], []byte{0, 0, 0}, uint16(255))
	f.Add([]byte("abcdefghij"), []byte{2, 1, 9, 0, 0, 4}, uint16(2))
	f.Add([]byte{}, []byte{}, uint16(0))
	f.Fuzz(func(t *testing.T, img, edits []byte, ps uint16) {
		if len(img) > 4096 {
			img = img[:4096]
		}
		pageSize := 1 + int(ps)%256
		r := &Registry{pageSize: pageSize, shift: newCRCShift(pageSize)}
		table := crc64.MakeTable(crc64.ECMA)

		sums, sum := r.pageSums(img)
		if want := crc64.Checksum(img, table); sum != want {
			t.Fatalf("fold %#x, crc64 %#x (len %d, page %d)", sum, want, len(img), pageSize)
		}
		next := append([]byte(nil), img...)
		for i := 0; i+2 < len(edits) && len(next) > 0; i += 3 {
			page := int(edits[i]) % len(sums)
			lo := page * pageSize
			next[lo+int(edits[i+1])%(min(lo+pageSize, len(next))-lo)] ^= edits[i+2]
		}
		var dirty []int
		for i := range sums {
			if !bytes.Equal(r.page(img, i), r.page(next, i)) {
				dirty = append(dirty, i)
			}
		}
		nsums := slices.Clone(sums)
		for _, i := range dirty {
			nsums[i] = crc64.Checksum(r.page(next, i), table)
		}
		if nsum, want := r.fold(nsums, len(next)), crc64.Checksum(next, table); nsum != want {
			t.Fatalf("incremental fold %#x, crc64 %#x", nsum, want)
		}
		if fresh, _ := r.pageSums(next); !slices.Equal(nsums, fresh) {
			t.Fatal("incremental page sums differ from fresh ones")
		}
	})
}
