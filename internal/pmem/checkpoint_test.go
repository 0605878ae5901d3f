package pmem

import (
	"bytes"
	"errors"
	"hash/crc64"
	"math/rand"
	"slices"
	"testing"

	"nvref/internal/mem"
	"nvref/internal/parity"
)

// The incremental checkpoint keeps the on-disk format exactly: over a
// randomized sequence of page writes, every saved Meta.Sum is crc64.Checksum
// of the saved image and every saved sidecar is byte for byte the full
// build's — for the first checkpoint, the incremental ones, and the first
// one after the pool is reopened by a new registry.
func TestIncrementalCheckpointMatchesFullImage(t *testing.T) {
	store := NewMemStore()
	pol := parity.Default()
	const size = 64 * parity.DefaultPageSize
	rng := rand.New(rand.NewSource(1))

	var prev []byte // the image saved by the previous checkpoint
	check := func(t *testing.T, r *Registry, step int) {
		t.Helper()
		meta, data, err := store.Load("ck")
		if err != nil {
			t.Fatal(err)
		}
		if want := crc64.Checksum(data, crc64.MakeTable(crc64.ECMA)); meta.Sum != want {
			t.Fatalf("step %d: Meta.Sum %#x, crc64 of the image %#x", step, meta.Sum, want)
		}
		_, blob, err := store.Load(parity.SidecarName("ck"))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(blob, parity.Build(data, pol).Encode()) {
			t.Fatalf("step %d: saved sidecar differs from a full build of the image", step)
		}
		if prev != nil && r.saved["ck"] != nil {
			if got, want := r.saved["ck"].sums, mustSums(r, data); !slices.Equal(got, want) {
				t.Fatalf("step %d: recorded page sums drifted from the image", step)
			}
		}
		prev = data
	}
	scribble := func(r *Registry, p *Pool) {
		for n := rng.Intn(6); n > 0; n-- {
			off := HeapStart + uint64(rng.Int63n(int64(size-HeapStart-8)))&^7
			if err := r.AddressSpace().Store64(p.Base()+off, rng.Uint64()); err != nil {
				t.Fatal(err)
			}
		}
	}

	r := NewRegistry(mem.New(), store, WithParity(pol))
	p, err := r.Create("ck", size)
	if err != nil {
		t.Fatal(err)
	}
	step := 0
	for ; step < 20; step++ {
		scribble(r, p)
		before := r.Stats.DirtyPages
		if err := r.Checkpoint(p); err != nil {
			t.Fatal(err)
		}
		want := 64
		if prev != nil {
			_, data, _ := store.Load("ck")
			want = len(parity.Dirty(prev, data, parity.DefaultPageSize))
		}
		if got := r.Stats.DirtyPages - before; got != uint64(want) {
			t.Fatalf("step %d: DirtyPages grew by %d, want %d", step, got, want)
		}
		check(t, r, step)
	}

	// A new run: the first checkpoint after Open diffs against the image
	// the open loaded, and folds into the stored sidecar the open adopted.
	r2 := NewRegistry(mem.New(), store, WithParity(pol), WithMapBase(mem.NVMBase+256*mem.PageSize))
	p2, err := r2.Open("ck")
	if err != nil {
		t.Fatal(err)
	}
	for ; step < 30; step++ {
		scribble(r2, p2)
		if err := r2.Checkpoint(p2); err != nil {
			t.Fatal(err)
		}
		check(t, r2, step)
	}
	if r2.Stats.ParityBuilds != 0 || r2.Stats.ParityUpdates != 10 {
		t.Fatalf("after reopen: %d builds, %d delta updates; want 0 and 10",
			r2.Stats.ParityBuilds, r2.Stats.ParityUpdates)
	}
	if r2.Stats.DirtyPages >= 64*10 {
		t.Fatalf("reopened registry checksummed %d pages over 10 checkpoints: not incremental", r2.Stats.DirtyPages)
	}
}

func mustSums(r *Registry, data []byte) []uint64 {
	sums, _ := r.pageSums(data)
	return sums
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
// per-page sums fold to crc64.Checksum of the whole image — from scratch and
// incrementally from the previous image's record — and the dirty list is
// exactly the pages whose bytes differ.
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
		dirty, nsums, nsum := r.diff(&saved{data: img, sums: sums}, next)
		if want := crc64.Checksum(next, table); nsum != want {
			t.Fatalf("incremental fold %#x, crc64 %#x", nsum, want)
		}
		if fresh, _ := r.pageSums(next); !slices.Equal(nsums, fresh) {
			t.Fatal("incremental page sums differ from fresh ones")
		}
		var want []int
		for i := range sums {
			if !bytes.Equal(r.page(img, i), r.page(next, i)) {
				want = append(want, i)
			}
		}
		if !slices.Equal(dirty, want) {
			t.Fatalf("dirty %v, want %v", dirty, want)
		}
	})
}
