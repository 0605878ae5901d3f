package mem

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestIsNVM(t *testing.T) {
	cases := []struct {
		va   uint64
		want bool
	}{
		{0, false},
		{0x1000, false},
		{NVMBit - 1, false},
		{NVMBit, true},
		{NVMBit | 0xdeadbeef, true},
		{AddressLimit - 1, true},
	}
	for _, c := range cases {
		if got := IsNVM(c.va); got != c.want {
			t.Errorf("IsNVM(%#x) = %v, want %v", c.va, got, c.want)
		}
	}
}

func TestMapAndAccess(t *testing.T) {
	a := New()
	if err := a.Map(0x10000, 2*PageSize, "heap"); err != nil {
		t.Fatalf("Map: %v", err)
	}
	if err := a.Store64(0x10008, 0xfeedface); err != nil {
		t.Fatalf("Store64: %v", err)
	}
	v, err := a.Load64(0x10008)
	if err != nil {
		t.Fatalf("Load64: %v", err)
	}
	if v != 0xfeedface {
		t.Errorf("Load64 = %#x, want 0xfeedface", v)
	}
}

func TestUnmappedAccessFails(t *testing.T) {
	a := New()
	if _, err := a.Load64(0x1000); !errors.Is(err, ErrUnmapped) {
		t.Errorf("Load64 unmapped: err = %v, want ErrUnmapped", err)
	}
	if err := a.Store8(0x1000, 1); !errors.Is(err, ErrUnmapped) {
		t.Errorf("Store8 unmapped: err = %v, want ErrUnmapped", err)
	}
}

func TestOutOfRange(t *testing.T) {
	a := New()
	if _, err := a.Load64(AddressLimit); !errors.Is(err, ErrOutOfRange) {
		t.Errorf("Load64 out of range: err = %v, want ErrOutOfRange", err)
	}
	if err := a.Map(AddressLimit-PageSize, 2*PageSize, "x"); !errors.Is(err, ErrOutOfRange) {
		t.Errorf("Map past limit: err = %v, want ErrOutOfRange", err)
	}
}

func TestOverlapRejected(t *testing.T) {
	a := New()
	if err := a.Map(0x10000, 4*PageSize, "a"); err != nil {
		t.Fatal(err)
	}
	if err := a.Map(0x10000+2*PageSize, 4*PageSize, "b"); !errors.Is(err, ErrOverlap) {
		t.Errorf("overlapping Map: err = %v, want ErrOverlap", err)
	}
	// Adjacent mapping is fine.
	if err := a.Map(0x10000+4*PageSize, PageSize, "c"); err != nil {
		t.Errorf("adjacent Map: %v", err)
	}
}

func TestBadRegion(t *testing.T) {
	a := New()
	if err := a.Map(0x10001, PageSize, "x"); !errors.Is(err, ErrBadRegion) {
		t.Errorf("unaligned base: err = %v, want ErrBadRegion", err)
	}
	if err := a.Map(0x10000, 100, "x"); !errors.Is(err, ErrBadRegion) {
		t.Errorf("unaligned size: err = %v, want ErrBadRegion", err)
	}
	if err := a.Map(0x10000, 0, "x"); !errors.Is(err, ErrBadRegion) {
		t.Errorf("zero size: err = %v, want ErrBadRegion", err)
	}
}

func TestUnmap(t *testing.T) {
	a := New()
	if err := a.Map(0x10000, PageSize, "x"); err != nil {
		t.Fatal(err)
	}
	if err := a.Unmap(0x10000, PageSize); err != nil {
		t.Fatalf("Unmap: %v", err)
	}
	if _, err := a.Load8(0x10000); !errors.Is(err, ErrUnmapped) {
		t.Errorf("access after Unmap: err = %v, want ErrUnmapped", err)
	}
	if err := a.Unmap(0x10000, PageSize); !errors.Is(err, ErrNotMapped) {
		t.Errorf("double Unmap: err = %v, want ErrNotMapped", err)
	}
	// Region can be remapped after unmapping.
	if err := a.Map(0x10000, PageSize, "x2"); err != nil {
		t.Errorf("remap after Unmap: %v", err)
	}
}

func TestCrossPageAccess(t *testing.T) {
	a := New()
	if err := a.Map(0x10000, 2*PageSize, "x"); err != nil {
		t.Fatal(err)
	}
	va := 0x10000 + PageSize - 4 // straddles the page boundary
	if err := a.Store64(va, 0x1122334455667788); err != nil {
		t.Fatalf("Store64 straddling: %v", err)
	}
	v, err := a.Load64(va)
	if err != nil {
		t.Fatalf("Load64 straddling: %v", err)
	}
	if v != 0x1122334455667788 {
		t.Errorf("straddling Load64 = %#x", v)
	}
}

func TestRegionAt(t *testing.T) {
	a := New()
	if err := a.Map(0x10000, PageSize, "lo"); err != nil {
		t.Fatal(err)
	}
	if err := a.Map(NVMBase, 2*PageSize, "hi"); err != nil {
		t.Fatal(err)
	}
	r, ok := a.RegionAt(NVMBase + 100)
	if !ok || r.Name != "hi" {
		t.Errorf("RegionAt(NVM) = %+v, %v; want hi", r, ok)
	}
	if _, ok := a.RegionAt(0x9000); ok {
		t.Error("RegionAt(unmapped) reported a region")
	}
	if got := len(a.Regions()); got != 2 {
		t.Errorf("len(Regions) = %d, want 2", got)
	}
}

func TestSnapshotRestore(t *testing.T) {
	a := New()
	if err := a.Map(NVMBase, 2*PageSize, "pool"); err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 16; i++ {
		if err := a.Store64(NVMBase+i*8, i*i); err != nil {
			t.Fatal(err)
		}
	}
	snap, err := a.Snapshot(NVMBase, 2*PageSize)
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	// Wipe and restore at a different base, simulating remap in a new run.
	b := New()
	newBase := NVMBase + 0x100000
	if err := b.Map(newBase, 2*PageSize, "pool"); err != nil {
		t.Fatal(err)
	}
	if err := b.Restore(newBase, snap); err != nil {
		t.Fatalf("Restore: %v", err)
	}
	for i := uint64(0); i < 16; i++ {
		v, err := b.Load64(newBase + i*8)
		if err != nil {
			t.Fatal(err)
		}
		if v != i*i {
			t.Errorf("restored word %d = %d, want %d", i, v, i*i)
		}
	}
}

func TestStore32Load32(t *testing.T) {
	a := New()
	if err := a.Map(0x10000, PageSize, "x"); err != nil {
		t.Fatal(err)
	}
	if err := a.Store32(0x10004, 0xcafebabe); err != nil {
		t.Fatal(err)
	}
	v, err := a.Load32(0x10004)
	if err != nil {
		t.Fatal(err)
	}
	if v != 0xcafebabe {
		t.Errorf("Load32 = %#x", v)
	}
}

// Property: a Store64 followed by Load64 at any mapped offset round-trips.
func TestQuickStoreLoadRoundTrip(t *testing.T) {
	a := New()
	const size = 16 * PageSize
	if err := a.Map(0x100000, size, "q"); err != nil {
		t.Fatal(err)
	}
	f := func(off uint32, v uint64) bool {
		va := 0x100000 + uint64(off)%(size-8)
		if err := a.Store64(va, v); err != nil {
			return false
		}
		got, err := a.Load64(va)
		return err == nil && got == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: writes to one region never disturb a disjoint region.
func TestQuickRegionIsolation(t *testing.T) {
	a := New()
	if err := a.Map(0x100000, PageSize, "a"); err != nil {
		t.Fatal(err)
	}
	if err := a.Map(NVMBase, PageSize, "b"); err != nil {
		t.Fatal(err)
	}
	sentinel := uint64(0x5a5a5a5a5a5a5a5a)
	if err := a.Store64(NVMBase, sentinel); err != nil {
		t.Fatal(err)
	}
	f := func(off uint16, v uint64) bool {
		va := 0x100000 + uint64(off)%(PageSize-8)
		if err := a.Store64(va, v); err != nil {
			return false
		}
		got, err := a.Load64(NVMBase)
		return err == nil && got == sentinel
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMappedAndRegionsViews(t *testing.T) {
	a := New()
	if a.Mapped(0x10000) {
		t.Error("Mapped true on empty space")
	}
	if err := a.Map(0x10000, 2*PageSize, "r"); err != nil {
		t.Fatal(err)
	}
	// Mapped must be true even before the first touch (lazy backing).
	if !a.Mapped(0x10000 + PageSize + 5) {
		t.Error("Mapped false inside a mapped region")
	}
	if a.Mapped(0x10000 + 2*PageSize) {
		t.Error("Mapped true past the region")
	}
	rs := a.Regions()
	if len(rs) != 1 || rs[0].Name != "r" || rs[0].End() != 0x10000+2*PageSize {
		t.Errorf("Regions = %+v", rs)
	}
}

// TestUnmapForgetsMemoizedPages: a page the memo holds is gone after Unmap,
// and a fresh Map of the same range reads zeroes, not the old bytes.
func TestUnmapForgetsMemoizedPages(t *testing.T) {
	a := New()
	base := uint64(0x40000)
	if err := a.Map(base, 2*PageSize, "r"); err != nil {
		t.Fatal(err)
	}
	for _, va := range []uint64{base + 8, base + PageSize + 16} {
		if err := a.Store64(va, 0xfeed); err != nil {
			t.Fatal(err)
		}
		if v, err := a.Load64(va); err != nil || v != 0xfeed { // memo warm
			t.Fatalf("Load64(%#x) = %#x, %v", va, v, err)
		}
	}
	if err := a.Unmap(base, 2*PageSize); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Load64(base + 8); !errors.Is(err, ErrUnmapped) {
		t.Errorf("Load64 after Unmap: err = %v, want ErrUnmapped", err)
	}
	if err := a.Store64(base+PageSize+16, 1); !errors.Is(err, ErrUnmapped) {
		t.Errorf("Store64 after Unmap: err = %v, want ErrUnmapped", err)
	}
	if err := a.Map(base, 2*PageSize, "r2"); err != nil {
		t.Fatal(err)
	}
	for _, va := range []uint64{base + 8, base + PageSize + 16} {
		if v, err := a.Load64(va); err != nil || v != 0 {
			t.Errorf("Load64(%#x) after remap = %#x, %v; want 0", va, v, err)
		}
	}
}

// TestMemoFollowsPageChanges: loads and stores that alternate between pages
// each reach their own page, not the memoized one.
func TestMemoFollowsPageChanges(t *testing.T) {
	a := New()
	stride := uint64(3 * PageSize)
	if err := a.Map(0, 4*stride, "r"); err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 2; round++ {
		for i := uint64(0); i < 4; i++ {
			va := i*stride + 8
			if round == 0 {
				if err := a.Store64(va, i+1); err != nil {
					t.Fatal(err)
				}
			} else if v, err := a.Load64(va); err != nil || v != i+1 {
				t.Errorf("Load64(%#x) = %d, %v; want %d", va, v, err, i+1)
			}
		}
	}
}

// TestTakeDirty: every kind of store tags the NVM pages it writes — a store
// straddling a page boundary both of them — loads and lazily backed reads
// tag nothing, DRAM stores are never tagged, and TakeDirty returns a
// range's tags in ascending page order once, leaving other ranges' tags.
func TestTakeDirty(t *testing.T) {
	a := New()
	base := NVMBase + 16*PageSize
	if err := a.Map(base, 8*PageSize, "pool"); err != nil {
		t.Fatal(err)
	}
	if err := a.Map(0x10000, 2*PageSize, "heap"); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 64)
	for _, load := range []func() error{
		func() error { _, err := a.Load8(base + 5*PageSize); return err },
		func() error { _, err := a.Load32(base + 6*PageSize - 2); return err },
		func() error { _, err := a.Load64(base + 7*PageSize + 8); return err },
		func() error { return a.ReadBytes(base+PageSize-32, buf) },
		func() error { _, err := a.Snapshot(base, 8*PageSize); return err },
	} {
		if err := load(); err != nil {
			t.Fatal(err)
		}
	}
	if err := a.Store64(0x10000, 1); err != nil { // DRAM
		t.Fatal(err)
	}
	if got := a.TakeDirty(base, 8*PageSize); len(got) != 0 {
		t.Fatalf("loads and DRAM stores tagged pages %v", got)
	}

	stores := []struct {
		name string
		do   func() error
		want []int
	}{
		{"Store8", func() error { return a.Store8(base+3*PageSize+7, 1) }, []int{3}},
		{"Store32", func() error { return a.Store32(base+PageSize+8, 1) }, []int{1}},
		{"Store32 straddling", func() error { return a.Store32(base+5*PageSize-2, 1) }, []int{4, 5}},
		{"Store64", func() error { return a.Store64(base+7*PageSize, 1) }, []int{7}},
		{"Store64 straddling", func() error { return a.Store64(base+2*PageSize-4, 1) }, []int{1, 2}},
		{"WriteBytes straddling", func() error { return a.WriteBytes(base+6*PageSize-8, buf) }, []int{5, 6}},
	}
	for _, c := range stores {
		if err := c.do(); err != nil {
			t.Fatal(err)
		}
		if got := a.TakeDirty(base, 8*PageSize); !slices.Equal(got, c.want) {
			t.Errorf("%s tagged %v, want %v", c.name, got, c.want)
		}
	}

	// Tags accumulate out of order and come back sorted, once; a narrower
	// range takes only its own.
	for _, pg := range []uint64{6, 0, 6, 2, 5} {
		if err := a.Store8(base+pg*PageSize, 9); err != nil {
			t.Fatal(err)
		}
	}
	if got := a.TakeDirty(base+2*PageSize, 4*PageSize); !slices.Equal(got, []int{0, 3}) {
		t.Errorf("TakeDirty of pages 2..5 = %v, want [0 3] (pages 2 and 5)", got)
	}
	if got := a.TakeDirty(base, 8*PageSize); !slices.Equal(got, []int{0, 6}) {
		t.Errorf("TakeDirty after a partial take = %v, want [0 6]", got)
	}
	if got := a.TakeDirty(base, 8*PageSize); len(got) != 0 {
		t.Errorf("second TakeDirty = %v, want none", got)
	}
}

// TestRestoreAndUnmapClearTags: Restore leaves the restored pages untagged,
// tags set before it included, and Unmap drops the tags of the pages it
// discards, so a fresh mapping of the range starts clean.
func TestRestoreAndUnmapClearTags(t *testing.T) {
	a := New()
	base := NVMBase + 16*PageSize
	if err := a.Map(base, 4*PageSize, "pool"); err != nil {
		t.Fatal(err)
	}
	if err := a.Store64(base+3*PageSize, 1); err != nil {
		t.Fatal(err)
	}
	if err := a.Restore(base, make([]byte, 4*PageSize)); err != nil {
		t.Fatal(err)
	}
	if got := a.TakeDirty(base, 4*PageSize); len(got) != 0 {
		t.Errorf("tags after Restore: %v", got)
	}
	if err := a.Store64(base+PageSize, 1); err != nil {
		t.Fatal(err)
	}
	if err := a.Unmap(base, 4*PageSize); err != nil {
		t.Fatal(err)
	}
	if err := a.Map(base, 4*PageSize, "pool"); err != nil {
		t.Fatal(err)
	}
	if got := a.TakeDirty(base, 4*PageSize); len(got) != 0 {
		t.Errorf("tags after Unmap and a fresh Map: %v", got)
	}
	if err := a.Store64(base+PageSize, 1); err != nil { // the page is untagged, so it tags again
		t.Fatal(err)
	}
	if got := a.TakeDirty(base, 4*PageSize); !slices.Equal(got, []int{1}) {
		t.Errorf("TakeDirty after remap and store = %v, want [1]", got)
	}
}

// BenchmarkLoad64 times one aligned 64-bit load over a working set of
// pages: one page (every load hits the memo) and 256 pages (each load is on
// another page than the last, so every one takes the page map).
func BenchmarkLoad64(b *testing.B) {
	for _, pages := range []uint64{1, 256} {
		b.Run(fmt.Sprintf("pages=%d", pages), func(b *testing.B) {
			a := New()
			if err := a.Map(NVMBase, pages*PageSize, "bench"); err != nil {
				b.Fatal(err)
			}
			mask := pages*PageSize - 1
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				va := NVMBase + uint64(i)*4104&mask&^7
				if _, err := a.Load64(va); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkStore64 is BenchmarkLoad64 for stores to NVM pages, which tag
// the page they write: one page (every store finds it tagged already) and
// 256 pages (every store takes the page map; TakeDirty clears the tags
// between rounds, so the first store of a round tags again).
func BenchmarkStore64(b *testing.B) {
	for _, pages := range []uint64{1, 256} {
		b.Run(fmt.Sprintf("pages=%d", pages), func(b *testing.B) {
			a := New()
			if err := a.Map(NVMBase, pages*PageSize, "bench"); err != nil {
				b.Fatal(err)
			}
			mask := pages*PageSize - 1
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				va := NVMBase + uint64(i)*4104&mask&^7
				if err := a.Store64(va, uint64(i)); err != nil {
					b.Fatal(err)
				}
				if i&4095 == 4095 {
					a.TakeDirty(NVMBase, pages*PageSize)
				}
			}
		})
	}
}

// refSpace is the address space written the plain way, the model the page
// table is checked against: regions in a slice, backing pages in a map
// keyed by page base, dirty tags in a set, and every access page by page.
type refSpace struct {
	regions []Region
	pages   map[uint64]*[PageSize]byte
	dirty   map[uint64]bool
}

// regionOf returns the base of the region holding va, or AddressLimit.
func (r *refSpace) regionOf(va uint64) uint64 {
	for _, rg := range r.regions {
		if rg.contains(va) {
			return rg.Base
		}
	}
	return AddressLimit
}

func (r *refSpace) mapped(va uint64) bool { return r.regionOf(va) != AddressLimit }

func (r *refSpace) Map(base, size uint64) error {
	for _, rg := range r.regions {
		if base < rg.End() && rg.Base < base+size {
			return ErrOverlap
		}
	}
	r.regions = append(r.regions, Region{Base: base, Size: size})
	return nil
}

func (r *refSpace) Unmap(base, size uint64) error {
	for i, rg := range r.regions {
		if rg.Base == base && rg.Size == size {
			r.regions = slices.Delete(r.regions, i, i+1)
			for pb := range r.pages {
				if pb >= base && pb < base+size {
					delete(r.pages, pb)
					delete(r.dirty, pb)
				}
			}
			return nil
		}
	}
	return ErrNotMapped
}

// access reads into or writes from buf at va, a page at a time: a write
// that reaches an unmapped page has written the pages before it.
func (r *refSpace) access(va uint64, buf []byte, write bool) error {
	n := uint64(len(buf))
	if va >= AddressLimit || va+n > AddressLimit || va+n < va {
		return ErrOutOfRange
	}
	for done := uint64(0); done < n; {
		if !r.mapped(va) {
			return ErrUnmapped
		}
		pb, off := va&^(PageSize-1), va%PageSize
		p := r.pages[pb]
		if p == nil {
			p = new([PageSize]byte)
			r.pages[pb] = p
		}
		c := min(n-done, PageSize-off)
		if write {
			copy(p[off:off+c], buf[done:done+c])
			if IsNVM(va) {
				r.dirty[pb] = true
			}
		} else {
			copy(buf[done:done+c], p[off:off+c])
		}
		done += c
		va += c
	}
	return nil
}

func (r *refSpace) TakeDirty(base, size uint64) []int {
	var taken []int
	for pb := range r.dirty {
		if pb >= base && pb-base < size {
			delete(r.dirty, pb)
			taken = append(taken, int((pb-base)/PageSize))
		}
	}
	slices.Sort(taken)
	return taken
}

// errClass reduces an error to the sentinel it wraps.
func errClass(err error) error {
	for _, e := range []error{ErrUnmapped, ErrOutOfRange, ErrOverlap, ErrBadRegion, ErrNotMapped} {
		if errors.Is(err, e) {
			return e
		}
	}
	return err
}

// TestPageTableMatchesReference replays random Map, Unmap, Load64,
// Store64, ReadBytes, WriteBytes, TakeDirty and Restore sequences against
// refSpace and requires equal values, equal errors and equal dirty sets.
// The candidate regions are adjacent ones, ones with a gap between them, a
// region wider than one page-table chunk, and two regions of different
// sizes at one base, so the same base is mapped again after an Unmap. The
// test also requires that the sequences reached the cases no other test
// covers: an access straddling two regions, ErrUnmapped in a gap, and a
// base mapped again after it was written and unmapped.
func TestPageTableMatchesReference(t *testing.T) {
	const lo, hi = uint64(0x100000), NVMBase + 16*PageSize
	cands := []Region{
		{Base: lo, Size: 3 * PageSize},
		{Base: lo + 3*PageSize, Size: 2 * PageSize}, // adjacent to the first
		{Base: lo + 8*PageSize, Size: 4 * PageSize}, // after a 3-page gap
		{Base: hi, Size: (chunkPages + 8) * PageSize},
		{Base: hi + (chunkPages+8)*PageSize, Size: 2 * PageSize}, // adjacent
		{Base: hi, Size: 8 * PageSize},                           // the same base, smaller
	}
	// Addresses fall around the candidates' edges, where regions, chunks
	// and pages meet.
	var edges []uint64
	for _, c := range cands {
		edges = append(edges, c.Base, c.End(), c.Base+chunkPages*PageSize)
	}
	edges = append(edges, lo+6*PageSize, AddressLimit) // inside the gap; past the space
	var straddles, gapMisses, remaps int
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		a, ref := New(), &refSpace{pages: map[uint64]*[PageSize]byte{}, dirty: map[uint64]bool{}}
		written := map[uint64]bool{} // bases of regions written, then unmapped
		addr := func() uint64 {
			e := edges[rng.Intn(len(edges))]
			return e + uint64(rng.Intn(64)) - 32 + uint64(rng.Intn(3))*PageSize
		}
		for i := 0; i < 2000; i++ {
			var got, want error
			switch k := rng.Intn(100); {
			case k < 6:
				c := cands[rng.Intn(len(cands))]
				got, want = a.Map(c.Base, c.Size, "r"), ref.Map(c.Base, c.Size)
				if got == nil && written[c.Base] {
					remaps++
					delete(written, c.Base)
				}
			case k < 10:
				c := cands[rng.Intn(len(cands))]
				touched := false
				for pb := range ref.pages {
					touched = touched || c.contains(pb)
				}
				got, want = a.Unmap(c.Base, c.Size), ref.Unmap(c.Base, c.Size)
				if want == nil && touched {
					written[c.Base] = true
				}
			case k < 35:
				va := addr()
				v, err := a.Load64(va)
				var buf [8]byte
				got, want = err, ref.access(va, buf[:], false)
				if want == nil && v != binary.LittleEndian.Uint64(buf[:]) {
					t.Fatalf("seed %d op %d: Load64(%#x) = %#x, want %#x", seed, i, va, v, binary.LittleEndian.Uint64(buf[:]))
				}
				if want == ErrUnmapped && va > lo+5*PageSize && va < lo+8*PageSize {
					gapMisses++
				}
			case k < 60:
				va, v := addr(), rng.Uint64()
				var buf [8]byte
				binary.LittleEndian.PutUint64(buf[:], v)
				got, want = a.Store64(va, v), ref.access(va, buf[:], true)
				if want == nil && ref.regionOf(va) != ref.regionOf(va+7) {
					straddles++
				}
			case k < 70:
				va, buf := addr(), make([]byte, rng.Intn(3*int(PageSize)))
				rng.Read(buf)
				got, want = a.WriteBytes(va, buf), ref.access(va, buf, true)
			case k < 80:
				va, n := addr(), rng.Intn(3*int(PageSize))
				gb, wb := make([]byte, n), make([]byte, n)
				got, want = a.ReadBytes(va, gb), ref.access(va, wb, false)
				if want == nil && !bytes.Equal(gb, wb) {
					t.Fatalf("seed %d op %d: ReadBytes(%#x, %d) differs", seed, i, va, n)
				}
			case k < 92:
				c := cands[rng.Intn(len(cands))]
				if g, w := a.TakeDirty(c.Base, c.Size), ref.TakeDirty(c.Base, c.Size); !slices.Equal(g, w) {
					t.Fatalf("seed %d op %d: TakeDirty(%#x) = %v, want %v", seed, i, c.Base, g, w)
				}
			default:
				c := cands[rng.Intn(len(cands))]
				data := make([]byte, int(PageSize)*(1+rng.Intn(3)))
				rng.Read(data)
				got = a.Restore(c.Base, data)
				if want = ref.access(c.Base, data, true); want == nil {
					ref.TakeDirty(c.Base, uint64(len(data)))
				}
			}
			if errClass(got) != want {
				t.Fatalf("seed %d op %d: error %v, want %v", seed, i, got, want)
			}
		}
		// Every region still mapped reads back equal, page for page.
		for _, r := range ref.regions {
			g, err := a.Snapshot(r.Base, r.Size)
			w := make([]byte, r.Size)
			if err != nil || ref.access(r.Base, w, false) != nil || !bytes.Equal(g, w) {
				t.Fatalf("seed %d: region %#x differs at the end (%v)", seed, r.Base, err)
			}
		}
	}
	t.Logf("straddles %d, gap misses %d, remaps after a write %d", straddles, gapMisses, remaps)
	if straddles == 0 || gapMisses == 0 || remaps == 0 {
		t.Errorf("a case went unexercised: straddles %d, gap misses %d, remaps %d", straddles, gapMisses, remaps)
	}
}
