// Package mem simulates a 48-bit process virtual address space of the kind
// the paper assumes: the space is split into two equal halves, with the half
// below bit 47 dedicated to DRAM pages and the half above dedicated to NVM
// pages. Given a virtual address, callers can determine whether it refers to
// NVM by checking bit 47, without any translation to physical addresses.
//
// The space is sparse: regions must be mapped before use, and loads or
// stores to unmapped addresses fail with ErrUnmapped, which stands in for a
// hardware page fault in the simulation.
package mem

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"sort"
)

// Address-space geometry constants.
const (
	// AddressBits is the number of meaningful bits in a virtual address.
	AddressBits = 48
	// AddressLimit is one past the highest valid virtual address.
	AddressLimit = uint64(1) << AddressBits
	// NVMBit is the bit that selects the NVM half of the address space.
	NVMBit = uint64(1) << 47
	// DRAMBase is the lowest DRAM virtual address. Address zero itself is
	// kept unmapped so that a zero pointer is always an invalid (null)
	// reference, as in a conventional process.
	DRAMBase = uint64(0)
	// NVMBase is the lowest NVM virtual address.
	NVMBase = NVMBit
	// PageSize is the granularity of the simulated backing store.
	PageSize = uint64(4096)
)

// Errors reported by the address space.
var (
	ErrUnmapped   = errors.New("mem: access to unmapped virtual address")
	ErrOutOfRange = errors.New("mem: virtual address beyond 48-bit space")
	ErrOverlap    = errors.New("mem: mapping overlaps an existing region")
	ErrBadRegion  = errors.New("mem: malformed region")
	ErrNotMapped  = errors.New("mem: region is not mapped")
)

// IsNVM reports whether va lies in the NVM half of the address space.
// This is the paper's "check bit 47" test.
func IsNVM(va uint64) bool { return va&NVMBit != 0 }

// Region describes one mapped virtual address range.
type Region struct {
	Base uint64
	Size uint64
	Name string
}

// End returns one past the last address of the region.
func (r Region) End() uint64 { return r.Base + r.Size }

func (r Region) contains(va uint64) bool { return va >= r.Base && va < r.End() }

// AddressSpace is a sparse simulated 48-bit virtual address space.
// The zero value is an empty one, the same as New returns.
//
// An AddressSpace is used by one goroutine at a time. Reads are no
// exception: a load backs its page on first touch and memoizes the page
// it used.
//
// Every store to an NVM page tags it dirty, and TakeDirty hands the tags
// to whoever persists the pages (a pool checkpoint), so that it visits
// only the pages written since it last did — FliT's tag-on-store, with
// one tag per page. Loads never tag.
type AddressSpace struct {
	maps []*mapping // sorted by Base
	// last is the mapping the previous lookup used, so a run of lookups in
	// one region skips the search. nil means none; Unmap clears it.
	last *mapping
	// dirty holds the base of every tagged page, in the order the tags
	// were set; a page is in it exactly when its dirty flag is set.
	dirty []uint64
	// lastPage is the page at lastBase, the one the previous access used,
	// and lastBytes its backing, so a run of accesses to one page skips the
	// page table. nil means none; Unmap clears them.
	lastBase  uint64
	lastBytes *[PageSize]byte
	lastPage  *page
}

// chunkPages is how many pages one chunk of a page table covers (2 MiB).
const chunkPages = 512

// mapping is one mapped region and its page table: a directory with one
// slot per chunkPages pages of the region, each chunk allocated on the
// first touch of one of its pages. The directory costs 8 bytes per 2 MiB
// mapped.
type mapping struct {
	Region
	dir []*chunk
}

// chunk is one page-table chunk; an entry with nil bytes is a page not
// yet touched.
type chunk [chunkPages]page

// page is one backing page and its dirty tag. The bytes are an allocation
// of their own: with the flag beside them they would take the next,
// 4864-byte, size class.
type page struct {
	b     *[PageSize]byte
	dirty bool
}

// entry returns the page-table entry of va, which m contains, allocating
// its chunk on first touch.
func (m *mapping) entry(va uint64) *page {
	i := (va - m.Base) / PageSize
	c := m.dir[i/chunkPages]
	if c == nil {
		c = new(chunk)
		m.dir[i/chunkPages] = c
	}
	return &c[i%chunkPages]
}

// New returns an empty address space with no mappings.
func New() *AddressSpace {
	return &AddressSpace{}
}

// Map reserves [base, base+size) and backs it with zeroed pages. Both base
// and size must be page aligned, the range must stay within the 48-bit
// space, and it must not overlap an existing mapping.
func (a *AddressSpace) Map(base, size uint64, name string) error {
	if size == 0 || base%PageSize != 0 || size%PageSize != 0 {
		return fmt.Errorf("%w: base=%#x size=%#x", ErrBadRegion, base, size)
	}
	if base >= AddressLimit || base+size > AddressLimit || base+size < base {
		return fmt.Errorf("%w: base=%#x size=%#x", ErrOutOfRange, base, size)
	}
	nr := Region{Base: base, Size: size, Name: name}
	for _, m := range a.maps {
		if nr.Base < m.End() && m.Base < nr.End() {
			return fmt.Errorf("%w: new [%#x,%#x) existing %q [%#x,%#x)",
				ErrOverlap, nr.Base, nr.End(), m.Name, m.Base, m.End())
		}
	}
	chunks := (size/PageSize + chunkPages - 1) / chunkPages
	i := sort.Search(len(a.maps), func(i int) bool { return a.maps[i].Base > base })
	a.maps = slices.Insert(a.maps, i, &mapping{Region: nr, dir: make([]*chunk, chunks)})
	return nil
}

// Unmap removes the region previously mapped at exactly base with exactly
// size bytes and discards its backing pages.
func (a *AddressSpace) Unmap(base, size uint64) error {
	for i, m := range a.maps {
		if m.Base == base && m.Size == size {
			a.TakeDirty(base, size)
			a.maps = slices.Delete(a.maps, i, i+1)
			a.last, a.lastBytes, a.lastPage = nil, nil, nil
			return nil
		}
	}
	return fmt.Errorf("%w: [%#x,%#x)", ErrNotMapped, base, base+size)
}

// Mapped reports whether va lies inside a mapped region.
func (a *AddressSpace) Mapped(va uint64) bool {
	_, ok := a.RegionAt(va)
	return ok
}

// RegionAt returns the region containing va, if any.
func (a *AddressSpace) RegionAt(va uint64) (Region, bool) {
	if m := a.find(va); m != nil {
		return m.Region, true
	}
	return Region{}, false
}

// find returns the mapping containing va, or nil.
func (a *AddressSpace) find(va uint64) *mapping {
	i := sort.Search(len(a.maps), func(i int) bool { return a.maps[i].End() > va })
	if i < len(a.maps) && a.maps[i].contains(va) {
		return a.maps[i]
	}
	return nil
}

// Regions returns a copy of the mapped regions, sorted by base address.
func (a *AddressSpace) Regions() []Region {
	out := make([]Region, len(a.maps))
	for i, m := range a.maps {
		out[i] = m.Region
	}
	return out
}

// page returns the backing bytes for va, or nil if unmapped. Backing is
// allocated lazily on first touch, so mapping a large region is cheap.
func (a *AddressSpace) page(va uint64) *[PageSize]byte {
	if a.lastBytes != nil && a.lastBase == va&^(PageSize-1) {
		return a.lastBytes
	}
	return a.lookup(va)
}

// lookup is page past the memo: it finds (or backs) the page in its
// region's page table and makes it the memo.
func (a *AddressSpace) lookup(va uint64) *[PageSize]byte {
	m := a.last
	if m == nil || va-m.Base >= m.Size {
		if m = a.find(va); m == nil {
			return nil
		}
		a.last = m
	}
	p := m.entry(va)
	if p.b == nil {
		p.b = new([PageSize]byte)
	}
	a.lastBase, a.lastBytes, a.lastPage = va&^(PageSize-1), p.b, p
	return p.b
}

// written is page for a store: it also tags the page when it is an NVM
// page.
func (a *AddressSpace) written(va uint64) *[PageSize]byte {
	b := a.page(va)
	if b != nil && !a.lastPage.dirty && IsNVM(va) {
		a.lastPage.dirty = true
		a.dirty = append(a.dirty, a.lastBase)
	}
	return b
}

// TakeDirty returns the pages of [base, base+size) tagged by a store since
// they were last taken, as ascending page indices counted from base, and
// clears their tags. base must be page aligned.
func (a *AddressSpace) TakeDirty(base, size uint64) []int {
	var taken []int
	keep := a.dirty[:0]
	for _, pb := range a.dirty {
		if pb >= base && pb-base < size {
			a.find(pb).entry(pb).dirty = false
			taken = append(taken, int((pb-base)/PageSize))
		} else {
			keep = append(keep, pb)
		}
	}
	a.dirty = keep
	slices.Sort(taken)
	return taken
}

// checkRange validates that an access of size bytes at va stays inside the
// 48-bit space.
func checkRange(va uint64, size uint64) error {
	if va >= AddressLimit || va+size > AddressLimit || va+size < va {
		return fmt.Errorf("%w: %#x", ErrOutOfRange, va)
	}
	return nil
}

// Load8 reads one byte at va.
func (a *AddressSpace) Load8(va uint64) (byte, error) {
	if va >= AddressLimit {
		return 0, fmt.Errorf("%w: %#x", ErrOutOfRange, va)
	}
	p := a.page(va)
	if p == nil {
		return 0, fmt.Errorf("%w: %#x", ErrUnmapped, va)
	}
	return p[va%PageSize], nil
}

// Store8 writes one byte at va.
func (a *AddressSpace) Store8(va uint64, v byte) error {
	if va >= AddressLimit {
		return fmt.Errorf("%w: %#x", ErrOutOfRange, va)
	}
	p := a.written(va)
	if p == nil {
		return fmt.Errorf("%w: %#x", ErrUnmapped, va)
	}
	p[va%PageSize] = v
	return nil
}

// The word accessors below take the in-page fast path before any range
// check: a page that resolves is mapped, so it lies inside the 48-bit space,
// and an in-page access cannot leave it. Everything else goes through
// ReadBytes or WriteBytes, which check the range and report an unmapped
// page.

// Load64 reads a little-endian 64-bit word at va. The access may straddle a
// page boundary; both pages must be mapped.
func (a *AddressSpace) Load64(va uint64) (uint64, error) {
	if off := va % PageSize; off <= PageSize-8 {
		if p := a.page(va); p != nil {
			return binary.LittleEndian.Uint64(p[off : off+8]), nil
		}
	}
	var buf [8]byte
	if err := a.ReadBytes(va, buf[:]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(buf[:]), nil
}

// Store64 writes a little-endian 64-bit word at va.
func (a *AddressSpace) Store64(va uint64, v uint64) error {
	if off := va % PageSize; off <= PageSize-8 {
		if p := a.written(va); p != nil {
			binary.LittleEndian.PutUint64(p[off:off+8], v)
			return nil
		}
	}
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], v)
	return a.WriteBytes(va, buf[:])
}

// Load32 reads a little-endian 32-bit word at va.
func (a *AddressSpace) Load32(va uint64) (uint32, error) {
	if off := va % PageSize; off <= PageSize-4 {
		if p := a.page(va); p != nil {
			return binary.LittleEndian.Uint32(p[off : off+4]), nil
		}
	}
	var buf [4]byte
	if err := a.ReadBytes(va, buf[:]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(buf[:]), nil
}

// Store32 writes a little-endian 32-bit word at va.
func (a *AddressSpace) Store32(va uint64, v uint32) error {
	if off := va % PageSize; off <= PageSize-4 {
		if p := a.written(va); p != nil {
			binary.LittleEndian.PutUint32(p[off:off+4], v)
			return nil
		}
	}
	var buf [4]byte
	binary.LittleEndian.PutUint32(buf[:], v)
	return a.WriteBytes(va, buf[:])
}

// ReadBytes fills dst from memory starting at va.
func (a *AddressSpace) ReadBytes(va uint64, dst []byte) error {
	if err := checkRange(va, uint64(len(dst))); err != nil {
		return err
	}
	for n := 0; n < len(dst); {
		p := a.page(va)
		if p == nil {
			return fmt.Errorf("%w: %#x", ErrUnmapped, va)
		}
		off := va % PageSize
		c := copy(dst[n:], p[off:])
		n += c
		va += uint64(c)
	}
	return nil
}

// WriteBytes copies src into memory starting at va.
func (a *AddressSpace) WriteBytes(va uint64, src []byte) error {
	if err := checkRange(va, uint64(len(src))); err != nil {
		return err
	}
	for n := 0; n < len(src); {
		p := a.written(va)
		if p == nil {
			return fmt.Errorf("%w: %#x", ErrUnmapped, va)
		}
		off := va % PageSize
		c := copy(p[off:], src[n:])
		n += c
		va += uint64(c)
	}
	return nil
}

// Snapshot copies out [base, base+size) as a byte slice. Used by the pool
// layer to persist pool contents.
func (a *AddressSpace) Snapshot(base, size uint64) ([]byte, error) {
	out := make([]byte, size)
	if err := a.ReadBytes(base, out); err != nil {
		return nil, err
	}
	return out, nil
}

// Restore writes data back into memory at base, which must be mapped and
// page aligned. The restored pages hold what was persisted, so Restore
// leaves none of them tagged.
func (a *AddressSpace) Restore(base uint64, data []byte) error {
	if err := a.WriteBytes(base, data); err != nil {
		return err
	}
	a.TakeDirty(base, uint64(len(data)))
	return nil
}
