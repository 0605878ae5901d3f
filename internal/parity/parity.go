// Package parity is the media-fault-tolerance layer under pmem.
//
// A pool image is divided into fixed-size pages; each page carries a CRC32
// checksum, and every rangelet of N consecutive data pages shares one XOR
// parity page (the Pangolin layout). The checksum localizes a corrupted
// page; XOR-ing the rangelet's surviving pages with the parity page
// reconstructs it. One bad page per rangelet is recoverable; corruption
// that hits two pages of the same rangelet — including a data page and its
// parity page together — is reported as an explicit unrecoverable overlap.
//
// Parity is maintained incrementally: on flush the caller hands over the
// previous image, the list of pages whose bytes changed (Dirty) and the new
// image's checksum, and only those pages are folded into their rangelet's
// parity via old XOR new, so write amplification stays bounded by
// ceil(dirty pages / rangelet) extra parity-page writes rather than a
// full-image rebuild.
//
// The whole table — geometry, per-page CRCs, parity pages — serializes
// into a self-checksummed sidecar blob stored next to the pool image. The
// sidecar records the CRC64 of the image it describes, so a sidecar left
// stale by a crash between the data flush and the parity flush is detected
// and never used for repair.
package parity

import (
	"bytes"
	"crypto/subtle"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"hash/crc64"
	"strings"
)

const (
	// DefaultPageSize is the repair granule. 4 KiB matches both the
	// pool mapping granule (mem.PageSize) and real PM media ECC blocks.
	DefaultPageSize = 4096
	// DefaultRangeletPages is the number of data pages sharing one
	// parity page: 1/8 space overhead, single-page reconstruction.
	DefaultRangeletPages = 8

	// SidecarSuffix marks a stored image as a parity sidecar rather
	// than a pool. '@' cannot appear in user pool names in practice and
	// keeps sidecars adjacent to their pool in sorted listings.
	SidecarSuffix = "@parity"

	sidecarMagic = "NVPARSC1"
)

var crc64Table = crc64.MakeTable(crc64.ECMA)

// Policy says whether and how parity is maintained for a registry's pools.
// The zero value disables parity entirely.
type Policy struct {
	Enabled       bool
	PageSize      int // repair granule in bytes; DefaultPageSize if 0
	RangeletPages int // data pages per parity page; DefaultRangeletPages if 0
}

// Default returns the standard enabled policy: 4 KiB pages, 8-page rangelets.
func Default() Policy {
	return Policy{Enabled: true, PageSize: DefaultPageSize, RangeletPages: DefaultRangeletPages}
}

func (p Policy) normalized() Policy {
	if p.PageSize <= 0 {
		p.PageSize = DefaultPageSize
	}
	if p.RangeletPages <= 0 {
		p.RangeletPages = DefaultRangeletPages
	}
	return p
}

// PageBytes returns the repair granule in bytes.
func (p Policy) PageBytes() int { return p.normalized().PageSize }

// PagesFor returns how many data pages an image of the given size spans.
func (p Policy) PagesFor(size int) int {
	p = p.normalized()
	return (size + p.PageSize - 1) / p.PageSize
}

// SidecarName returns the store image name holding the parity sidecar for
// the named pool.
func SidecarName(pool string) string { return pool + SidecarSuffix }

// IsSidecar reports whether a stored image name is a parity sidecar.
func IsSidecar(name string) bool { return strings.HasSuffix(name, SidecarSuffix) }

// PoolName maps a sidecar image name back to its pool; ok is false when
// the name is not a sidecar.
func PoolName(sidecar string) (pool string, ok bool) {
	if !IsSidecar(sidecar) {
		return "", false
	}
	return strings.TrimSuffix(sidecar, SidecarSuffix), true
}

// ImageSum is the checksum a sidecar records for the image it describes.
// It matches pmem's whole-image checksum (CRC64/ECMA) so staleness checks
// compare directly against the image's stored metadata.
func ImageSum(data []byte) uint64 { return crc64.Checksum(data, crc64Table) }

// Sidecar is the in-memory parity table for one pool image.
type Sidecar struct {
	PageSize      int
	RangeletPages int
	ImageSize     int      // length of the described image in bytes
	Image         uint64   // ImageSum of the described image (staleness check)
	CRCs          []uint32 // per data page
	ParityCRCs    []uint32 // per parity page (self-check: parity can rot too)
	Parity        [][]byte // one PageSize buffer per rangelet
}

// UpdateStats reports the cost of one incremental Fold; the ratio
// ParityPageWrites/DirtyPages is the parity write amplification.
type UpdateStats struct {
	Rebuilt          bool // geometry changed; full rebuild instead of delta
	DirtyPages       int  // data pages whose bytes changed
	ParityPageWrites int  // parity pages rewritten (distinct rangelets touched)
}

// Report is the outcome of one Repair pass over an image.
type Report struct {
	BadPages      []int     // data pages that failed their CRC (all of them, one pass)
	BadParity     []int     // parity pages that failed their own CRC
	Repaired      []int     // data pages reconstructed from parity
	ParityRebuilt []int     // parity pages recomputed from intact data
	Unrecoverable []Overlap // rangelets where corruption exceeds parity's reach
}

// Overlap describes a rangelet that parity cannot repair: either two or
// more data pages are bad, or a bad data page overlaps a bad parity page.
type Overlap struct {
	Rangelet  int   // rangelet index
	BadPages  []int // corrupt data pages in the rangelet
	ParityBad bool  // the rangelet's parity page is corrupt too
}

func (o Overlap) String() string {
	if o.ParityBad {
		return fmt.Sprintf("rangelet %d: data pages %v and parity page both corrupt", o.Rangelet, o.BadPages)
	}
	return fmt.Sprintf("rangelet %d: %d data pages corrupt %v", o.Rangelet, len(o.BadPages), o.BadPages)
}

// Recovered reports whether the pass left the image fully consistent.
func (r *Report) Recovered() bool { return r != nil && len(r.Unrecoverable) == 0 }

func (s *Sidecar) policy() Policy {
	return Policy{Enabled: true, PageSize: s.PageSize, RangeletPages: s.RangeletPages}
}

// Pages returns the number of data pages the sidecar covers.
func (s *Sidecar) Pages() int { return len(s.CRCs) }

// Rangelets returns the number of parity pages the sidecar maintains.
func (s *Sidecar) Rangelets() int { return len(s.Parity) }

// Describes reports whether the sidecar was built against an image with
// the given checksum and size — the staleness check.
func (s *Sidecar) Describes(sum uint64, size int) bool {
	return s != nil && s.Image == sum && s.ImageSize == size
}

// page returns the i'th page of data, zero-padded to PageSize when the
// image does not divide evenly. padded is true when a copy was made.
func (s *Sidecar) page(data []byte, i int) (pg []byte, padded bool) {
	lo := i * s.PageSize
	hi := lo + s.PageSize
	if hi <= len(data) {
		return data[lo:hi], false
	}
	buf := make([]byte, s.PageSize)
	copy(buf, data[lo:])
	return buf, true
}

func xorInto(dst, src []byte) { subtle.XORBytes(dst, dst, src) }

// Build computes a full parity table for data under the given policy.
func Build(data []byte, pol Policy) *Sidecar {
	pol = pol.normalized()
	nPages := pol.PagesFor(len(data))
	nRange := (nPages + pol.RangeletPages - 1) / pol.RangeletPages
	s := &Sidecar{
		PageSize:      pol.PageSize,
		RangeletPages: pol.RangeletPages,
		ImageSize:     len(data),
		Image:         ImageSum(data),
		CRCs:          make([]uint32, nPages),
		ParityCRCs:    make([]uint32, nRange),
		Parity:        make([][]byte, nRange),
	}
	for r := range s.Parity {
		s.Parity[r] = make([]byte, pol.PageSize)
	}
	for i := 0; i < nPages; i++ {
		pg, _ := s.page(data, i)
		s.CRCs[i] = crc32.ChecksumIEEE(pg)
		xorInto(s.Parity[i/pol.RangeletPages], pg)
	}
	for r := range s.Parity {
		s.ParityCRCs[r] = crc32.ChecksumIEEE(s.Parity[r])
	}
	return s
}

// Dirty lists, in ascending order, the pages of pageSize bytes (the last
// one possibly short) in which old and next differ by exact byte comparison
// — the one definition of a changed page that both the image checksum and
// the parity delta work from. old and next must be the same length.
func Dirty(old, next []byte, pageSize int) []int {
	var dirty []int
	for i, lo := 0, 0; lo < len(next); i, lo = i+1, lo+pageSize {
		hi := min(lo+pageSize, len(next))
		if !bytes.Equal(old[lo:hi], next[lo:hi]) {
			dirty = append(dirty, i)
		}
	}
	return dirty
}

// Fold moves the table from old, the image it currently describes, to next,
// whose ImageSum is sum. dirty must list, in ascending order, every page in
// which the two differ (Dirty); only those pages are XOR-ed (old then new)
// into their rangelet's parity page and re-checksummed. If the image size
// changed the table is rebuilt from next instead.
func (s *Sidecar) Fold(old, next []byte, dirty []int, sum uint64) UpdateStats {
	if len(old) != s.ImageSize || len(next) != s.ImageSize {
		*s = *Build(next, s.policy())
		return UpdateStats{Rebuilt: true}
	}
	st := UpdateStats{DirtyPages: len(dirty)}
	for _, i := range dirty {
		lo, hi := i*s.PageSize, min((i+1)*s.PageSize, len(next))
		r := i / s.RangeletPages
		// A short last page XORs only its bytes: the same as its zero padding.
		xorInto(s.Parity[r], old[lo:hi])
		xorInto(s.Parity[r], next[lo:hi])
		pg, _ := s.page(next, i)
		s.CRCs[i] = crc32.ChecksumIEEE(pg)
	}
	prev := -1
	for _, i := range dirty {
		if r := i / s.RangeletPages; r != prev {
			s.ParityCRCs[r] = crc32.ChecksumIEEE(s.Parity[r])
			st.ParityPageWrites++
			prev = r
		}
	}
	s.Image = sum
	return st
}

// Update is Fold for a caller holding only the two images: the dirty pages
// are found by byte comparison and next's checksum is computed in full.
func (s *Sidecar) Update(old, next []byte) UpdateStats {
	var dirty []int
	if len(old) == s.ImageSize && len(next) == s.ImageSize {
		dirty = Dirty(old, next, s.PageSize)
	}
	return s.Fold(old, next, dirty, ImageSum(next))
}

// Verify enumerates every data page whose checksum no longer matches —
// all bad regions in one pass, so a repair decision can be made per
// rangelet instead of stopping at the first mismatch. data shorter than
// ImageSize (a torn image) is treated as zero-extended.
func (s *Sidecar) Verify(data []byte) []int {
	var bad []int
	for i := range s.CRCs {
		pg := s.verifyPage(data, i)
		if crc32.ChecksumIEEE(pg) != s.CRCs[i] {
			bad = append(bad, i)
		}
	}
	return bad
}

// verifyPage is like page but tolerates data shorter than ImageSize.
func (s *Sidecar) verifyPage(data []byte, i int) []byte {
	lo := i * s.PageSize
	hi := lo + s.PageSize
	if hi <= len(data) {
		return data[lo:hi]
	}
	buf := make([]byte, s.PageSize)
	if lo < len(data) {
		copy(buf, data[lo:])
	}
	return buf
}

// BadParity enumerates parity pages that fail their own checksum.
func (s *Sidecar) BadParity() []int {
	var bad []int
	for r := range s.Parity {
		if crc32.ChecksumIEEE(s.Parity[r]) != s.ParityCRCs[r] {
			bad = append(bad, r)
		}
	}
	return bad
}

// Repair verifies data against the sidecar and reconstructs what parity
// can reach, in place. data must be ImageSize long (the caller normalizes
// torn images by zero-extension). Per rangelet:
//
//   - one bad data page, parity intact  -> reconstruct the page by XOR
//   - no bad data, parity bad           -> recompute the parity page
//   - anything more                     -> unrecoverable overlap, reported
//
// After reconstruction each repaired page is re-checked against its
// stored CRC; a mismatch (parity silently stale) demotes the rangelet to
// unrecoverable rather than writing garbage.
func (s *Sidecar) Repair(data []byte) *Report {
	rep := &Report{
		BadPages:  s.Verify(data),
		BadParity: s.BadParity(),
	}
	parityBad := make(map[int]bool, len(rep.BadParity))
	for _, r := range rep.BadParity {
		parityBad[r] = true
	}
	byRangelet := make(map[int][]int)
	for _, i := range rep.BadPages {
		r := i / s.RangeletPages
		byRangelet[r] = append(byRangelet[r], i)
	}

	for r := 0; r < s.Rangelets(); r++ {
		bad := byRangelet[r]
		switch {
		case len(bad) == 0 && !parityBad[r]:
			// clean rangelet
		case len(bad) == 0 && parityBad[r]:
			s.rebuildParity(data, r)
			rep.ParityRebuilt = append(rep.ParityRebuilt, r)
		case len(bad) == 1 && !parityBad[r]:
			if s.reconstruct(data, bad[0]) {
				rep.Repaired = append(rep.Repaired, bad[0])
			} else {
				rep.Unrecoverable = append(rep.Unrecoverable, Overlap{Rangelet: r, BadPages: bad})
			}
		default:
			rep.Unrecoverable = append(rep.Unrecoverable, Overlap{
				Rangelet: r, BadPages: bad, ParityBad: parityBad[r],
			})
		}
	}
	return rep
}

// reconstruct rebuilds data page i from its rangelet's parity and the
// other (intact) pages, writing the result in place. Returns false when
// the reconstructed bytes fail the stored CRC.
func (s *Sidecar) reconstruct(data []byte, i int) bool {
	r := i / s.RangeletPages
	buf := make([]byte, s.PageSize)
	copy(buf, s.Parity[r])
	lo := r * s.RangeletPages
	hi := lo + s.RangeletPages
	if hi > s.Pages() {
		hi = s.Pages()
	}
	for j := lo; j < hi; j++ {
		if j == i {
			continue
		}
		pg, _ := s.page(data, j)
		xorInto(buf, pg)
	}
	if crc32.ChecksumIEEE(buf) != s.CRCs[i] {
		return false
	}
	end := (i + 1) * s.PageSize
	if end > len(data) {
		end = len(data)
	}
	copy(data[i*s.PageSize:end], buf)
	return true
}

// rebuildParity recomputes rangelet r's parity page from (intact) data.
func (s *Sidecar) rebuildParity(data []byte, r int) {
	buf := make([]byte, s.PageSize)
	lo := r * s.RangeletPages
	hi := lo + s.RangeletPages
	if hi > s.Pages() {
		hi = s.Pages()
	}
	for j := lo; j < hi; j++ {
		pg, _ := s.page(data, j)
		xorInto(buf, pg)
	}
	s.Parity[r] = buf
	s.ParityCRCs[r] = crc32.ChecksumIEEE(buf)
}

// Encode serializes the sidecar into a self-checksummed blob:
//
//	magic | pageSize | rangeletPages | imageSize | imageSum |
//	nPages | nRangelets | page CRCs | parity CRCs | parity pages | blob CRC32
//
// all integers little-endian. The trailing CRC32 covers everything before
// it, so a torn or bit-flipped sidecar fails Decode and is treated as
// missing rather than trusted.
func (s *Sidecar) Encode() []byte {
	n := len(sidecarMagic) + 4 + 4 + 8 + 8 + 4 + 4 +
		4*len(s.CRCs) + 4*len(s.ParityCRCs) + s.PageSize*len(s.Parity) + 4
	buf := bytes.NewBuffer(make([]byte, 0, n))
	buf.WriteString(sidecarMagic)
	le := binary.LittleEndian
	var u32 [4]byte
	var u64 [8]byte
	put32 := func(v uint32) { le.PutUint32(u32[:], v); buf.Write(u32[:]) }
	put64 := func(v uint64) { le.PutUint64(u64[:], v); buf.Write(u64[:]) }
	put32(uint32(s.PageSize))
	put32(uint32(s.RangeletPages))
	put64(uint64(s.ImageSize))
	put64(s.Image)
	put32(uint32(len(s.CRCs)))
	put32(uint32(len(s.Parity)))
	for _, c := range s.CRCs {
		put32(c)
	}
	for _, c := range s.ParityCRCs {
		put32(c)
	}
	for _, p := range s.Parity {
		buf.Write(p)
	}
	put32(crc32.ChecksumIEEE(buf.Bytes()))
	return buf.Bytes()
}

// maxSidecarDim bounds decoded geometry so a corrupt length field cannot
// drive an oversized allocation before the CRC check.
const maxSidecarDim = 1 << 24

// Decode parses a sidecar blob, rejecting anything that is truncated,
// oversized, internally inconsistent, or fails the trailing checksum.
func Decode(blob []byte) (*Sidecar, error) {
	head := len(sidecarMagic) + 4 + 4 + 8 + 8 + 4 + 4
	if len(blob) < head+4 {
		return nil, fmt.Errorf("parity: sidecar truncated (%d bytes)", len(blob))
	}
	if string(blob[:len(sidecarMagic)]) != sidecarMagic {
		return nil, fmt.Errorf("parity: bad sidecar magic")
	}
	le := binary.LittleEndian
	body, tail := blob[:len(blob)-4], blob[len(blob)-4:]
	if crc32.ChecksumIEEE(body) != le.Uint32(tail) {
		return nil, fmt.Errorf("parity: sidecar checksum mismatch")
	}
	off := len(sidecarMagic)
	pageSize := int(le.Uint32(blob[off:]))
	rangelet := int(le.Uint32(blob[off+4:]))
	imageSize := int(le.Uint64(blob[off+8:]))
	imageSum := le.Uint64(blob[off+16:])
	nPages := int(le.Uint32(blob[off+24:]))
	nRange := int(le.Uint32(blob[off+28:]))
	if pageSize <= 0 || pageSize > maxSidecarDim || rangelet <= 0 ||
		nPages < 0 || nPages > maxSidecarDim || nRange < 0 || nRange > maxSidecarDim {
		return nil, fmt.Errorf("parity: sidecar geometry out of range")
	}
	wantRange := (nPages + rangelet - 1) / rangelet
	if nRange != wantRange {
		return nil, fmt.Errorf("parity: sidecar rangelet count %d, want %d for %d pages", nRange, wantRange, nPages)
	}
	want := head + 4*nPages + 4*nRange + pageSize*nRange + 4
	if len(blob) != want {
		return nil, fmt.Errorf("parity: sidecar length %d, want %d", len(blob), want)
	}
	s := &Sidecar{
		PageSize:      pageSize,
		RangeletPages: rangelet,
		ImageSize:     imageSize,
		Image:         imageSum,
		CRCs:          make([]uint32, nPages),
		ParityCRCs:    make([]uint32, nRange),
		Parity:        make([][]byte, nRange),
	}
	off = head
	for i := range s.CRCs {
		s.CRCs[i] = le.Uint32(blob[off:])
		off += 4
	}
	for i := range s.ParityCRCs {
		s.ParityCRCs[i] = le.Uint32(blob[off:])
		off += 4
	}
	for i := range s.Parity {
		s.Parity[i] = append([]byte(nil), blob[off:off+pageSize]...)
		off += pageSize
	}
	return s, nil
}
