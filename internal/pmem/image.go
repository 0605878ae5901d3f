// Incremental checkpoints: work that scales with the pages written since the
// last checkpoint, not with the pool.
//
// The address space tags every page a store writes (mem.TakeDirty), so a
// checkpoint knows which pages changed without comparing bytes. The registry
// keeps two images per pool, the way DirStore keeps two slots: the one it
// last saved (or loaded) and the one saved before that. A checkpoint patches
// the older image into the new one — it copies from memory the pages the
// previous checkpoint took (where the older image lags the last one) and the
// pages tagged since — checksums only the tagged pages, and folds the
// per-page sums into the whole-image CRC-64 that Meta.Sum records. The fold
// uses the linear operator that appends a page of zero bytes to a CRC —
// zlib's crc32_combine construction, over crc64.ECMA — so the result is
// bit-identical to crc64.Checksum of the image and the on-disk format does
// not change. The same page list drives the parity delta
// (parity.Sidecar.Fold), with the last saved image, intact, as its old side.
//
// A checkpoint runs in three steps so that its slow part can leave the
// goroutine that owns the address space: BeginCheckpoint takes the tags and
// copies the pages, Save.Run checksums, saves and folds parity, and
// Save.Commit installs the result (Checkpoint does all three in a row).
package pmem

import (
	"fmt"
	"hash/crc64"
	"slices"

	"nvref/internal/fault"
	"nvref/internal/mem"
	"nvref/internal/parity"
)

// image is one copy of a pool's bytes, with the CRC-64 of each page and
// their fold, the image's Meta.Sum.
type image struct {
	data []byte
	sums []uint64
	sum  uint64
}

// saved is what the registry keeps of a pool between checkpoints: cur, the
// image last saved or loaded — what the store holds — and prev, the image
// saved before it, which the next checkpoint patches into its own (nil data
// until a second image is first needed). The sidecar, when parity has one,
// describes cur.
type saved struct {
	cur, prev image
	// stale lists the pages in which prev differs from cur: the pages the
	// checkpoint that saved cur took.
	stale []int
	// retake lists pages that differ from cur though no tag says so: those
	// a checkpoint whose save failed had taken, or every page when a scrub
	// swapped cur under a live pool. The next checkpoint takes them again.
	retake []int
	side   *parity.Sidecar
}

// sidecar returns the recorded sidecar (nil-safe on a missing record).
func (s *saved) sidecar() *parity.Sidecar {
	if s == nil {
		return nil
	}
	return s.side
}

// A Save is one pool checkpoint between BeginCheckpoint and Commit. Begin
// and Commit run on the goroutine that owns the registry; Run may run on any
// other, while the owner goes on using the address space. Until Commit
// returns nothing else may checkpoint, open, scrub or close the pool. A nil
// Save (a registry with no store) does nothing.
type Save struct {
	r     *Registry
	meta  Meta
	rec   *saved // nil: the pool's first checkpoint, a full copy
	img   *image // the image being saved: rec.prev patched, or the full copy
	dirty []int  // pages checksummed and folded into parity, ascending

	// Set by Run: what it counted, whether the image reached the store, the
	// sidecar describing it (parity armed), and the error Commit returns.
	stats RegistryStats
	saved bool
	side  *parity.Sidecar
	err   error
}

// BeginCheckpoint starts a checkpoint of p: it takes p's store-time tags and
// copies the pages that changed into the image the checkpoint will save. A
// pool with no record yet is copied whole.
func (r *Registry) BeginCheckpoint(p *Pool) (*Save, error) {
	if r.store == nil {
		return nil, nil
	}
	if !p.attached {
		return nil, fmt.Errorf("%w: %q", ErrPoolDetached, p.name)
	}
	s := &Save{r: r, meta: Meta{ID: p.id, Name: p.name, Size: p.size}}
	n := (int(p.size) + r.pageSize - 1) / r.pageSize
	rec := r.saved[p.name]
	if rec == nil || len(rec.cur.data) != int(p.size) {
		data, err := r.as.Snapshot(p.base, p.size)
		if err != nil {
			return nil, err
		}
		r.as.TakeDirty(p.base, p.size) // the copy covers every tag
		s.img = &image{data: data, sums: make([]uint64, n)}
		s.dirty = allPages(n)
		return s, nil
	}
	dirty := union(r.takeDirty(p, n), rec.retake)
	if rec.prev.data == nil {
		rec.prev = image{data: slices.Clone(rec.cur.data), sums: slices.Clone(rec.cur.sums)}
		rec.stale = nil
	}
	// The stale pages now match cur's bytes, and Run re-sums the dirty ones.
	for _, i := range rec.stale {
		rec.prev.sums[i] = rec.cur.sums[i]
	}
	for _, i := range union(rec.stale, dirty) {
		lo := i * r.pageSize
		if err := r.as.ReadBytes(p.base+uint64(lo), r.page(rec.prev.data, i)); err != nil {
			rec.stale, rec.retake = union(rec.stale, dirty), dirty
			return nil, err
		}
	}
	s.rec, s.img, s.dirty = rec, &rec.prev, dirty
	return s, nil
}

// Run checksums the checkpoint's dirty pages, saves the image — retrying
// transient store faults per the registry's retry policy — and, parity
// armed, folds the sidecar forward and saves it. It touches neither the
// address space nor the registry's counters, so it may run on any goroutine.
func (s *Save) Run() error {
	if s == nil {
		return nil
	}
	r := s.r
	fault.Crash("pmem.checkpoint.taken")
	for _, i := range s.dirty {
		s.img.sums[i] = crc64.Checksum(r.page(s.img.data, i), crcTable)
	}
	s.img.sum = r.fold(s.img.sums, len(s.img.data))
	s.meta.Sum = s.img.sum
	if s.err = r.retryCounted(&s.stats, func() error { return r.store.Save(s.meta, s.img.data) }); s.err != nil {
		return s.err
	}
	s.saved = true
	if r.parity.Enabled {
		var old []byte
		if s.rec != nil {
			old = s.rec.cur.data
		}
		s.side = r.nextSidecar(&s.stats, s.rec.sidecar(), old, s.img, s.dirty)
		fault.Crash("pmem.parity.save")
		if s.err = r.saveSidecar(&s.stats, s.meta.Name, s.side); s.err != nil {
			return s.err
		}
	}
	fault.Crash("pmem.checkpoint.saved")
	return nil
}

// Commit installs what Run saved as the pool's record and counts it, and
// returns Run's error. A checkpoint whose image save failed keeps its pages
// for the next one, so no store it covered goes unsaved.
func (s *Save) Commit() error {
	if s == nil {
		return nil
	}
	r := s.r
	r.Stats.StoreRetries += s.stats.StoreRetries
	r.Stats.ParityBuilds += s.stats.ParityBuilds
	r.Stats.ParityUpdates += s.stats.ParityUpdates
	r.Stats.ParityPageWrites += s.stats.ParityPageWrites
	if !s.saved {
		if s.rec != nil {
			s.rec.stale, s.rec.retake = union(s.rec.stale, s.dirty), s.dirty
		}
		return s.err
	}
	r.Stats.Checkpoints++
	r.Stats.BytesSaved += uint64(len(s.img.data))
	r.Stats.DirtyPages += uint64(len(s.dirty))
	rec := s.rec
	if rec == nil {
		rec = &saved{cur: *s.img}
		r.saved[s.meta.Name] = rec
	} else {
		rec.cur, rec.prev = rec.prev, rec.cur
	}
	rec.stale, rec.retake = s.dirty, nil
	if s.side != nil {
		rec.side = s.side
		r.refreshParityPages()
	}
	return s.err
}

// takeDirty takes p's store-time tags as pages of the registry's page size,
// ascending; n is p's page count.
func (r *Registry) takeDirty(p *Pool, n int) []int {
	tags := r.as.TakeDirty(p.base, p.size)
	const mp = int(mem.PageSize)
	if r.pageSize == mp {
		return tags
	}
	var out []int
	for _, t := range tags {
		lo := t * mp / r.pageSize
		hi := min(((t+1)*mp-1)/r.pageSize, n-1)
		if len(out) > 0 {
			lo = max(lo, out[len(out)-1]+1)
		}
		for i := lo; i <= hi; i++ {
			out = append(out, i)
		}
	}
	return out
}

// allPages returns 0..n-1.
func allPages(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// union merges two ascending page lists into a new one without repeats.
func union(a, b []int) []int {
	if len(b) == 0 {
		return a
	}
	if len(a) == 0 {
		return b
	}
	out := make([]int, 0, len(a)+len(b))
	for len(a) > 0 && len(b) > 0 {
		switch {
		case a[0] < b[0]:
			out, a = append(out, a[0]), a[1:]
		case b[0] < a[0]:
			out, b = append(out, b[0]), b[1:]
		default:
			out, a, b = append(out, a[0]), a[1:], b[1:]
		}
	}
	return append(append(out, a...), b...)
}

// page returns page i of data, the last one possibly short.
func (r *Registry) page(data []byte, i int) []byte {
	lo := i * r.pageSize
	return data[lo:min(lo+r.pageSize, len(data))]
}

// pageSums checksums every page of data and returns the sums with their
// fold, which is ImageChecksum(data).
func (r *Registry) pageSums(data []byte) ([]uint64, uint64) {
	sums := make([]uint64, (len(data)+r.pageSize-1)/r.pageSize)
	for i := range sums {
		sums[i] = crc64.Checksum(r.page(data, i), crcTable)
	}
	return sums, r.fold(sums, len(data))
}

// fold combines per-page CRC-64s into the CRC-64 of the whole image of size
// bytes: for consecutive pieces A and B, crc(A‖B) = shift_|B|(crc(A)) ^
// crc(B), where shift_n multiplies by x^(8n) modulo the polynomial.
func (r *Registry) fold(sums []uint64, size int) uint64 {
	var acc uint64
	for i, s := range sums {
		if n := size - i*r.pageSize; n < r.pageSize {
			acc = gfMul(xPow8(n), acc) ^ s // short last page
		} else {
			acc = r.shift.apply(acc) ^ s
		}
	}
	return acc
}

// CRC-64 arithmetic in GF(2)[x] modulo the ECMA polynomial, in the reflected
// bit order hash/crc64 uses: bit 63 holds the coefficient of x^0, and the
// x^64 term of the polynomial is implied.

// gfMul returns a*b modulo the polynomial.
func gfMul(a, b uint64) uint64 {
	var p uint64
	for m := uint64(1) << 63; m != 0; m >>= 1 {
		if a&m != 0 {
			p ^= b
		}
		if b&1 != 0 {
			b = b>>1 ^ crc64.ECMA
		} else {
			b >>= 1
		}
	}
	return p
}

// xPow8 returns x^(8n) modulo the polynomial: the effect on a CRC of n
// appended zero bytes.
func xPow8(n int) uint64 {
	p, sq := uint64(1)<<63, uint64(1)<<(63-8) // x^0, x^8
	for ; n > 0; n >>= 1 {
		if n&1 != 0 {
			p = gfMul(p, sq)
		}
		sq = gfMul(sq, sq)
	}
	return p
}

// crcShift is multiplication by x^(8n) for one fixed n, tabulated a byte of
// the operand at a time: the map is linear, so the product is the XOR of
// eight lookups, and each table entry the XOR of its single-bit ones.
type crcShift [8][256]uint64

func newCRCShift(n int) *crcShift {
	xn := xPow8(n)
	var t crcShift
	for j := range t {
		for b := 1; b < 256; b++ {
			if low := b & -b; low == b {
				t[j][b] = gfMul(xn, uint64(b)<<(8*j))
			} else {
				t[j][b] = t[j][low] ^ t[j][b^low]
			}
		}
	}
	return &t
}

func (t *crcShift) apply(c uint64) uint64 {
	return t[0][byte(c)] ^ t[1][byte(c>>8)] ^ t[2][byte(c>>16)] ^ t[3][byte(c>>24)] ^
		t[4][byte(c>>32)] ^ t[5][byte(c>>40)] ^ t[6][byte(c>>48)] ^ t[7][byte(c>>56)]
}
