// Incremental checkpoints: work that scales with the pages written since the
// last checkpoint, not with the pool.
//
// The registry keeps one record per pool describing the image it last saved
// (or loaded): the bytes, the CRC-64 of every page, and — parity armed — the
// sidecar describing them. A checkpoint compares its fresh snapshot with
// those bytes page by page (parity.Dirty), checksums only the pages that
// differ, and folds the per-page sums into the whole-image CRC-64 that
// Meta.Sum records. The fold uses the linear operator that appends a page of
// zero bytes to a CRC — zlib's crc32_combine construction, over crc64.ECMA —
// so the result is bit-identical to crc64.Checksum of the image and the
// on-disk format does not change. The same dirty list and sum drive the
// parity delta (parity.Sidecar.Fold).
package pmem

import (
	"hash/crc64"
	"slices"

	"nvref/internal/parity"
)

// saved is what the registry knows of a pool's last saved image. It is
// replaced as one unit, so the bytes, the page sums and the sidecar always
// describe the same image — even when a later step of the checkpoint (the
// sidecar's own save) fails. data is never written after it is recorded.
type saved struct {
	data []byte
	sums []uint64        // CRC-64 of each page of data
	side *parity.Sidecar // nil until parity has described data
}

// sidecar returns the recorded sidecar (nil-safe on a missing record).
func (s *saved) sidecar() *parity.Sidecar {
	if s == nil {
		return nil
	}
	return s.side
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

// diff checksums data against prev, the record of the previous image of the
// same pool: only the pages whose bytes differ are read twice (compared, then
// summed). It returns those pages and the new page sums and image checksum.
// Without a comparable record every page is dirty.
func (r *Registry) diff(prev *saved, data []byte) (dirty []int, sums []uint64, sum uint64) {
	if prev == nil || len(prev.data) != len(data) {
		sums, sum = r.pageSums(data)
		dirty = make([]int, len(sums))
		for i := range dirty {
			dirty[i] = i
		}
		return dirty, sums, sum
	}
	dirty = parity.Dirty(prev.data, data, r.pageSize)
	sums = slices.Clone(prev.sums)
	for _, i := range dirty {
		sums[i] = crc64.Checksum(r.page(data, i), crcTable)
	}
	return dirty, sums, r.fold(sums, len(data))
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
