package parity

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"reflect"
	"slices"
	"testing"
)

// fill produces deterministic pseudo-random content so corruption is
// guaranteed to change checksums (an all-zero image hides zeroing faults).
func fill(n int, seed uint64) []byte {
	buf := make([]byte, n)
	x := seed*0x9e3779b97f4a7c15 + 1
	for i := range buf {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		buf[i] = byte(x)
	}
	return buf
}

func testPolicy() Policy { return Policy{Enabled: true, PageSize: 64, RangeletPages: 4} }

func TestBuildGeometry(t *testing.T) {
	cases := []struct {
		size, wantPages, wantRangelets int
	}{
		{0, 0, 0},
		{1, 1, 1},
		{64, 1, 1},
		{65, 2, 1},
		{64 * 4, 4, 1},
		{64*4 + 1, 5, 2},
		{64 * 9, 9, 3},
	}
	for _, tc := range cases {
		t.Run(fmt.Sprintf("size=%d", tc.size), func(t *testing.T) {
			s := Build(fill(tc.size, 7), testPolicy())
			if s.Pages() != tc.wantPages || s.Rangelets() != tc.wantRangelets {
				t.Fatalf("size %d: got %d pages / %d rangelets, want %d / %d",
					tc.size, s.Pages(), s.Rangelets(), tc.wantPages, tc.wantRangelets)
			}
			if got := testPolicy().PagesFor(tc.size); got != tc.wantPages {
				t.Fatalf("PagesFor(%d) = %d, want %d", tc.size, got, tc.wantPages)
			}
		})
	}
}

func TestPolicyDefaults(t *testing.T) {
	d := Default()
	if !d.Enabled || d.PageSize != DefaultPageSize || d.RangeletPages != DefaultRangeletPages {
		t.Fatalf("unexpected default policy: %+v", d)
	}
	// Zero values normalize to the defaults.
	s := Build(fill(DefaultPageSize+1, 1), Policy{Enabled: true})
	if s.PageSize != DefaultPageSize || s.RangeletPages != DefaultRangeletPages {
		t.Fatalf("zero policy not normalized: %+v", s)
	}
}

func TestNames(t *testing.T) {
	sc := SidecarName("bench")
	if sc != "bench@parity" || !IsSidecar(sc) || IsSidecar("bench") {
		t.Fatalf("sidecar naming broken: %q", sc)
	}
	pool, ok := PoolName(sc)
	if !ok || pool != "bench" {
		t.Fatalf("PoolName(%q) = %q, %v", sc, pool, ok)
	}
	if _, ok := PoolName("bench"); ok {
		t.Fatalf("PoolName accepted a non-sidecar name")
	}
}

// Delta maintenance: an incremental Update must land in exactly the same
// state as a full rebuild of the new image, and its cost must be bounded
// by the number of dirty pages.
func TestUpdateDeltaMatchesRebuild(t *testing.T) {
	pol := testPolicy()
	cases := []struct {
		name       string
		dirty      []int // page indices to mutate
		residue    []int // page indices given two CRC-colliding contents
		wantDirty  int
		wantParity int // distinct rangelets touched
	}{
		{"single-page", []int{2}, nil, 1, 1},
		{"two-pages-one-rangelet", []int{0, 3}, nil, 2, 1},
		{"two-rangelets", []int{1, 6}, nil, 2, 2},
		{"every-rangelet", []int{0, 4, 8}, nil, 3, 3},
		{"partial-last-page", []int{9}, nil, 1, 1},
		{"no-change", nil, nil, 0, 0},
		{"equal-page-crc", nil, []int{5}, 1, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			old := fill(64*9+17, 3) // 10 pages (last partial), 3 rangelets
			for _, pg := range tc.residue {
				crcResidue(old[pg*pol.PageSize : (pg+1)*pol.PageSize])
			}
			s := Build(old, pol)
			next := append([]byte(nil), old...)
			for _, pg := range tc.dirty {
				next[pg*pol.PageSize] ^= 0xff
			}
			for _, pg := range tc.residue {
				p := next[pg*pol.PageSize : (pg+1)*pol.PageSize]
				p[0] ^= 0xff
				crcResidue(p)
				if crcOf(p) != s.CRCs[pg] {
					t.Fatalf("page %d: the two contents do not share a CRC", pg)
				}
			}
			st := s.Update(old, next)
			if st.Rebuilt || st.DirtyPages != tc.wantDirty || st.ParityPageWrites != tc.wantParity {
				t.Fatalf("stats %+v, want dirty=%d parity=%d", st, tc.wantDirty, tc.wantParity)
			}
			want := Build(next, pol)
			if !reflect.DeepEqual(s, want) {
				t.Fatalf("delta update diverged from full rebuild")
			}
		})
	}
}

func TestUpdateSizeChangeRebuilds(t *testing.T) {
	pol := testPolicy()
	old := fill(64*8, 5)
	s := Build(old, pol)
	next := fill(64*12, 6)
	st := s.Update(old, next)
	if !st.Rebuilt {
		t.Fatalf("size change should force a rebuild, got %+v", st)
	}
	if !reflect.DeepEqual(s, Build(next, pol)) {
		t.Fatalf("rebuild state mismatch")
	}
}

// Rangelet reconstruction: corrupting any single data page — including
// the zero-padded partial tail page — must be repaired back to the
// original bytes, and a corrupted parity page must be rebuilt from data.
func TestRepairEverySinglePage(t *testing.T) {
	pol := testPolicy()
	orig := fill(64*9+17, 11) // 10 pages, 3 rangelets
	s0 := Build(orig, pol)
	for pg := 0; pg < s0.Pages(); pg++ {
		t.Run(fmt.Sprintf("data-page-%d", pg), func(t *testing.T) {
			s := Build(orig, pol)
			data := append([]byte(nil), orig...)
			lo := pg * pol.PageSize
			hi := lo + pol.PageSize
			if hi > len(data) {
				hi = len(data)
			}
			for i := lo; i < hi; i++ {
				data[i] ^= 0x5a
			}
			rep := s.Repair(data)
			if !rep.Recovered() || len(rep.Repaired) != 1 || rep.Repaired[0] != pg {
				t.Fatalf("page %d not repaired: %+v", pg, rep)
			}
			if !bytes.Equal(data, orig) {
				t.Fatalf("page %d: repaired image differs from original", pg)
			}
		})
	}
	for r := 0; r < s0.Rangelets(); r++ {
		t.Run(fmt.Sprintf("parity-page-%d", r), func(t *testing.T) {
			s := Build(orig, pol)
			data := append([]byte(nil), orig...)
			s.Parity[r][5] ^= 0x80
			rep := s.Repair(data)
			if !rep.Recovered() || len(rep.ParityRebuilt) != 1 || rep.ParityRebuilt[0] != r {
				t.Fatalf("parity %d not rebuilt: %+v", r, rep)
			}
			if !reflect.DeepEqual(s, Build(orig, pol)) {
				t.Fatalf("parity %d: rebuilt state differs from clean build", r)
			}
		})
	}
}

// Multiple bad pages in *different* rangelets are all repaired in one pass
// — the whole point of enumerating every bad region instead of stopping
// at the first mismatch.
func TestRepairAcrossRangelets(t *testing.T) {
	pol := testPolicy()
	orig := fill(64*12, 13) // 3 rangelets
	s := Build(orig, pol)
	data := append([]byte(nil), orig...)
	for _, pg := range []int{1, 5, 10} { // one per rangelet
		data[pg*pol.PageSize+3] ^= 0x01
	}
	if bad := s.Verify(data); len(bad) != 3 {
		t.Fatalf("Verify found %v, want 3 bad pages", bad)
	}
	rep := s.Repair(data)
	if !rep.Recovered() || len(rep.Repaired) != 3 {
		t.Fatalf("cross-rangelet repair failed: %+v", rep)
	}
	if !bytes.Equal(data, orig) {
		t.Fatalf("repaired image differs from original")
	}
}

// Data+parity overlap and multi-page damage inside one rangelet must be
// reported as explicit unrecoverable overlaps, and the pass must not
// scribble garbage into the image.
func TestRepairUnrecoverableOverlap(t *testing.T) {
	pol := testPolicy()
	cases := []struct {
		name      string
		dataPages []int
		parity    []int
		wantBad   []int
		wantPBad  bool
	}{
		{"two-data-pages-same-rangelet", []int{0, 2}, nil, []int{0, 2}, false},
		{"data-plus-parity", []int{5}, []int{1}, []int{5}, true},
		{"three-data-pages", []int{4, 5, 6}, nil, []int{4, 5, 6}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			orig := fill(64*8, 17) // 2 rangelets
			s := Build(orig, pol)
			data := append([]byte(nil), orig...)
			for _, pg := range tc.dataPages {
				data[pg*pol.PageSize] ^= 0x42
			}
			for _, r := range tc.parity {
				s.Parity[r][0] ^= 0x42
			}
			rep := s.Repair(data)
			if rep.Recovered() || len(rep.Unrecoverable) != 1 {
				t.Fatalf("expected one unrecoverable rangelet, got %+v", rep)
			}
			ov := rep.Unrecoverable[0]
			if !reflect.DeepEqual(ov.BadPages, tc.wantBad) || ov.ParityBad != tc.wantPBad {
				t.Fatalf("overlap %+v, want pages %v parityBad=%v", ov, tc.wantBad, tc.wantPBad)
			}
			if ov.String() == "" {
				t.Fatalf("empty overlap description")
			}
		})
	}
}

// An unrecoverable rangelet must not block repair of a recoverable one in
// the same image.
func TestRepairMixedVerdicts(t *testing.T) {
	pol := testPolicy()
	orig := fill(64*8, 19) // 2 rangelets
	s := Build(orig, pol)
	data := append([]byte(nil), orig...)
	data[0] ^= 0x01                // rangelet 0, page 0
	data[1*pol.PageSize] ^= 0x01   // rangelet 0, page 1 -> unrecoverable
	data[5*pol.PageSize+7] ^= 0x01 // rangelet 1, single page -> repairable
	rep := s.Repair(data)
	if len(rep.Unrecoverable) != 1 || rep.Unrecoverable[0].Rangelet != 0 {
		t.Fatalf("rangelet 0 should be unrecoverable: %+v", rep)
	}
	if len(rep.Repaired) != 1 || rep.Repaired[0] != 5 {
		t.Fatalf("rangelet 1 page 5 should be repaired: %+v", rep)
	}
	if !bytes.Equal(data[5*pol.PageSize:6*pol.PageSize], orig[5*pol.PageSize:6*pol.PageSize]) {
		t.Fatalf("page 5 not restored")
	}
}

// A torn (truncated) image reads as zero-extended; pages that held
// content past the tear are flagged, and a single torn page repairs.
func TestRepairTornTail(t *testing.T) {
	pol := testPolicy()
	orig := fill(64*4, 23) // one rangelet
	s := Build(orig, pol)
	torn := append([]byte(nil), orig[:64*3+10]...) // page 3 torn mid-way
	if bad := s.Verify(torn); len(bad) != 1 || bad[0] != 3 {
		t.Fatalf("Verify(torn) = %v, want [3]", bad)
	}
	data := make([]byte, s.ImageSize) // zero-extend, as the pmem caller does
	copy(data, torn)
	rep := s.Repair(data)
	if !rep.Recovered() || !bytes.Equal(data, orig) {
		t.Fatalf("torn tail page not reconstructed: %+v", rep)
	}
}

func TestDescribes(t *testing.T) {
	data := fill(64*4, 29)
	s := Build(data, testPolicy())
	if !s.Describes(ImageSum(data), len(data)) {
		t.Fatalf("sidecar should describe its own image")
	}
	if s.Describes(ImageSum(data)+1, len(data)) || s.Describes(ImageSum(data), len(data)-1) {
		t.Fatalf("stale sidecar passed the staleness check")
	}
	var nilSC *Sidecar
	if nilSC.Describes(0, 0) {
		t.Fatalf("nil sidecar claims to describe an image")
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	for _, size := range []int{0, 1, 64 * 4, 64*9 + 17} {
		data := fill(size, 31)
		s := Build(data, testPolicy())
		got, err := Decode(s.Encode())
		if err != nil {
			t.Fatalf("size %d: decode: %v", size, err)
		}
		if !reflect.DeepEqual(got, s) {
			t.Fatalf("size %d: round-trip mismatch", size)
		}
	}
}

// A damaged sidecar must fail Decode loudly — it is then treated as
// missing, never trusted for repair.
func TestDecodeRejectsDamage(t *testing.T) {
	blob := Build(fill(64*8, 37), testPolicy()).Encode()
	cases := []struct {
		name string
		blob []byte
	}{
		{"empty", nil},
		{"truncated-header", blob[:10]},
		{"truncated-body", blob[:len(blob)-5]},
		{"bad-magic", append([]byte("XXXXXXXX"), blob[8:]...)},
		{"flipped-bit", func() []byte {
			b := append([]byte(nil), blob...)
			b[len(b)/2] ^= 0x10
			return b
		}()},
		{"trailing-garbage", append(append([]byte(nil), blob...), 0)},
		{"bad-geometry", func() []byte {
			// Zero the page-size field and re-seal the checksum: the
			// geometry check itself must reject it.
			b := append([]byte(nil), blob...)
			for i := 8; i < 12; i++ {
				b[i] = 0
			}
			s2 := b[:len(b)-4]
			sum := crcOf(s2)
			b[len(b)-4] = byte(sum)
			b[len(b)-3] = byte(sum >> 8)
			b[len(b)-2] = byte(sum >> 16)
			b[len(b)-1] = byte(sum >> 24)
			return b
		}()},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := Decode(tc.blob); err == nil {
				t.Fatalf("damaged sidecar decoded without error")
			}
		})
	}
}

func crcOf(b []byte) uint32 { return crc32.ChecksumIEEE(b) }

// crcResidue ends page in the little-endian CRC-32 of the bytes before it.
// Every page so shaped has the same CRC-32 (the CRC residue), whatever its
// content: a changed page that a checksum comparison cannot see.
func crcResidue(page []byte) {
	n := len(page) - 4
	binary.LittleEndian.PutUint32(page[n:], crcOf(page[:n]))
}

// Fold's contract: handed the exact dirty list and the new image's sum, it
// lands where a full build of the new image does, over a sequence of edits
// of random pages.
func TestFoldMatchesBuild(t *testing.T) {
	pol := testPolicy()
	img := fill(64*21+5, 41) // 22 pages (last partial), 6 rangelets
	s := Build(img, pol)
	rng := uint64(7)
	for step := 0; step < 50; step++ {
		next := append([]byte(nil), img...)
		for k := 0; k < step%4; k++ {
			rng = rng*6364136223846793005 + 1442695040888963407
			next[int(rng>>33)%len(next)] ^= byte(rng>>8) | 1
		}
		dirty := Dirty(img, next, pol.PageSize)
		for i := 0; i < s.Pages(); i++ {
			lo, hi := i*pol.PageSize, min((i+1)*pol.PageSize, len(next))
			if want := !bytes.Equal(img[lo:hi], next[lo:hi]); want != slices.Contains(dirty, i) {
				t.Fatalf("step %d: page %d dirty=%v, want %v", step, i, !want, want)
			}
		}
		if st := s.Fold(img, next, dirty, ImageSum(next)); st.Rebuilt || st.DirtyPages != len(dirty) {
			t.Fatalf("step %d: stats %+v for %d dirty pages", step, st, len(dirty))
		}
		if !reflect.DeepEqual(s, Build(next, pol)) {
			t.Fatalf("step %d: folded sidecar diverged from a full build", step)
		}
		img = next
	}
}
