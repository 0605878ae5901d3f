package pmem

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
)

func testStore(t *testing.T, s Store) {
	t.Helper()
	meta := Meta{ID: 7, Name: "alpha", Size: 16}
	data := []byte("0123456789abcdef")
	if err := s.Save(meta, data); err != nil {
		t.Fatalf("Save: %v", err)
	}
	gotMeta, gotData, err := s.Load("alpha")
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if gotMeta != meta {
		t.Errorf("meta = %+v, want %+v", gotMeta, meta)
	}
	if string(gotData) != string(data) {
		t.Errorf("data = %q", gotData)
	}
	// Mutating the returned slice must not corrupt the stored image.
	gotData[0] = 'X'
	_, again, err := s.Load("alpha")
	if err != nil {
		t.Fatal(err)
	}
	if again[0] != '0' {
		t.Error("Load returned aliased storage")
	}
	names, err := s.List()
	if err != nil || len(names) != 1 || names[0] != "alpha" {
		t.Errorf("List = %v, %v", names, err)
	}
	if _, _, err := s.Load("missing"); !errors.Is(err, ErrStoreMissing) {
		t.Errorf("Load(missing): err = %v", err)
	}
	if err := s.Delete("alpha"); err != nil {
		t.Errorf("Delete: %v", err)
	}
	if err := s.Delete("alpha"); !errors.Is(err, ErrStoreMissing) {
		t.Errorf("double Delete: err = %v", err)
	}
	if names, _ := s.List(); len(names) != 0 {
		t.Errorf("List after Delete = %v", names)
	}
}

func TestMemStore(t *testing.T) { testStore(t, NewMemStore()) }

func TestDirStore(t *testing.T) {
	s, err := NewDirStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	testStore(t, s)
}

func TestDirStoreSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	s1, err := NewDirStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s1.Save(Meta{ID: 3, Name: "p", Size: 4}, []byte("abcd")); err != nil {
		t.Fatal(err)
	}
	s2, err := NewDirStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	meta, data, err := s2.Load("p")
	if err != nil || meta.ID != 3 || string(data) != "abcd" {
		t.Errorf("reopened Load = %+v, %q, %v", meta, data, err)
	}
}

func TestDirStoreCorruptImage(t *testing.T) {
	dir := t.TempDir()
	s, err := NewDirStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Save(Meta{ID: 1, Name: "c", Size: 4}, []byte("abc")); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Load("c"); !errors.Is(err, ErrCorrupt) {
		t.Errorf("size-mismatched image: err = %v", err)
	}
}

func newDirStore(t testing.TB, dir string) *DirStore {
	t.Helper()
	s, err := NewDirStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// Slot file names escape '%' and '/' injectively, so names an escape
// mapping '/' to '_' would collide ("a/b" and "a_b"), or that look like an
// escape themselves ("a%2Fb", "%"), are stored apart, and List returns the
// names themselves — from a reopened store too.
func TestDirStoreEscapesNames(t *testing.T) {
	dir := t.TempDir()
	s := newDirStore(t, dir)
	names := []string{"a/b", "a_b", "a%2Fb", "%"}
	for i, n := range names {
		if err := s.Save(Meta{ID: uint32(i + 1), Name: n, Size: 1}, []byte{byte('0' + i)}); err != nil {
			t.Fatalf("Save(%q): %v", n, err)
		}
	}
	want := slices.Clone(names)
	slices.Sort(want)
	for _, st := range []*DirStore{s, newDirStore(t, dir)} {
		for i, n := range names {
			meta, data, err := st.Load(n)
			if err != nil || meta.Name != n || meta.ID != uint32(i+1) || data[0] != byte('0'+i) {
				t.Errorf("Load(%q) = %+v, %q, %v", n, meta, data, err)
			}
		}
		got, err := st.List()
		if err != nil || !slices.Equal(got, want) {
			t.Errorf("List = %q, %v; want %q", got, err, want)
		}
	}
}

// A directory holding a file in the single-file layout that preceded slots
// is refused by name: opened, its images would read as missing.
func TestNewDirStoreRefusesSingleFileImage(t *testing.T) {
	dir := t.TempDir()
	if err := newDirStore(t, dir).Save(Meta{ID: 1, Name: "kept", Size: 1}, []byte("k")); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "gold.pool")
	raw := "NVREFPL2" + "\x01\x02\x03\x04" + "\x04\x00\x00\x00\x00\x00\x00\x00" +
		"\x01\x02\x03\x04\x05\x06\x07\x08" + "\x04\x00\x00\x00" + "gold" + "wxyz"
	if err := os.WriteFile(path, []byte(raw), 0o644); err != nil {
		t.Fatal(err)
	}
	if s, err := NewDirStore(dir); err == nil || !strings.Contains(err.Error(), path) {
		t.Fatalf("NewDirStore over %s = %v, %v; want an error naming it", path, s, err)
	}
}

// A slot is a 512-byte header sector — magic, generation, ID, size,
// checksum, payload length, length-prefixed name, zero padding, then the
// CRC32 of all that — and the payload at offset 4096. Saves alternate
// between the two slots, each overwriting the older.
func TestDirStoreFileLayout(t *testing.T) {
	dir := t.TempDir()
	s := newDirStore(t, dir)
	meta := Meta{ID: 0x04030201, Name: "gold", Size: 4, Sum: 0x0807060504030201}
	if err := s.Save(meta, []byte("wxyz")); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(dir, "gold.pool.0"))
	if err != nil {
		t.Fatal(err)
	}
	head := "NVREFSL1" + "\x01\x00\x00\x00\x00\x00\x00\x00" + "\x01\x02\x03\x04" +
		"\x04\x00\x00\x00\x00\x00\x00\x00" + "\x01\x02\x03\x04\x05\x06\x07\x08" +
		"\x04\x00\x00\x00\x00\x00\x00\x00" + "\x04\x00" + "gold"
	want := head + strings.Repeat("\x00", 508-len(head)) + "\x27\x98\xc0\x5b" +
		strings.Repeat("\x00", 4096-512) + "wxyz"
	if string(raw) != want {
		t.Fatalf("slot 0 bytes %q, want %q", raw, want)
	}
	if err := s.Save(meta, []byte("WXYZ")); err != nil {
		t.Fatal(err)
	}
	if again, err := os.ReadFile(filepath.Join(dir, "gold.pool.0")); err != nil || string(again) != want {
		t.Fatalf("second save touched slot 0: %v", err)
	}
	raw, err = os.ReadFile(filepath.Join(dir, "gold.pool.1"))
	if err != nil || binary.LittleEndian.Uint64(raw[8:]) != 2 || string(raw[4096:]) != "WXYZ" {
		t.Fatalf("second save: slot 1 generation/payload wrong (%v)", err)
	}
}

// TestDirStoreTornAndCorruptSlots builds by hand what a crash or media
// damage can leave on disk and holds Load to its contract: the newest
// intact generation, or ErrCorrupt — never a silently older image. After
// each, one save must make the store whole again.
func TestDirStoreTornAndCorruptSlots(t *testing.T) {
	image := func(id uint32, fill byte) (Meta, []byte) {
		data := bytes.Repeat([]byte{fill}, 8192)
		return Meta{ID: id, Name: "p", Size: uint64(len(data)), Sum: ImageChecksum(data)}, data
	}
	metaA, dataA := image(1, 'a')
	metaB, dataB := image(2, 'b')
	_, dataC := image(3, 'c')
	slot := func(dir string, i int) string { return filepath.Join(dir, fmt.Sprintf("p.pool.%d", i)) }
	saveAB := func(t *testing.T, dir string) {
		s := newDirStore(t, dir)
		if err := s.Save(metaA, dataA); err != nil {
			t.Fatal(err)
		}
		if err := s.Save(metaB, dataB); err != nil {
			t.Fatal(err)
		}
	}
	writeAt := func(t *testing.T, path string, off int64, b []byte) {
		f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		if _, err := f.WriteAt(b, off); err != nil {
			t.Fatal(err)
		}
	}
	flip := func(t *testing.T, path string, off int64) {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		writeAt(t, path, off, []byte{raw[off] ^ 0x10})
	}

	for _, c := range []struct {
		name     string
		build    func(t *testing.T, dir string)
		wantMeta Meta   // zero: no image comes back
		wantData []byte // what comes back with the image
		wantErr  error
	}{
		{"next payload under the old header", func(t *testing.T, dir string) {
			saveAB(t, dir)
			writeAt(t, slot(dir, 0), slotPayload, dataC) // slot 0 held the older A
		}, metaB, dataB, nil},
		{"fresh slot with a zero header", func(t *testing.T, dir string) {
			if err := newDirStore(t, dir).Save(metaA, dataA); err != nil {
				t.Fatal(err)
			}
			writeAt(t, slot(dir, 1), slotPayload, dataC)
		}, metaA, dataA, nil},
		{"only a zero-header slot", func(t *testing.T, dir string) {
			writeAt(t, slot(dir, 0), slotPayload, dataC)
			writeAt(t, slot(dir, 1), 0, nil)
		}, Meta{}, nil, ErrStoreMissing},
		{"flipped byte in the newest header", func(t *testing.T, dir string) {
			saveAB(t, dir)
			flip(t, slot(dir, 1), 30)
		}, Meta{}, nil, ErrCorrupt},
		{"flipped byte in the older header", func(t *testing.T, dir string) {
			saveAB(t, dir)
			flip(t, slot(dir, 0), 9)
		}, Meta{}, nil, ErrCorrupt},
		{"both headers flipped", func(t *testing.T, dir string) {
			saveAB(t, dir)
			flip(t, slot(dir, 0), 500)
			flip(t, slot(dir, 1), 0)
		}, Meta{}, nil, ErrCorrupt},
		{"payload truncated under the newest header", func(t *testing.T, dir string) {
			saveAB(t, dir)
			if err := os.Truncate(slot(dir, 1), slotPayload+1000); err != nil {
				t.Fatal(err)
			}
		}, metaB, dataB[:1000], ErrCorrupt},
	} {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			c.build(t, dir)
			s := newDirStore(t, dir) // a reopen after the crash
			meta, data, err := s.Load("p")
			if !errors.Is(err, c.wantErr) || (c.wantErr == nil && err != nil) {
				t.Fatalf("Load err = %v, want %v", err, c.wantErr)
			}
			if meta != c.wantMeta || !bytes.Equal(data, c.wantData) {
				t.Fatalf("Load = %+v, %d bytes; want %+v, %d bytes", meta, len(data), c.wantMeta, len(c.wantData))
			}

			metaD, dataD := image(4, 'd')
			if err := s.Save(metaD, dataD); err != nil {
				t.Fatal(err)
			}
			for _, st := range []*DirStore{s, newDirStore(t, dir)} {
				if meta, data, err := st.Load("p"); err != nil || meta != metaD || !bytes.Equal(data, dataD) {
					t.Fatalf("Load after the healing save = %+v, %v", meta, err)
				}
			}
			if names, err := s.List(); err != nil || !slices.Equal(names, []string{"p"}) {
				t.Fatalf("List = %q, %v", names, err)
			}
		})
	}
}

// A Load racing Saves of the same name sees one whole image or the other.
func TestDirStoreConcurrentSaveLoad(t *testing.T) {
	s := newDirStore(t, t.TempDir())
	const size = 16 << 10
	save := func(id uint32) error {
		return s.Save(Meta{ID: id, Name: "r", Size: size}, bytes.Repeat([]byte{byte(id)}, size))
	}
	if err := save(1); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				meta, data, err := s.Load("r")
				if err != nil || len(data) != size || bytes.Count(data, []byte{byte(meta.ID)}) != size {
					t.Errorf("Load during saves: id %d, %d bytes, %v", meta.ID, len(data), err)
					return
				}
			}
		}()
	}
	for i := 0; i < 40; i++ {
		if err := save(uint32(2 + i%2)); err != nil {
			t.Error(err)
			break
		}
	}
	close(stop)
	wg.Wait()
}

// FuzzDirStoreLoad writes arbitrary bytes into both slot files of one name
// (an empty input leaves the file out): Load must not panic, returns a
// whole image only under an intact header, and reports a damaged header as
// ErrCorrupt.
func FuzzDirStoreLoad(f *testing.F) {
	dir := f.TempDir()
	s := newDirStore(f, dir)
	for i, fill := range []byte{'a', 'b'} {
		if err := s.Save(Meta{ID: uint32(i), Name: "f", Size: 600}, bytes.Repeat([]byte{fill}, 600)); err != nil {
			f.Fatal(err)
		}
	}
	slot0, err0 := os.ReadFile(filepath.Join(dir, "f.pool.0"))
	slot1, err1 := os.ReadFile(filepath.Join(dir, "f.pool.1"))
	if err0 != nil || err1 != nil {
		f.Fatal(err0, err1)
	}
	f.Add(slot0, slot1)
	f.Add(slot0[:4200], slot1)
	f.Add([]byte{}, slot1[:slotHeader])
	f.Add(make([]byte, slotHeader), []byte{})

	// One directory per fuzzing process, rewritten by each input.
	dir = f.TempDir()
	f.Fuzz(func(t *testing.T, s0, s1 []byte) {
		var heads [2]slotHead
		damaged := false
		for i, b := range [][]byte{s0, s1} {
			path := filepath.Join(dir, fmt.Sprintf("f.pool.%d", i))
			if len(b) == 0 {
				if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
					t.Fatal(err)
				}
				continue
			}
			sector := make([]byte, slotHeader)
			copy(sector, b)
			var ok bool
			heads[i], ok = decodeSlotHead(sector)
			damaged = damaged || (!ok && !bytes.Equal(sector, zeroSector[:]))
			if err := os.WriteFile(path, b, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		meta, data, err := newDirStore(t, dir).Load("f")
		switch {
		case err == nil:
			if uint64(len(data)) != meta.Size {
				t.Fatalf("image of %d bytes under Meta.Size %d", len(data), meta.Size)
			}
		case errors.Is(err, ErrCorrupt), errors.Is(err, ErrStoreMissing):
		default:
			t.Fatalf("Load: unexpected error %v", err)
		}
		if damaged && !errors.Is(err, ErrCorrupt) {
			t.Fatalf("damaged slot header: err = %v, want ErrCorrupt", err)
		}
		newest := heads[0]
		if heads[1].gen > newest.gen {
			newest = heads[1]
		}
		if newest.gen != 0 && err == nil && meta != newest.meta {
			t.Fatalf("Load = %+v, newest intact header holds %+v", meta, newest.meta)
		}
	})
}

// BenchmarkDirStoreSave times one save, sync included, of an op-log tail
// sized image and of a pool-sized one, rewriting the same name.
func BenchmarkDirStoreSave(b *testing.B) {
	for _, c := range []struct {
		name string
		size int
	}{{"tail-8KiB", 8 << 10}, {"pool-32MiB", 32 << 20}} {
		b.Run(c.name, func(b *testing.B) {
			s := newDirStore(b, b.TempDir())
			data := make([]byte, c.size)
			meta := Meta{ID: 1, Name: "bench", Size: uint64(c.size)}
			b.SetBytes(int64(c.size))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				data[0] = byte(i)
				if err := s.Save(meta, data); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
