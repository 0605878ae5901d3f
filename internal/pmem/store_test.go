package pmem

import (
	"errors"
	"os"
	"path/filepath"
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

func TestDirStoreEscapesNames(t *testing.T) {
	s, err := NewDirStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Save(Meta{ID: 1, Name: "a/b", Size: 1}, []byte("x")); err != nil {
		t.Fatalf("Save with slash in name: %v", err)
	}
	meta, _, err := s.Load("a/b")
	if err != nil || meta.Name != "a/b" {
		t.Errorf("Load escaped name = %+v, %v", meta, err)
	}
}

// The file layout is fixed — magic, ID, size, checksum, length-prefixed
// name, payload — so images written by any earlier version load unchanged.
func TestDirStoreFileLayout(t *testing.T) {
	dir := t.TempDir()
	s, err := NewDirStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	meta := Meta{ID: 0x04030201, Name: "gold", Size: 4, Sum: 0x0807060504030201}
	if err := s.Save(meta, []byte("wxyz")); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(dir, "gold.pool"))
	if err != nil {
		t.Fatal(err)
	}
	want := "NVREFPL2" + "\x01\x02\x03\x04" + "\x04\x00\x00\x00\x00\x00\x00\x00" +
		"\x01\x02\x03\x04\x05\x06\x07\x08" + "\x04\x00\x00\x00" + "gold" + "wxyz"
	if string(raw) != want {
		t.Fatalf("file bytes %q, want %q", raw, want)
	}
}
