package pmem

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// ErrStoreMissing is returned when a requested pool image is not in the store.
var ErrStoreMissing = errors.New("pmem: pool image not in store")

// MemStore keeps pool images in process memory. It models the NVM devices
// for tests and benchmarks: a new Registry over the same MemStore is a new
// "run" of the program against the same persistent memory. Like the device
// it stands in for, it tolerates concurrent access — the async scrubber and
// the media-fault injectors hit the same store from different goroutines,
// with each Save landing as one atomic image replacement.
type MemStore struct {
	mu     sync.RWMutex
	images map[string]memImage
}

type memImage struct {
	meta Meta
	data []byte
}

// NewMemStore returns an empty in-memory store.
func NewMemStore() *MemStore {
	return &MemStore{images: make(map[string]memImage)}
}

// Save implements Store.
func (s *MemStore) Save(meta Meta, data []byte) error {
	cp := make([]byte, len(data))
	copy(cp, data)
	s.mu.Lock()
	s.images[meta.Name] = memImage{meta: meta, data: cp}
	s.mu.Unlock()
	return nil
}

// Load implements Store.
func (s *MemStore) Load(name string) (Meta, []byte, error) {
	s.mu.RLock()
	img, ok := s.images[name]
	s.mu.RUnlock()
	if !ok {
		return Meta{}, nil, fmt.Errorf("%w: %q", ErrStoreMissing, name)
	}
	cp := make([]byte, len(img.data))
	copy(cp, img.data)
	return img.meta, cp, nil
}

// List implements Store.
func (s *MemStore) List() ([]string, error) {
	s.mu.RLock()
	names := make([]string, 0, len(s.images))
	for n := range s.images {
		names = append(names, n)
	}
	s.mu.RUnlock()
	sort.Strings(names)
	return names, nil
}

// Delete implements Store.
func (s *MemStore) Delete(name string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.images[name]; !ok {
		return fmt.Errorf("%w: %q", ErrStoreMissing, name)
	}
	delete(s.images, name)
	return nil
}

var _ Store = (*MemStore)(nil)

// DirStore persists pool images as files in a directory, one file per pool.
// Image format (version 2): an 8-byte magic, the 4-byte pool ID, the 8-byte
// size, the 8-byte CRC64 image checksum, the length-prefixed name, then the
// raw pool bytes. Version-1 files (no checksum field) are still read; their
// Meta.Sum is zero, which skips the integrity check.
type DirStore struct {
	dir string
}

const (
	fileMagicV1 = "NVREFPL1"
	fileMagicV2 = "NVREFPL2"
	fileExt     = ".pool"
)

// NewDirStore returns a store rooted at dir, creating it if needed.
func NewDirStore(dir string) (*DirStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &DirStore{dir: dir}, nil
}

func (s *DirStore) path(name string) string {
	// Pool names become file names; escape path separators defensively.
	safe := strings.NewReplacer("/", "_", string(filepath.Separator), "_").Replace(name)
	return filepath.Join(s.dir, safe+fileExt)
}

// Save implements Store. The image is written to a temporary file which is
// fsynced before being renamed over the target, and the directory is
// fsynced after the rename: without both syncs a host crash could leave a
// truncated image (or no directory entry at all) behind the atomic-rename
// promise.
func (s *DirStore) Save(meta Meta, data []byte) error {
	head := make([]byte, 0, len(fileMagicV2)+4+8+8+4+len(meta.Name))
	head = append(head, fileMagicV2...)
	head = binary.LittleEndian.AppendUint32(head, meta.ID)
	head = binary.LittleEndian.AppendUint64(head, meta.Size)
	head = binary.LittleEndian.AppendUint64(head, meta.Sum)
	head = binary.LittleEndian.AppendUint32(head, uint32(len(meta.Name)))
	head = append(head, meta.Name...)

	tmp := s.path(meta.Name) + ".tmp"
	if err := writeFileSync(tmp, head, data); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, s.path(meta.Name)); err != nil {
		os.Remove(tmp)
		return err
	}
	return syncDir(s.dir)
}

// writeFileSync writes the chunks to path, in order, and fsyncs the file
// before closing it.
func writeFileSync(path string, chunks ...[]byte) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	for _, c := range chunks {
		if _, err := f.Write(c); err != nil {
			f.Close()
			return err
		}
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// syncDir fsyncs a directory so a completed rename survives a host crash.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// Load implements Store.
func (s *DirStore) Load(name string) (Meta, []byte, error) {
	raw, err := os.ReadFile(s.path(name))
	if err != nil {
		if os.IsNotExist(err) {
			return Meta{}, nil, fmt.Errorf("%w: %q", ErrStoreMissing, name)
		}
		return Meta{}, nil, err
	}
	withSum := false
	switch {
	case len(raw) >= len(fileMagicV2) && string(raw[:len(fileMagicV2)]) == fileMagicV2:
		withSum = true
	case len(raw) >= len(fileMagicV1) && string(raw[:len(fileMagicV1)]) == fileMagicV1:
	default:
		return Meta{}, nil, fmt.Errorf("%w: %q: bad file header", ErrCorrupt, name)
	}
	p := len(fileMagicV2)
	fixed := 4 + 8 + 4
	if withSum {
		fixed += 8
	}
	if len(raw) < p+fixed {
		return Meta{}, nil, fmt.Errorf("%w: %q: truncated header", ErrCorrupt, name)
	}
	id := binary.LittleEndian.Uint32(raw[p:])
	p += 4
	size := binary.LittleEndian.Uint64(raw[p:])
	p += 8
	sum := uint64(0)
	if withSum {
		sum = binary.LittleEndian.Uint64(raw[p:])
		p += 8
	}
	nameLen := int(binary.LittleEndian.Uint32(raw[p:]))
	p += 4
	if p+nameLen > len(raw) {
		return Meta{}, nil, fmt.Errorf("%w: %q: truncated name", ErrCorrupt, name)
	}
	storedName := string(raw[p : p+nameLen])
	p += nameLen
	data := raw[p:]
	if uint64(len(data)) < size && withSum {
		// Torn payload under an intact header: a crash or truncation cut
		// the file short. The parsed metadata and the surviving bytes are
		// returned alongside the error so the parity layer can zero-extend
		// the image and reconstruct the missing pages; callers that need an
		// intact image check the error and behave exactly as before.
		return Meta{ID: id, Name: storedName, Size: size, Sum: sum}, data,
			fmt.Errorf("%w: %q: image %d bytes, header says %d", ErrCorrupt, name, len(data), size)
	}
	if uint64(len(data)) != size {
		return Meta{}, nil, fmt.Errorf("%w: %q: image %d bytes, header says %d",
			ErrCorrupt, name, len(data), size)
	}
	return Meta{ID: id, Name: storedName, Size: size, Sum: sum}, data, nil
}

// List implements Store.
func (s *DirStore) List() ([]string, error) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		if n, ok := strings.CutSuffix(e.Name(), fileExt); ok {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	return names, nil
}

// Delete implements Store.
func (s *DirStore) Delete(name string) error {
	err := os.Remove(s.path(name))
	if os.IsNotExist(err) {
		return fmt.Errorf("%w: %q", ErrStoreMissing, name)
	}
	return err
}

var _ Store = (*DirStore)(nil)
