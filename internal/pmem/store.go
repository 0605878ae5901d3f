package pmem

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
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

// Save implements Store. An image the same length as the one it replaces
// is copied over it in place, so a checkpoint allocates nothing here.
func (s *MemStore) Save(meta Meta, data []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	img := s.images[meta.Name]
	if len(img.data) != len(data) {
		img.data = make([]byte, len(data))
	}
	copy(img.data, data)
	img.meta = meta
	s.images[meta.Name] = img
	return nil
}

// Load implements Store. It copies under the read lock, because a Save
// rewrites the stored bytes in place.
func (s *MemStore) Load(name string) (Meta, []byte, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	img, ok := s.images[name]
	if !ok {
		return Meta{}, nil, fmt.Errorf("%w: %q", ErrStoreMissing, name)
	}
	return img.meta, bytes.Clone(img.data), nil
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

// DirStore persists pool images as files in a directory. Each stored name
// owns two slot files, <name>.pool.0 and <name>.pool.1, with '%', '/' and
// the OS path separator in the name percent-encoded. A slot is a
// 512-byte header — magic, generation, Meta, payload length, CRC32 — and,
// at offset 4096, the image. Save rewrites in place the slot holding the
// older generation: payload, sync, header, sync. The header fits one
// sector, which the device is assumed to write whole, so a crash leaves
// that slot with its old header or its new one; Load returns the highest
// intact generation, so it sees the old image or the new one, never a mix.
// Disk use is two slots per name, each as long as the largest image ever
// saved into it.
//
// The slot layout is the only one read. NewDirStore refuses a directory
// holding a <name>.pool file — the single-file layout that preceded
// slots — rather than open it as empty over the old images.
type DirStore struct {
	dir string

	// mu orders Save, Load and Delete: a slot is rewritten in place, so a
	// Load racing a Save of the same name could read half an image.
	mu    sync.Mutex
	slots map[string]slotPair // per name, what its slot headers hold
}

// slotPair is what the two slot headers of one name hold on disk.
type slotPair struct {
	gen [2]uint64 // each slot's generation; 0 if absent or damaged
	bad [2]bool   // the header is neither intact nor all zero
}

// slotHead is the content of one slot header.
type slotHead struct {
	gen  uint64
	meta Meta
	n    uint64 // payload bytes
}

const (
	slotMagic  = "NVREFSL1"
	slotHeader = 512 // one sector, written whole
	// The payload starts a page in, so writing it never touches the
	// filesystem block that holds the header.
	slotPayload = 4096
	slotFixed   = 8 + 8 + 4 + 8 + 8 + 8 + 2  // magic, gen, ID, size, sum, payload length, name length
	maxSlotName = slotHeader - slotFixed - 4 // the rest of the sector but its CRC32
	fileExt     = ".pool"
)

var (
	zeroSector               [slotHeader]byte // an absent slot's header
	slotExt                  = [2]string{fileExt + ".0", fileExt + ".1"}
	slotEscape, slotUnescape = nameEscapers()
)

// nameEscapers returns the injective escape of a name into a file name —
// '%', '/' and the OS separator percent-encoded — and its inverse.
func nameEscapers() (*strings.Replacer, *strings.Replacer) {
	enc := []string{"%", "%25", "/", "%2F"}
	if filepath.Separator != '/' {
		enc = append(enc, string(filepath.Separator), fmt.Sprintf("%%%02X", filepath.Separator))
	}
	var dec []string
	for i := 0; i < len(enc); i += 2 {
		dec = append(dec, enc[i+1], enc[i])
	}
	return strings.NewReplacer(enc...), strings.NewReplacer(dec...)
}

// NewDirStore returns a store rooted at dir, creating it if needed. It
// refuses a directory holding a single-file <name>.pool image.
func NewDirStore(dir string) (*DirStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), fileExt) {
			return nil, fmt.Errorf("pmem: %s: a single-file pool image, a layout DirStore no longer reads",
				filepath.Join(dir, e.Name()))
		}
	}
	return &DirStore{dir: dir, slots: make(map[string]slotPair)}, nil
}

func (s *DirStore) slotPath(name string, i int) string {
	return filepath.Join(s.dir, slotEscape.Replace(name)+slotExt[i])
}

func (h slotHead) encode() []byte {
	b := append(make([]byte, 0, slotHeader), slotMagic...)
	b = binary.LittleEndian.AppendUint64(b, h.gen)
	b = binary.LittleEndian.AppendUint32(b, h.meta.ID)
	b = binary.LittleEndian.AppendUint64(b, h.meta.Size)
	b = binary.LittleEndian.AppendUint64(b, h.meta.Sum)
	b = binary.LittleEndian.AppendUint64(b, h.n)
	b = binary.LittleEndian.AppendUint16(b, uint16(len(h.meta.Name)))
	b = append(b, h.meta.Name...)
	b = b[:slotHeader-4] // zero padding
	return binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(b))
}

// decodeSlotHead parses a header sector; ok is false unless it is intact.
func decodeSlotHead(b []byte) (h slotHead, ok bool) {
	if string(b[:len(slotMagic)]) != slotMagic ||
		binary.LittleEndian.Uint32(b[slotHeader-4:]) != crc32.ChecksumIEEE(b[:slotHeader-4]) {
		return slotHead{}, false
	}
	h.gen = binary.LittleEndian.Uint64(b[8:])
	h.meta.ID = binary.LittleEndian.Uint32(b[16:])
	h.meta.Size = binary.LittleEndian.Uint64(b[20:])
	h.meta.Sum = binary.LittleEndian.Uint64(b[28:])
	h.n = binary.LittleEndian.Uint64(b[36:])
	n := int(binary.LittleEndian.Uint16(b[44:]))
	if h.gen == 0 || n > maxSlotName {
		return slotHead{}, false
	}
	h.meta.Name = string(b[slotFixed : slotFixed+n])
	return h, true
}

// readSlotHead reads one slot's header. A missing file, or a header sector
// that is all zero — a slot file created by a save that never finished —
// is absent: the zero slotHead. A header that is not intact is bad.
func readSlotHead(path string) (h slotHead, bad bool, err error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return slotHead{}, false, nil
	}
	if err != nil {
		return slotHead{}, false, err
	}
	defer f.Close()
	b := make([]byte, slotHeader)
	if _, err := f.ReadAt(b, 0); err != nil && err != io.EOF {
		return slotHead{}, false, err
	}
	h, ok := decodeSlotHead(b)
	return h, !ok && !bytes.Equal(b, zeroSector[:]), nil
}

// pair reads what name's slot headers hold and remembers it.
func (s *DirStore) pair(name string) (slotPair, [2]slotHead, error) {
	var p slotPair
	var heads [2]slotHead
	for i := range heads {
		var err error
		if heads[i], p.bad[i], err = readSlotHead(s.slotPath(name, i)); err != nil {
			return slotPair{}, heads, err
		}
		p.gen[i] = heads[i].gen
	}
	s.slots[name] = p
	return p, heads, nil
}

// known returns what name's slot headers hold, read from disk only if no
// Save, Load or Delete since the store opened has learned it.
func (s *DirStore) known(name string) (slotPair, error) {
	if p, ok := s.slots[name]; ok {
		return p, nil
	}
	p, _, err := s.pair(name)
	return p, err
}

// writeSlot writes data at the payload offset and syncs it, then writes
// head at offset 0 and syncs again, so a header never names a payload that
// is not yet on the device.
func writeSlot(path string, head, data []byte) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE, 0o644)
	if err != nil {
		return err
	}
	if len(data) > 0 {
		if _, err = f.WriteAt(data, slotPayload); err == nil {
			err = f.Sync()
		}
	}
	if err == nil {
		if _, err = f.WriteAt(head, 0); err == nil {
			err = f.Sync()
		}
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// syncDir fsyncs a directory so a file created in it survives a host crash.
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

// Save implements Store. It overwrites the slot Load would not return —
// the older one, or one whose header is damaged — and refuses a name too
// long to share the header sector with the fixed fields.
func (s *DirStore) Save(meta Meta, data []byte) error {
	if len(meta.Name) > maxSlotName {
		return fmt.Errorf("pmem: pool name of %d bytes: DirStore holds names of at most %d",
			len(meta.Name), maxSlotName)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	p, err := s.known(meta.Name)
	if err != nil {
		return err
	}
	// Forgotten until the save completes: after a failure part-way, what
	// the slot holds is read back from disk.
	delete(s.slots, meta.Name)

	i := 0
	if p.bad[1] || (!p.bad[0] && p.gen[1] < p.gen[0]) {
		i = 1
	}
	head := slotHead{gen: max(p.gen[0], p.gen[1]) + 1, meta: meta, n: uint64(len(data))}
	if err := writeSlot(s.slotPath(meta.Name, i), head.encode(), data); err != nil {
		return err
	}
	// A slot without a generation is a file this save created, or one a
	// crash left before its directory entry was synced.
	if p.gen[i] == 0 && !p.bad[i] {
		if err := syncDir(s.dir); err != nil {
			return err
		}
	}
	p.gen[i], p.bad[i] = head.gen, false
	if o := 1 - i; p.bad[o] {
		// Both headers were damaged: clear the other, or Load would
		// refuse this image for it.
		if err := writeSlot(s.slotPath(meta.Name, o), zeroSector[:], nil); err != nil {
			return err
		}
		p.bad[o] = false
	}
	s.slots[meta.Name] = p
	return nil
}

// Load implements Store. The highest intact generation wins. A damaged
// header is ErrCorrupt whatever the other slot holds, since the damaged
// slot may be the newer one. A payload cut short under an intact header
// comes back, as far as it survives, with ErrCorrupt: the parity layer
// zero-extends it and rebuilds the missing pages, and the op log reads a
// tail up to its last whole record.
func (s *DirStore) Load(name string) (Meta, []byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	p, heads, err := s.pair(name)
	if err != nil {
		return Meta{}, nil, err
	}
	if p.bad[0] || p.bad[1] {
		return Meta{}, nil, fmt.Errorf("%w: %q: damaged slot header", ErrCorrupt, name)
	}
	i := 0
	if heads[1].gen > heads[0].gen {
		i = 1
	}
	if heads[i].gen == 0 {
		return Meta{}, nil, fmt.Errorf("%w: %q", ErrStoreMissing, name)
	}
	data, err := readPayload(s.slotPath(name, i), heads[i].n)
	if err != nil {
		return Meta{}, nil, err
	}
	return sized(name, heads[i].meta, data)
}

// readPayload reads up to n payload bytes of a slot file, fewer if the
// file ends first.
func readPayload(path string, n uint64) ([]byte, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	data := raw[min(len(raw), slotPayload):]
	return data[:min(uint64(len(data)), n)], nil
}

// sized holds a payload to its Meta.Size. A short one is torn: the
// surviving bytes come back with ErrCorrupt. A long one is ErrCorrupt
// alone.
func sized(name string, meta Meta, data []byte) (Meta, []byte, error) {
	if uint64(len(data)) == meta.Size {
		return meta, data, nil
	}
	err := fmt.Errorf("%w: %q: image %d bytes, header says %d", ErrCorrupt, name, len(data), meta.Size)
	if uint64(len(data)) < meta.Size {
		return meta, data, err
	}
	return Meta{}, nil, err
}

// List implements Store. A name is listed once it has a slot file; one
// whose first save never finished is listed but loads as missing.
func (s *DirStore) List() ([]string, error) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, err
	}
	seen := make(map[string]bool)
	var names []string
	for _, e := range entries {
		name, ok := entryName(e.Name())
		if ok && !seen[name] {
			seen[name] = true
			names = append(names, name)
		}
	}
	sort.Strings(names)
	return names, nil
}

// entryName maps a slot file in the store's directory to the name it
// stores.
func entryName(file string) (string, bool) {
	for _, ext := range slotExt {
		if base, ok := strings.CutSuffix(file, ext); ok {
			return slotUnescape.Replace(base), true
		}
	}
	return "", false
}

// Delete implements Store. The older slot goes first, so a crash part-way
// leaves the newest image, never an older one.
func (s *DirStore) Delete(name string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	p, err := s.known(name)
	if err != nil {
		return err
	}
	delete(s.slots, name)
	older := 0
	if p.gen[1] < p.gen[0] {
		older = 1
	}
	found := false
	for _, path := range []string{s.slotPath(name, older), s.slotPath(name, 1-older)} {
		err := os.Remove(path)
		if err != nil && !os.IsNotExist(err) {
			return err
		}
		found = found || err == nil
	}
	if !found {
		return fmt.Errorf("%w: %q", ErrStoreMissing, name)
	}
	return nil
}

var _ Store = (*DirStore)(nil)
