// Package pmem implements persistent memory object pools (PMOPs) over the
// simulated address space: named, system-wide identified pools that are
// mapped into the NVM half of a process's virtual address space, possibly at
// a different base address in every run.
//
// The package provides the software side of the paper's reference
// machinery: the Registry is a core.Translator (va2ra / ra2va), each pool
// embeds a persistent free-list allocator whose metadata lives inside the
// pool itself (so it survives snapshot, restore, and remapping), and a Store
// abstraction persists pool images between simulated runs.
package pmem

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc64"
	"sort"

	"nvref/internal/core"
	"nvref/internal/fault"
	"nvref/internal/mem"
	"nvref/internal/parity"
)

// Pool geometry and header layout. All header fields are 64-bit
// little-endian words at fixed offsets from the pool base, so they are
// position independent by construction.
const (
	headerMagic   = uint64(0x4c4f4f504d50564e) // "NVPMPOOL"
	headerVersion = uint64(1)

	offMagic      = 0
	offVersion    = 8
	offPoolSize   = 16
	offFreeHead   = 24
	offBumpNext   = 32
	offAllocCount = 40
	offBytesInUse = 48
	offRootObj    = 56

	// RootOffset is the pool offset of the root object reference slot,
	// exported so runtimes can address the root as an ordinary NVM pointer
	// location.
	RootOffset = uint64(offRootObj)

	// HeapStart is the pool offset where allocatable space begins.
	HeapStart = uint64(128)

	// blockHeaderSize precedes every allocated or free block.
	blockHeaderSize = uint64(16)
	// allocMagic marks the second header word of a live block.
	allocMagic = uint64(0xA110CA7EDB10C000)
	// allocAlign is the allocation granularity.
	allocAlign = uint64(16)

	// MinPoolSize is the smallest usable pool.
	MinPoolSize = uint64(4096)
	// MaxPoolSize is bounded by the 32-bit intra-pool offset.
	MaxPoolSize = uint64(1) << 32
)

// Errors reported by the pool layer.
var (
	ErrPoolExists   = errors.New("pmem: pool already exists")
	ErrNoSuchPool   = errors.New("pmem: no such pool")
	ErrBadPoolSize  = errors.New("pmem: invalid pool size")
	ErrPoolDetached = errors.New("pmem: pool is detached")
	ErrOutOfMemory  = errors.New("pmem: pool out of memory")
	ErrBadFree      = errors.New("pmem: free of invalid block")
	ErrCorrupt      = errors.New("pmem: pool image is corrupt")
	ErrBadOffset    = errors.New("pmem: offset outside pool")
)

// Meta is the durable identity of a pool, stored alongside its image.
type Meta struct {
	ID   uint32
	Name string
	Size uint64
	// Sum is the CRC64 (ECMA) of the image bytes. Every writer sets it and
	// every reader checks it: zero is the checksum of an empty image, not
	// "unknown".
	Sum uint64
}

var crcTable = crc64.MakeTable(crc64.ECMA)

// ImageChecksum computes the integrity checksum recorded in Meta.Sum.
func ImageChecksum(data []byte) uint64 { return crc64.Checksum(data, crcTable) }

// verify validates a loaded image against its metadata: the payload must
// be exactly Meta.Size bytes (a shorter one is a torn write) and match
// Meta.Sum (a mismatch is a media error such as a bit flip). Either
// failure is ErrCorrupt: a damaged image is never silently mapped. A valid
// image's page sums are returned for its saved record.
func (r *Registry) verify(meta Meta, data []byte) ([]uint64, error) {
	if uint64(len(data)) != meta.Size {
		return nil, fmt.Errorf("%w: %q: image %d bytes, meta says %d",
			ErrCorrupt, meta.Name, len(data), meta.Size)
	}
	sums, sum := r.pageSums(data)
	if sum != meta.Sum {
		return nil, fmt.Errorf("%w: %q: image checksum %#x, meta says %#x",
			ErrCorrupt, meta.Name, sum, meta.Sum)
	}
	return sums, nil
}

// Store persists pool images between simulated runs. It models the NVM
// devices themselves, as opposed to the mapped view of them.
type Store interface {
	// Save durably records the pool image.
	Save(meta Meta, data []byte) error
	// Load retrieves a pool image by name.
	Load(name string) (Meta, []byte, error)
	// List returns the names of stored pools, sorted.
	List() ([]string, error)
	// Delete removes a stored pool.
	Delete(name string) error
}

// Pool is one attached or detached persistent memory object pool.
type Pool struct {
	reg      *Registry
	id       uint32
	name     string
	size     uint64
	base     uint64 // current mapping base; 0 when detached
	attached bool
}

// ID returns the system-wide pool ID.
func (p *Pool) ID() uint32 { return p.id }

// Name returns the pool's name.
func (p *Pool) Name() string { return p.name }

// Size returns the pool's size in bytes.
func (p *Pool) Size() uint64 { return p.size }

// Base returns the current mapping base address (0 when detached).
func (p *Pool) Base() uint64 { return p.base }

// Attached reports whether the pool is currently mapped.
func (p *Pool) Attached() bool { return p.attached }

// RegistryStats counts the pool-lifecycle and store-path events the
// observability plane exports. Retries and fsck findings are the interesting
// series: both are zero on a healthy run.
type RegistryStats struct {
	Creates     uint64
	Opens       uint64
	Checkpoints uint64
	Detaches    uint64
	Attaches    uint64

	// StoreRetries counts extra attempts after transient store faults on
	// the snapshot and open paths (first attempts are not counted).
	StoreRetries uint64

	BytesSaved  uint64 // image bytes checkpointed to the store
	BytesLoaded uint64 // image bytes restored from the store
	// DirtyPages counts the pages checkpoints took as written since the
	// pool's previously saved image — store-time tags, plus every page when
	// there was no such image — and so checksummed and (parity armed)
	// folded into parity.
	DirtyPages uint64

	// Fsck findings, accumulated over every check run against this
	// registry's pools (Repair's rescans included).
	FsckRuns   uint64
	FsckErrors uint64
	FsckWarns  uint64
	Repairs    uint64 // Repair passes that reclaimed crash residue

	// Media-fault series, all zero unless a parity policy is enabled.
	// PagesRepaired counts data pages reconstructed from parity (in
	// memory; Healed media reports say whether the store copy was also
	// rewritten). MediaUnrecoverable counts rangelets whose damage
	// exceeded parity's reach — data and parity corrupt together, or two
	// pages of one rangelet.
	ParityPages        uint64 // parity pages currently maintained (gauge)
	ParityBuilds       uint64 // full sidecar builds
	ParityUpdates      uint64 // incremental old-xor-new delta updates
	ParityPageWrites   uint64 // parity pages rewritten by delta updates
	MediaScrubs        uint64 // media verify passes (ScrubMedia)
	MediaBadPages      uint64 // data pages found failing their CRC
	PagesRepaired      uint64 // data pages reconstructed from parity
	ParityRebuilds     uint64 // sidecars rebuilt (stale, missing, or parity-page damage)
	MediaUnrecoverable uint64 // rangelets beyond parity's reach
}

// Registry owns the process's pools and implements core.Translator. The
// pool mapping base is chosen by a bump allocator over the NVM half of the
// address space; distinct Registry instances (distinct "runs") can start at
// different bases to exercise relocation.
type Registry struct {
	as       *mem.AddressSpace
	store    Store
	byID     map[uint32]*Pool
	byName   map[string]*Pool
	attached []*Pool // sorted by base, for va2ra lookup
	nextID   uint32
	nextBase uint64
	retry    fault.RetryPolicy

	// parity is the media-fault policy (the zero value disables it). saved
	// holds, per pool name, the images last saved or loaded, which the next
	// checkpoint patches (image.go). pageSize is the granule of their page
	// sums and dirty lists — the parity page, so one dirty list serves the
	// checksum and the parity delta alike — and shift appends one such page
	// to a CRC.
	parity   parity.Policy
	saved    map[string]*saved
	pageSize int
	shift    *crcShift

	Stats RegistryStats
}

// Option configures a Registry.
type Option func(*Registry)

// WithMapBase sets the first virtual address at which pools are mapped.
// It must lie in the NVM half of the address space. Using different bases
// in different runs exercises pointer relocation.
func WithMapBase(base uint64) Option {
	return func(r *Registry) { r.nextBase = base }
}

// WithParity enables the media-fault-tolerance layer: every checkpoint
// maintains a per-page-CRC + XOR-parity sidecar next to the pool image,
// and corrupt images encountered on the open/reattach path are repaired
// in place from parity (single bad page per rangelet) instead of failing
// with ErrCorrupt.
func WithParity(pol parity.Policy) Option {
	return func(r *Registry) { r.parity = pol }
}

// WithRetryPolicy overrides how the registry retries transient store faults
// (fault.ErrTransient) on its snapshot and open paths. The default is
// fault.DefaultRetry.
func WithRetryPolicy(p fault.RetryPolicy) Option {
	return func(r *Registry) { r.retry = p }
}

// NewRegistry creates a pool registry over the given address space, backed
// by store. A nil store disables persistence (pools live only in-process).
func NewRegistry(as *mem.AddressSpace, store Store, opts ...Option) *Registry {
	r := &Registry{
		as:       as,
		store:    store,
		byID:     make(map[uint32]*Pool),
		byName:   make(map[string]*Pool),
		nextID:   1,
		nextBase: mem.NVMBase + 16*mem.PageSize,
		retry:    fault.DefaultRetry,
		saved:    make(map[string]*saved),
	}
	for _, o := range opts {
		o(r)
	}
	r.pageSize = r.parity.PageBytes()
	r.shift = newCRCShift(r.pageSize)
	return r
}

// AddressSpace returns the address space pools are mapped into.
func (r *Registry) AddressSpace() *mem.AddressSpace { return r.as }

// Create makes a new pool of the given size, maps it, and initializes its
// allocator. The size is rounded up to a whole number of pages.
func (r *Registry) Create(name string, size uint64) (*Pool, error) {
	if _, ok := r.byName[name]; ok {
		return nil, fmt.Errorf("%w: %q", ErrPoolExists, name)
	}
	if r.store != nil {
		if _, _, err := r.store.Load(name); err == nil {
			return nil, fmt.Errorf("%w: %q (in store)", ErrPoolExists, name)
		}
	}
	size = (size + mem.PageSize - 1) &^ (mem.PageSize - 1)
	if size < MinPoolSize || size > MaxPoolSize {
		return nil, fmt.Errorf("%w: %d", ErrBadPoolSize, size)
	}
	p := &Pool{reg: r, id: r.nextID, name: name, size: size}
	r.nextID++
	if err := r.mapPool(p); err != nil {
		return nil, err
	}
	if err := p.initHeader(); err != nil {
		return nil, err
	}
	r.register(p)
	r.Stats.Creates++
	return p, nil
}

// Open loads a pool image from the backing store and maps it, possibly at a
// different base address than in previous runs. Pointers inside the pool
// remain valid because they are stored in relative form. The image is read
// by the media walk (media.go), repairing from parity when it is armed.
func (r *Registry) Open(name string) (*Pool, error) {
	if p, ok := r.byName[name]; ok {
		if !p.attached {
			return p, r.reattach(p)
		}
		return p, nil
	}
	if r.store == nil {
		return nil, fmt.Errorf("%w: %q", ErrNoSuchPool, name)
	}
	meta, data, _, err := r.walk(name, r.parity.Enabled)
	if err != nil {
		return nil, err
	}
	r.Stats.BytesLoaded += uint64(len(data))
	p := &Pool{reg: r, id: meta.ID, name: name, size: meta.Size}
	if err := r.mapPool(p); err != nil {
		return nil, err
	}
	if err := r.as.Restore(p.base, data); err != nil {
		return nil, err
	}
	if err := p.checkHeader(); err != nil {
		return nil, err
	}
	if meta.ID >= r.nextID {
		r.nextID = meta.ID + 1
	}
	r.register(p)
	r.Stats.Opens++
	return p, nil
}

// retryCounted runs op under the registry's retry policy, counting the
// extra attempts transient faults cost into st.StoreRetries — the
// registry's Stats, or a checkpoint save's own until it commits.
func (r *Registry) retryCounted(st *RegistryStats, op func() error) error {
	first := true
	return r.retry.Retry(func() error {
		if !first {
			st.StoreRetries++
		}
		first = false
		return op()
	})
}

// Checkpoint durably saves the pool's current contents to the store,
// retrying transient store faults per the registry's retry policy, and
// returns once the image (and, parity armed, its sidecar) is saved. The
// saved metadata records the image checksum so later opens detect torn or
// bit-flipped images; it is computed from the pages written since the
// previous checkpoint (image.go). Checkpoint is BeginCheckpoint, Run and
// Commit in a row.
func (r *Registry) Checkpoint(p *Pool) error {
	s, err := r.BeginCheckpoint(p)
	if err != nil {
		return err
	}
	_ = s.Run() // Commit returns its error
	return s.Commit()
}

// Close checkpoints the pool and removes it from the process: the mapping
// is torn down and the pool is forgotten until reopened.
func (r *Registry) Close(p *Pool) error {
	if p.attached {
		if err := r.Checkpoint(p); err != nil {
			return err
		}
		if err := r.unmapPool(p); err != nil {
			return err
		}
	}
	delete(r.byID, p.id)
	delete(r.byName, p.name)
	delete(r.saved, p.name)
	r.refreshParityPages()
	return nil
}

// Detach unmaps the pool but keeps it registered; subsequent RA2VA on its
// relative addresses fails with ErrPoolDetached (the paper's Figure 10
// scenario). The contents are checkpointed first so Attach can restore them.
func (r *Registry) Detach(p *Pool) error {
	if !p.attached {
		return fmt.Errorf("%w: %q", ErrPoolDetached, p.name)
	}
	if r.store != nil {
		if err := r.Checkpoint(p); err != nil {
			return err
		}
	}
	if err := r.unmapPool(p); err != nil {
		return err
	}
	r.Stats.Detaches++
	return nil
}

// Attach remaps a detached pool, restoring its checkpointed contents, at a
// fresh base address.
func (r *Registry) Attach(p *Pool) error {
	if p.attached {
		return nil
	}
	return r.reattach(p)
}

func (r *Registry) reattach(p *Pool) error {
	var data []byte
	if r.store != nil {
		_, d, _, err := r.walk(p.name, r.parity.Enabled)
		if err != nil {
			return err
		}
		r.Stats.BytesLoaded += uint64(len(d))
		data = d
	}
	if err := r.mapPool(p); err != nil {
		return err
	}
	if data != nil {
		if err := r.as.Restore(p.base, data); err != nil {
			return err
		}
		if err := p.checkHeader(); err != nil {
			return err
		}
		r.Stats.Attaches++
		return nil
	}
	if err := p.initHeader(); err != nil {
		return err
	}
	r.Stats.Attaches++
	return nil
}

// Pools returns all registered pools sorted by ID.
func (r *Registry) Pools() []*Pool {
	out := make([]*Pool, 0, len(r.byID))
	for _, p := range r.byID {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].id < out[j].id })
	return out
}

// Lookup returns the registered pool with the given ID.
func (r *Registry) Lookup(id uint32) (*Pool, bool) {
	p, ok := r.byID[id]
	return p, ok
}

func (r *Registry) register(p *Pool) {
	r.byID[p.id] = p
	r.byName[p.name] = p
}

func (r *Registry) mapPool(p *Pool) error {
	base := r.nextBase
	if err := r.as.Map(base, p.size, "pool:"+p.name); err != nil {
		return err
	}
	// Leave a guard gap between pools so stray pointer arithmetic faults.
	r.nextBase = base + p.size + 16*mem.PageSize
	p.base = base
	p.attached = true
	r.insertAttached(p)
	return nil
}

func (r *Registry) unmapPool(p *Pool) error {
	if err := r.as.Unmap(p.base, p.size); err != nil {
		return err
	}
	p.attached = false
	r.removeAttached(p)
	p.base = 0
	return nil
}

func (r *Registry) insertAttached(p *Pool) {
	i := sort.Search(len(r.attached), func(i int) bool { return r.attached[i].base >= p.base })
	r.attached = append(r.attached, nil)
	copy(r.attached[i+1:], r.attached[i:])
	r.attached[i] = p
}

func (r *Registry) removeAttached(p *Pool) {
	for i, q := range r.attached {
		if q == p {
			r.attached = append(r.attached[:i], r.attached[i+1:]...)
			return
		}
	}
}

// RA2VA implements core.Translator: relative address to current virtual
// address. This is the software analog of the POLB/POW path.
func (r *Registry) RA2VA(p core.Ptr) (uint64, error) {
	pool, ok := r.byID[p.PoolID()]
	if !ok {
		return 0, fmt.Errorf("%w: pool %d", core.ErrUnknownPool, p.PoolID())
	}
	if !pool.attached {
		return 0, fmt.Errorf("%w: pool %q", core.ErrDetachedPool, pool.name)
	}
	off := uint64(p.Offset())
	if off >= pool.size {
		return 0, fmt.Errorf("%w: offset %#x in pool %q of size %#x", ErrBadOffset, off, pool.name, pool.size)
	}
	return pool.base + off, nil
}

// VA2RA implements core.Translator: virtual address to relative address, by
// longest-prefix-style range lookup over the attached pools. This is the
// software analog of the VALB/VAW path.
func (r *Registry) VA2RA(va uint64) (core.Ptr, bool) {
	i := sort.Search(len(r.attached), func(i int) bool {
		p := r.attached[i]
		return p.base+p.size > va
	})
	if i < len(r.attached) {
		p := r.attached[i]
		if va >= p.base && va < p.base+p.size {
			return core.MakeRelative(p.id, uint32(va-p.base)), true
		}
	}
	return core.Null, false
}

var _ core.Translator = (*Registry)(nil)

// ---- In-pool word access -------------------------------------------------

func (p *Pool) load64(off uint64) uint64 {
	v, err := p.reg.as.Load64(p.base + off)
	if err != nil {
		panic(fmt.Sprintf("pmem: internal header access failed: %v", err))
	}
	return v
}

func (p *Pool) store64(off uint64, v uint64) {
	if err := p.reg.as.Store64(p.base+off, v); err != nil {
		panic(fmt.Sprintf("pmem: internal header access failed: %v", err))
	}
}

func (p *Pool) initHeader() error {
	p.store64(offMagic, headerMagic)
	p.store64(offVersion, headerVersion)
	p.store64(offPoolSize, p.size)
	p.store64(offFreeHead, 0)
	p.store64(offBumpNext, HeapStart)
	p.store64(offAllocCount, 0)
	p.store64(offBytesInUse, 0)
	p.store64(offRootObj, 0)
	return nil
}

func (p *Pool) checkHeader() error {
	if p.load64(offMagic) != headerMagic {
		return fmt.Errorf("%w: bad magic in pool %q", ErrCorrupt, p.name)
	}
	if p.load64(offVersion) != headerVersion {
		return fmt.Errorf("%w: unsupported version in pool %q", ErrCorrupt, p.name)
	}
	if p.load64(offPoolSize) != p.size {
		return fmt.Errorf("%w: size mismatch in pool %q", ErrCorrupt, p.name)
	}
	return nil
}

// SetRoot stores the pool's root object reference. Roots are how a new run
// finds the data; they are stored in relative form.
func (p *Pool) SetRoot(root core.Ptr) { p.store64(offRootObj, uint64(root)) }

// Root returns the pool's root object reference.
func (p *Pool) Root() core.Ptr { return core.Ptr(p.load64(offRootObj)) }

// AllocCount returns the number of live allocations.
func (p *Pool) AllocCount() uint64 { return p.load64(offAllocCount) }

// BytesInUse returns the bytes consumed by live allocations, including
// block headers.
func (p *Pool) BytesInUse() uint64 { return p.load64(offBytesInUse) }

// binary.LittleEndian is used throughout for on-pool encoding; reference it
// here so the layout contract is explicit at the package level too.
var _ = binary.LittleEndian
