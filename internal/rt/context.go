package rt

import (
	"errors"
	"fmt"
	"slices"

	"nvref/internal/core"
	"nvref/internal/cpu"
	"nvref/internal/fault"
	"nvref/internal/hw"
	"nvref/internal/mem"
	"nvref/internal/obs"
	"nvref/internal/parity"
	"nvref/internal/pmem"
)

// Cost-model constants shared by the software paths. These model
// instruction counts of the runtime routines the SW build links in and of
// the explicit model's access API; everything latency-related (caches, NVM,
// branch mispredictions, POLB/VALB) is simulated structurally.
const (
	// swCheckInstrs is the ALU work of one inline determineX/determineY
	// dispatch (mask, test) excluding its conditional branch, which is
	// simulated through the branch predictor.
	swCheckInstrs = 2
	// swRA2VAInstrs is the software ra2va routine: unpack pool ID and
	// offset, index the pool table, add the base (plus 2 table loads).
	swRA2VAInstrs = 6
	// swRA2VALoads is how many pool-table words the routine reads.
	swRA2VALoads = 2
	// swVA2RAInstrs is the software va2ra routine: binary search of the
	// attached-pool range table (plus swVA2RALoads table reads).
	swVA2RAInstrs = 12
	// swVA2RALoads is how many range-table words the search reads.
	swVA2RALoads = 4
	// explicitAPIInstrs is the per-access overhead of the explicit model's
	// object-ID access discipline (special instruction forms / accessor
	// call) on top of its POLB translation.
	explicitAPIInstrs = 2
	// allocInstrs/freeInstrs model the allocator's instruction work; its
	// header writes are replayed as real stores.
	allocInstrs = 40
	freeInstrs  = 30
	allocStores = 2
)

// Default geometry for the simulated process.
const (
	defaultVHeapBase = uint64(0x10_0000)
	defaultVHeapSize = uint64(256 << 20)
	swTableBase      = uint64(0x8_0000) // runtime pool tables (DRAM)
	swTableSize      = uint64(64 << 10)
	defaultPoolName  = "bench"
	defaultPoolSize  = uint64(256 << 20)
)

// Stats collects the runtime-layer counters the evaluation reports on top
// of the cpu and hw statistics.
type Stats struct {
	PointerLoads     uint64
	PointerStores    uint64
	StorePOps        uint64 // HW: executed storeP instructions
	EATranslations   uint64 // HW: relative→virtual conversions at EA generation / pointer load
	SWCheckBranches  uint64 // SW: dynamic-check conditional branches executed
	ExplicitAccesses uint64 // Explicit: persistent-object accesses through the API
	Allocs           uint64
	Frees            uint64
}

// Context is one simulated execution: an address space, a persistent pool,
// the translation machinery for the selected mode, and the timing model.
type Context struct {
	Mode Mode

	AS     *mem.AddressSpace
	Reg    *pmem.Registry
	Pool   *pmem.Pool
	Env    *core.Env
	MMU    *hw.MMU
	StoreP *hw.StorePUnit
	CPU    *cpu.CPU

	heap  *vheap
	Stats Stats
	// storePBusy holds the completion cycle of each in-flight storeP
	// buffer entry (the 32-entry FSM buffer of the paper's Figure 6).
	storePBusy []uint64

	// Round-robin multi-pool allocation state (see SetPoolCount).
	pools      []*pmem.Pool
	poolFan    int
	poolCursor int

	// DisableReuse turns off the pdy = pxr conversion at pointer loads in
	// the HW model, so every later dereference re-translates through the
	// POLB. It ablates the paper's Figure 12 translation-reuse effect.
	DisableReuse bool
	// MMUCriticalPath charges the POLB/VALB probe latency on every memory
	// access, not only on accesses that need translation — the paper's
	// pessimistic placement of the structures "prior to the TLB", without
	// the bypass predictor it leaves as future work.
	MMUCriticalPath bool

	// tracer, when non-nil, receives one structured event per reference
	// operation (see SetTracer).
	tracer *obs.Tracer

	// policy is the fault-handling policy; see SetPolicy.
	policy fault.Policy
}

// Config parameterizes a Context.
type Config struct {
	Mode     Mode
	PoolSize uint64
	// Store persists the pool; nil keeps it in-process only.
	Store pmem.Store
	// CPUConfig overrides the default Table IV machine when non-nil.
	CPUConfig *cpu.Config
	// PoolMapBase, when nonzero, places the first pool at this address.
	PoolMapBase uint64
	// Policy selects strict or permissive handling of storeP faults
	// across the HW and SW layers; the zero value is fault.Permissive.
	Policy fault.Policy
	// Parity, when enabled, maintains per-page checksums and an XOR
	// parity sidecar for every checkpointed pool image and repairs
	// corrupt images in place on the open path (see internal/parity).
	Parity parity.Policy
}

// New builds a Context for the given mode with a default pool.
func New(cfg Config) (*Context, error) {
	if cfg.PoolSize == 0 {
		cfg.PoolSize = defaultPoolSize
	}
	machine := cpu.DefaultConfig()
	if cfg.CPUConfig != nil {
		machine = *cfg.CPUConfig
		if err := machine.Validate(); err != nil {
			return nil, fmt.Errorf("rt: bad CPUConfig: %w", err)
		}
	}
	as := mem.New()
	var regOpts []pmem.Option
	if cfg.PoolMapBase != 0 {
		regOpts = append(regOpts, pmem.WithMapBase(cfg.PoolMapBase))
	}
	if cfg.Parity.Enabled {
		regOpts = append(regOpts, pmem.WithParity(cfg.Parity))
	}
	reg := pmem.NewRegistry(as, cfg.Store, regOpts...)
	heap, err := newVHeap(as, defaultVHeapBase, defaultVHeapSize)
	if err != nil {
		return nil, err
	}
	if err := as.Map(swTableBase, swTableSize, "rt-tables"); err != nil {
		return nil, err
	}

	c := &Context{
		Mode: cfg.Mode,
		AS:   as,
		Reg:  reg,
		Env:  core.NewEnv(reg),
		MMU:  hw.NewMMU(),
		CPU:  cpu.New(machine),
		heap: heap,
	}
	c.StoreP = hw.NewStorePUnit(c.MMU)
	c.SetPolicy(cfg.Policy)

	// Reopen the pool from a previous run when the store already has it —
	// mapped at whatever base this run's registry chooses — otherwise
	// create it fresh. When both fail, the open's error says why the
	// stored image was refused.
	var pool *pmem.Pool
	var openErr error
	if cfg.Store != nil {
		pool, openErr = reg.Open(defaultPoolName)
	}
	if pool == nil {
		p, err := reg.Create(defaultPoolName, cfg.PoolSize)
		if err != nil {
			return nil, errors.Join(openErr, err)
		}
		pool = p
	}
	c.Pool = pool
	c.pools = []*pmem.Pool{pool}
	c.poolFan = 1
	c.MMU.AttachPool(hw.RangeEntry{Base: pool.Base(), Size: pool.Size(), ID: pool.ID()})
	return c, nil
}

// Persist checkpoints every pool to the backing store, making everything
// reachable from the roots durable across simulated runs.
func (c *Context) Persist() error {
	for _, p := range c.pools {
		if err := c.Reg.Checkpoint(p); err != nil {
			return err
		}
	}
	return nil
}

// MustNew is New for tests and benchmarks where construction cannot fail.
func MustNew(mode Mode) *Context {
	c, err := New(Config{Mode: mode})
	if err != nil {
		panic(err)
	}
	return c
}

// fail reports a simulation-integrity violation. Kernel code runs over
// valid references by construction, so any fault here is a harness bug and
// panics rather than threading error returns through every kernel.
func (c *Context) fail(op string, err error) {
	panic(fmt.Sprintf("rt: %s (%s mode): %v", op, c.Mode, err))
}

// drainMMU credits pending POLB/VALB latency to the timing model.
func (c *Context) drainMMU() {
	if cycles := c.MMU.DrainCycles(); cycles > 0 {
		c.CPU.AddTranslationCycles(cycles)
	}
}

// storePRetire models one storeP occupying an FSM buffer entry for
// latency cycles. Entries retire in the background; the core stalls only
// when every entry is busy at issue time.
func (c *Context) storePRetire(latency uint64) {
	now := c.CPU.Stats.Cycles
	retired := func(done uint64) bool { return done <= now }
	c.storePBusy = slices.DeleteFunc(c.storePBusy, retired)
	if len(c.storePBusy) >= c.StoreP.Entries {
		// Buffer full: stall until the earliest entry retires.
		if earliest := slices.Min(c.storePBusy); earliest > now {
			c.CPU.AddTranslationCycles(earliest - now)
			now = earliest
		}
		c.storePBusy = slices.DeleteFunc(c.storePBusy, retired)
	}
	c.storePBusy = append(c.storePBusy, now+latency)
}

// swCheck models one SW dynamic check: the dispatch instructions plus the
// conditional branch through the predictor.
func (c *Context) swCheck(site *Site, kind uint64, taken bool) {
	c.Stats.SWCheckBranches++
	c.CPU.Exec(swCheckInstrs)
	c.CPU.Branch(site.ID^kind, taken)
}

// Sites for the branches inside the software translation routines.
var (
	siteRA2VAProbe = NewSite("rt.sw.ra2va.probe", true)
	siteVA2RAProbe = NewSite("rt.sw.va2ra.probe", true)
)

// swRA2VACost charges the software ra2va routine. Beyond its table loads,
// the routine probes the pool lookup structure (as libpmemobj's
// pmemobj_direct probes its cuckoo hash): the probe branches resolve on
// address bits, so their direction varies per reference and they predict
// poorly — the conditional statements the paper blames for the SW build's
// branch-misprediction blow-up.
func (c *Context) swRA2VACost(p core.Ptr) {
	c.CPU.Exec(swRA2VAInstrs)
	poolID := p.PoolID()
	for i := 0; i < swRA2VALoads; i++ {
		c.CPU.Load(swTableBase + uint64(poolID%64)*64 + uint64(i*8))
	}
	off := uint64(p.Offset())
	c.CPU.Branch(siteRA2VAProbe.ID, off&(1<<4) != 0)
	c.CPU.Branch(siteRA2VAProbe.ID^0x5bd1, off&(1<<6) != 0)
}

// swVA2RACost charges the software va2ra routine: a binary search over the
// attached-pool ranges whose comparison branches resolve on the address
// being translated.
func (c *Context) swVA2RACost(va uint64) {
	c.CPU.Exec(swVA2RAInstrs)
	for i := 0; i < swVA2RALoads; i++ {
		c.CPU.Load(swTableBase + 4096 + uint64(i)*64)
	}
	for i := 0; i < 3; i++ {
		c.CPU.Branch(siteVA2RAProbe.ID^uint64(i)*0x9e37, va&(1<<(4+2*i)) != 0)
	}
}

// The reference-model steps. Each per-mode arm of the operations below is
// built from these, so each step of the paper's Figure 4 machinery has one
// body: HW ra2va at effective-address generation (hwRA2VA), the HW
// two-operand address pair (hwPair), the SW conversion (swToVA), the SW
// two-operand checks and per-conversion charge (swOperands, swConverted),
// storeP (storeP) and the SW pointerAssignment routine (swAssign).

// hwRA2VA converts a relative reference at effective-address generation:
// one POLB translation, its latency drained into the timing model.
func (c *Context) hwRA2VA(op string, p core.Ptr) uint64 {
	c.Stats.EATranslations++
	va, err := c.MMU.RA2VA(p)
	c.drainMMU()
	if err != nil {
		c.fail(op, err)
	}
	return va
}

// hwPair generates the effective addresses of two operands, either of
// which may be relative, and drains their translation latency once.
func (c *Context) hwPair(op string, p, q core.Ptr) (pv, qv uint64) {
	pv, err := c.MMU.LoadEffectiveAddress(p)
	if err != nil {
		c.fail(op, err)
	}
	qv, err = c.MMU.LoadEffectiveAddress(q)
	c.drainMMU()
	if err != nil {
		c.fail(op, err)
	}
	return pv, qv
}

// swToVA is the SW conversion of one reference to the address it
// designates: the ra2va routine for a relative reference, then the
// semantic layer's row (which counts the dynamic check).
func (c *Context) swToVA(op string, p core.Ptr) uint64 {
	if p.IsRelative() {
		c.swRA2VACost(p)
	}
	va, err := c.Env.ToVA(p)
	if err != nil {
		c.fail(op, err)
	}
	return va
}

// swOperands executes the SW build's per-operand checks of a two-operand
// row (unless the compiler resolved the site statically) and returns the
// conversion count swConverted charges from.
func (c *Context) swOperands(site *Site, kp, kq uint64, p, q core.Ptr) uint64 {
	if !site.Inferred {
		c.swCheck(site, kp, p.IsRelative())
		c.swCheck(site, kq, q.IsRelative())
	}
	return c.Env.Stats.RelToAbs
}

// swConverted finishes a SW two-operand row: it fails the op on err, then
// charges p's ra2va routine once per conversion the row made since before.
func (c *Context) swConverted(op string, before uint64, p core.Ptr, err error) {
	if err != nil {
		c.fail(op, err)
	}
	for n := c.Env.Stats.RelToAbs - before; n > 0; n-- {
		c.swRA2VACost(p)
	}
}

// storeP executes one storeP of q to the location rd names. The unit's
// per-entry FSM buffer hides the translation latency: the op occupies an
// entry until its translations finish, and the core stalls only when all
// entries are busy (this is why the paper's Figure 14 latency sweep is
// nearly flat).
func (c *Context) storeP(op string, rd, q core.Ptr) hw.StorePResult {
	c.Stats.StorePOps++
	res, err := c.StoreP.Execute(rd, q)
	if err != nil {
		c.fail(op, err)
	}
	c.MMU.DrainCycles() // latency accounted through the buffer instead
	c.storePRetire(res.Cycles)
	return res
}

// swAssign is the SW pointerAssignment routine storing q through dest: its
// two checks as real branches (unless the compiler resolved the site
// statically), the conversion, and the va2ra or ra2va routine it called.
func (c *Context) swAssign(op string, site *Site, dest, q core.Ptr) core.Ptr {
	if !site.Inferred {
		c.swCheck(site, 0x33, core.DetermineX(dest) == core.NVM)
		c.swCheck(site, 0x44, q.IsRelative())
	}
	before := c.Env.Stats
	stored, err := c.Env.PointerAssignment(dest, q)
	if err != nil {
		c.fail(op, err)
	}
	if c.Env.Stats.AbsToRel > before.AbsToRel {
		c.swVA2RACost(q.VA())
	}
	if c.Env.Stats.RelToAbs > before.RelToAbs {
		c.swRA2VACost(q)
	}
	return stored
}

// resolve computes the virtual address designated by p (plus a byte
// offset), charging the mode's address-generation costs.
func (c *Context) resolve(site *Site, p core.Ptr, off int64) uint64 {
	va := p.VA()
	switch c.Mode {
	case Volatile: // virtual addresses only
	case Explicit:
		if p.IsRelative() {
			c.Stats.ExplicitAccesses++
			c.CPU.Exec(explicitAPIInstrs)
			v, err := c.MMU.RA2VA(p)
			c.drainMMU()
			if err != nil {
				c.fail("explicit access", err)
			}
			va = v
		}
	case HW:
		if p.IsRelative() {
			va = c.hwRA2VA("hw EA translation", p)
		} else if c.MMUCriticalPath {
			// No translation needed, but the probe sits before the TLB.
			c.CPU.AddTranslationCycles(c.MMU.POLB.HitLatency)
		}
	case SW:
		if !site.Inferred {
			c.swCheck(site, 0x11, p.IsRelative())
		}
		va = c.swToVA("sw ra2va", p)
	default:
		panic("rt: unknown mode")
	}
	return uint64(int64(va) + off)
}

// LoadWord loads the 64-bit scalar at p+off.
func (c *Context) LoadWord(site *Site, p core.Ptr, off int64) uint64 {
	va := c.resolve(site, p, off)
	c.traceAccess(obs.EvLoad, p, off, va)
	c.CPU.Load(va)
	v, err := c.AS.Load64(va)
	if err != nil {
		c.fail("LoadWord", err)
	}
	return v
}

// StoreWord stores a 64-bit scalar at p+off (the storeD instruction).
func (c *Context) StoreWord(site *Site, p core.Ptr, off int64, v uint64) {
	va := c.resolve(site, p, off)
	c.traceAccess(obs.EvStore, p, off, va)
	c.CPU.Store(va)
	if err := c.AS.Store64(va, v); err != nil {
		c.fail("StoreWord", err)
	}
}

// LoadPtr loads the pointer stored at p+off and materializes it in a
// local, applying the pdy = pxr assignment rule: under the transparent
// schemes a relative value loaded into a (volatile) local converts to
// virtual form once, and later dereferences through the local reuse the
// conversion — the effect the paper's Figure 12 credits for beating the
// explicit model, whose object IDs must be converted at every access.
func (c *Context) LoadPtr(site *Site, p core.Ptr, off int64) core.Ptr {
	c.Stats.PointerLoads++
	va := c.resolve(site, p, off)
	c.CPU.Load(va)
	raw, err := c.AS.Load64(va)
	if err != nil {
		c.fail("LoadPtr", err)
	}
	loaded := core.Ptr(raw)
	local := c.loadPtrLocal(site, loaded)
	c.traceLoadPtr(p, off, loaded, local)
	return local
}

// loadPtrLocal applies the mode's local-assignment rule to a loaded word.
func (c *Context) loadPtrLocal(site *Site, loaded core.Ptr) core.Ptr {
	switch c.Mode {
	case Volatile, Explicit:
		// Volatile stores only virtual addresses; Explicit keeps object
		// IDs in locals and converts at each use instead.
		return loaded

	case HW:
		// The DisableReuse ablation keeps the loaded form; each
		// dereference will re-translate at EA generation.
		if c.DisableReuse || !loaded.IsRelative() {
			return loaded
		}
		return core.FromVA(c.hwRA2VA("hw pointer-load translation", loaded))

	case SW:
		if !site.Inferred {
			c.swCheck(site, 0x22, loaded.IsRelative())
		}
		return core.FromVA(c.swToVA("sw pointer-load translation", loaded))
	}
	panic("rt: unknown mode")
}

// StorePtr stores pointer q into the pointer field at p+off. Under HW this
// is the storeP instruction; under SW it is the pointerAssignment runtime
// routine; Explicit stores the object ID unchanged; Volatile stores the
// virtual address.
func (c *Context) StorePtr(site *Site, p core.Ptr, off int64, q core.Ptr) {
	c.Stats.PointerStores++
	switch c.Mode {
	case Volatile, Explicit:
		va := c.resolve(site, p, off)
		c.traceStorePtr(p, off, q, q)
		c.CPU.Store(va)
		if err := c.AS.Store64(va, uint64(q)); err != nil {
			c.fail("StorePtr", err)
		}

	case HW:
		res := c.storeP("storeP", addBytes(p, off), q)
		c.traceStorePtr(p, off, q, res.Value)
		c.CPU.Store(res.StoreVA)
		if err := c.AS.Store64(res.StoreVA, uint64(res.Value)); err != nil {
			c.fail("storeP commit", err)
		}

	case SW:
		va := c.resolve(site, p, off)
		stored := c.swAssign("sw pointerAssignment", site, core.FromVA(va), q)
		c.traceStorePtr(p, off, q, stored)
		c.CPU.Store(va)
		if err := c.AS.Store64(va, uint64(stored)); err != nil {
			c.fail("sw StorePtr commit", err)
		}
	}
}

// PtrEq compares two references for equality under the mode's semantics.
func (c *Context) PtrEq(site *Site, p, q core.Ptr) bool {
	c.CPU.Exec(1)
	switch c.Mode {
	case Volatile, Explicit:
		return p == q
	case HW:
		if p.IsRelative() != q.IsRelative() && !p.IsNull() && !q.IsNull() {
			// Mixed forms: hardware converts the relative side.
			c.Stats.EATranslations++
			pv, qv := c.hwPair("hw compare", p, q)
			return pv == qv
		}
		return p == q
	case SW:
		before := c.swOperands(site, 0x55, 0x66, p, q)
		eq, err := c.Env.Equal(p, q)
		c.swConverted("sw compare", before, p, err)
		return eq
	}
	panic("rt: unknown mode")
}

// PtrLess orders two references under the mode's semantics (the
// relational rows of Figure 4).
func (c *Context) PtrLess(site *Site, p, q core.Ptr) bool {
	c.CPU.Exec(1)
	switch c.Mode {
	case Volatile, Explicit:
		return p < q
	case HW:
		pv, qv := c.hwPair("hw compare", p, q)
		return pv < qv
	case SW:
		before := c.swOperands(site, 0x55, 0x66, p, q)
		less, err := c.Env.Less(p, q)
		c.swConverted("sw compare", before, p, err)
		return less
	}
	panic("rt: unknown mode")
}

// PtrToInt converts a reference to its integer (address) value: the (I)p
// rows of Figure 4. Under the transparent schemes a relative reference
// yields its current virtual address; the explicit model's integer view of
// an object ID is the ID itself, by that model's typed discipline.
func (c *Context) PtrToInt(site *Site, p core.Ptr) uint64 {
	c.CPU.Exec(1)
	switch c.Mode {
	case Volatile, Explicit:
		return uint64(p)
	case HW:
		if p.IsRelative() {
			return c.hwRA2VA("hw ptr-to-int", p)
		}
		return p.VA()
	case SW:
		if !site.Inferred {
			c.swCheck(site, 0x77, p.IsRelative())
		}
		return c.swToVA("sw ptr-to-int", p)
	}
	panic("rt: unknown mode")
}

// PtrDiff subtracts two references in units of elemSize (the pointer
// difference rows of Figure 4).
func (c *Context) PtrDiff(site *Site, p, q core.Ptr, elemSize int64) int64 {
	c.CPU.Exec(2)
	switch c.Mode {
	case Volatile, Explicit:
		return (int64(p) - int64(q)) / elemSize
	case HW:
		pv, qv := c.hwPair("hw ptr diff", p, q)
		return (int64(pv) - int64(qv)) / elemSize
	case SW:
		before := c.swOperands(site, 0x88, 0x99, p, q)
		d, err := c.Env.Diff(p, q, elemSize)
		c.swConverted("sw ptr diff", before, p, err)
		return d
	}
	panic("rt: unknown mode")
}

// PtrAdd advances a reference by n elements of elemSize, preserving its
// representation (the additive rows of Figure 4: no check, no conversion).
func (c *Context) PtrAdd(p core.Ptr, n int64, elemSize int64) core.Ptr {
	c.CPU.Exec(1)
	return addBytes(p, n*elemSize)
}

// addBytes offsets a reference by delta bytes in its own form.
func addBytes(p core.Ptr, delta int64) core.Ptr {
	if p.IsRelative() {
		return p.WithOffset(uint32(int64(p.Offset()) + delta))
	}
	return core.FromVA(uint64(int64(p.VA()) + delta))
}

// IsNull tests a reference against NULL. Null is all-zero in both forms,
// so no mode needs a check or conversion (the p op NULL row of Figure 4).
func (c *Context) IsNull(p core.Ptr) bool {
	c.CPU.Exec(1)
	return p.IsNull()
}

// Branch replays one of the kernel's own conditional branches.
func (c *Context) Branch(site *Site, taken bool) {
	c.CPU.Branch(site.ID, taken)
}

// Exec replays n of the kernel's ALU instructions.
func (c *Context) Exec(n uint64) {
	c.CPU.Exec(n)
}

// Pmalloc allocates a persistent object and returns the reference a local
// variable would hold after the assignment: the transparent schemes convert
// the relative result to virtual form once (pdy = pxr with an inferred
// site, so SW emits no check); Explicit keeps the object ID; Volatile
// allocates on the DRAM heap instead.
func (c *Context) Pmalloc(size uint64) core.Ptr {
	return c.pmallocFrom(c.nextPool(), size)
}

// pmallocFrom is Pmalloc against a chosen pool.
func (c *Context) pmallocFrom(pool *pmem.Pool, size uint64) core.Ptr {
	p := c.pmallocRaw(pool, size)
	c.traceAllocFree(obs.EvAlloc, p, size)
	return p
}

func (c *Context) pmallocRaw(pool *pmem.Pool, size uint64) core.Ptr {
	c.Stats.Allocs++
	c.CPU.Exec(allocInstrs)
	if c.Mode == Volatile {
		va, err := c.heap.alloc(size)
		if err != nil {
			c.fail("Pmalloc(volatile)", err)
		}
		for i := 0; i < allocStores; i++ {
			c.CPU.Store(va + uint64(i*8))
		}
		return core.FromVA(va)
	}
	ref, err := pool.Pmalloc(size)
	if err != nil {
		c.fail("Pmalloc", err)
	}
	hdrVA, err := c.Reg.RA2VA(ref)
	if err != nil {
		c.fail("Pmalloc", err)
	}
	for i := 0; i < allocStores; i++ {
		c.CPU.Store(hdrVA - 16 + uint64(i*8))
	}
	switch c.Mode {
	case Explicit:
		return ref
	case HW:
		return core.FromVA(c.hwRA2VA("Pmalloc hw translation", ref))
	case SW:
		// Inference knows pmalloc returns a relative address: conversion
		// without a dynamic check.
		return core.FromVA(c.swToVA("Pmalloc sw translation", ref))
	}
	panic("rt: unknown mode")
}

// Malloc allocates a volatile object on the DRAM heap.
func (c *Context) Malloc(size uint64) core.Ptr {
	c.Stats.Allocs++
	c.CPU.Exec(allocInstrs)
	va, err := c.heap.alloc(size)
	if err != nil {
		c.fail("Malloc", err)
	}
	for i := 0; i < allocStores; i++ {
		c.CPU.Store(va + uint64(i*8))
	}
	p := core.FromVA(va)
	c.traceAllocFree(obs.EvAlloc, p, size)
	return p
}

// FreeVolatile returns a Malloc'd object of the given size to the heap.
func (c *Context) FreeVolatile(p core.Ptr, size uint64) {
	c.Stats.Frees++
	c.CPU.Exec(freeInstrs)
	c.heap.release(p.VA(), size)
	c.traceAllocFree(obs.EvFree, p, size)
}

// Pfree releases a persistent object (or its volatile stand-in).
func (c *Context) Pfree(p core.Ptr, size uint64) {
	c.Stats.Frees++
	c.CPU.Exec(freeInstrs)
	c.traceAllocFree(obs.EvFree, p, size)
	if c.Mode == Volatile {
		c.heap.release(p.VA(), size)
		return
	}
	if err := c.Pool.Pfree(c.toPoolRef(p)); err != nil {
		c.fail("Pfree", err)
	}
}

// toPoolRef renormalizes a local-form reference to the pool's relative form.
func (c *Context) toPoolRef(p core.Ptr) core.Ptr {
	if p.IsRelative() {
		return p
	}
	if rel, ok := c.Reg.VA2RA(p.VA()); ok {
		return rel
	}
	return p
}

// SetRoot stores the root reference in the pool header — an NVM pointer
// store, so the transparent schemes convert virtual-form q to relative.
func (c *Context) SetRoot(site *Site, q core.Ptr) {
	if c.Mode == Volatile {
		c.CPU.Store(swTableBase) // a root variable in DRAM
		c.Pool.SetRoot(q)
		return
	}
	rootLoc := core.MakeRelative(c.Pool.ID(), uint32(pmem.RootOffset))
	switch c.Mode {
	case Explicit:
		va := c.resolve(site, rootLoc, 0)
		c.CPU.Store(va)
		c.Pool.SetRoot(c.toPoolRef(q))
	case HW:
		res := c.storeP("SetRoot storeP", rootLoc, q)
		c.CPU.Store(res.StoreVA)
		c.Pool.SetRoot(res.Value)
	case SW:
		stored := c.swAssign("SetRoot", site, rootLoc, q)
		va, _ := c.Reg.RA2VA(rootLoc)
		c.CPU.Store(va)
		c.Pool.SetRoot(stored)
	}
}

// Root loads the pool's root reference into a local.
func (c *Context) Root(site *Site) core.Ptr {
	if c.Mode == Volatile {
		c.CPU.Load(swTableBase)
		return c.Pool.Root()
	}
	rootLoc := core.MakeRelative(c.Pool.ID(), uint32(pmem.RootOffset))
	return c.LoadPtr(site, rootLoc, 0)
}
