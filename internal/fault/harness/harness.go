// Package harness is the crash-consistency verifier: it runs a workload
// that exercises every instrumented persist point in the allocator and the
// transaction manager, kills the run at each point in turn, reopens the
// surviving image in a fresh "process" (new address space, different map
// base), lets txn.Attach recover, and asserts the recovery invariants:
//
//   - pmem.Fsck finds no structural corruption, and Repair clears any
//     crash residue (leaked blocks, stale statistics);
//   - the pool stays relocatable (VerifyRelocatable is empty) and the
//     root pointer resolves after the remap;
//   - the transactional data is atomic: every word holds the same
//     generation, one of the states the undo log guarantees.
//
// This is the executable form of the crash-safety argument each persist
// point's ordering comment makes in prose.
package harness

import (
	"fmt"

	"nvref/internal/core"
	"nvref/internal/fault"
	"nvref/internal/mem"
	"nvref/internal/pmem"
	"nvref/internal/txn"
)

const (
	poolName = "crash"
	poolSize = 1 << 20
	nWords   = 8
	maxEnts  = 64

	// Reopen bases, distinct from the default so every recovery also
	// exercises pointer relocation.
	reopenBase  = mem.NVMBase + 1024*mem.PageSize
	reopenBase2 = mem.NVMBase + 2048*mem.PageSize
)

// wordValue encodes (generation, index) so recovered state is self-describing.
func wordValue(gen, i uint64) uint64 { return gen<<32 | i }

// run is one simulated process: an address space with the pool mapped, a
// transaction manager, and a block of transactional words hung off the root.
type run struct {
	as       *mem.AddressSpace
	reg      *pmem.Registry
	pool     *pmem.Pool
	mgr      *txn.Manager
	logOff   uint64
	wordsOff uint64
}

// newRun builds the initial durable state before any fault is armed: pool,
// installed undo log, and nWords generation-0 words published via the root.
func newRun() (*run, error) {
	as := mem.New()
	reg := pmem.NewRegistry(as, pmem.NewMemStore())
	pool, err := reg.Create(poolName, poolSize)
	if err != nil {
		return nil, err
	}
	mgr, logOff, err := txn.Install(pool, as, maxEnts)
	if err != nil {
		return nil, err
	}
	wordsOff, err := pool.Alloc(nWords * 8)
	if err != nil {
		return nil, err
	}
	for i := uint64(0); i < nWords; i++ {
		if err := as.Store64(pool.Base()+wordsOff+8*i, wordValue(0, i)); err != nil {
			return nil, err
		}
	}
	pool.SetRoot(core.MakeRelative(pool.ID(), uint32(wordsOff)))
	return &run{as: as, reg: reg, pool: pool, mgr: mgr, logOff: logOff, wordsOff: wordsOff}, nil
}

// mutate is the instrumented workload. The allocator phase drives every
// Alloc/Free path (bump, split, exact fit, plain insert, next-, prev- and
// both-side coalescing); the transaction phase commits generations 1 and 2
// over the word block and aborts a generation-3 attempt, so the abort
// exercises the recovery persist points in-run as well.
func (r *run) mutate() error {
	sizes := []uint64{48, 160, 80, 224, 64, 112}
	offs := make([]uint64, len(sizes))
	for i, s := range sizes {
		off, err := r.pool.Alloc(s)
		if err != nil {
			return err
		}
		offs[i] = off
	}
	for _, i := range []int{1, 3, 2} { // freeing 2 last coalesces both sides
		if err := r.pool.Free(offs[i]); err != nil {
			return err
		}
	}
	a, err := r.pool.Alloc(32) // splits the coalesced 512-byte run
	if err != nil {
		return err
	}
	b, err := r.pool.Alloc(448) // exact fit for the 464-byte remainder
	if err != nil {
		return err
	}
	if err := r.pool.Free(a); err != nil { // plain insert, no neighbors free
		return err
	}
	if err := r.pool.Free(b); err != nil { // merges into the preceding block
		return err
	}

	for gen := uint64(1); gen <= 2; gen++ {
		if err := r.writeGeneration(gen); err != nil {
			return err
		}
		if err := r.mgr.Commit(); err != nil {
			return err
		}
	}
	if err := r.writeGeneration(3); err != nil {
		return err
	}
	return r.mgr.Abort()
}

func (r *run) writeGeneration(gen uint64) error {
	if err := r.mgr.Begin(); err != nil {
		return err
	}
	for i := uint64(0); i < nWords; i++ {
		if err := r.mgr.WriteWord(r.wordsOff+8*i, wordValue(gen, i)); err != nil {
			return err
		}
	}
	return nil
}

// image snapshots the pool exactly as the NVM device would retain it.
func (r *run) image() (pmem.Meta, []byte, error) {
	data, err := r.as.Snapshot(r.pool.Base(), r.pool.Size())
	if err != nil {
		return pmem.Meta{}, nil, err
	}
	meta := pmem.Meta{
		ID:   r.pool.ID(),
		Name: poolName,
		Size: uint64(len(data)),
		Sum:  pmem.ImageChecksum(data),
	}
	return meta, data, nil
}

// reopen maps an image into a fresh address space at base, modeling the
// next process run attaching to the surviving NVM state.
func reopen(meta pmem.Meta, data []byte, base uint64) (*pmem.Pool, *mem.AddressSpace, error) {
	store := pmem.NewMemStore()
	if err := store.Save(meta, data); err != nil {
		return nil, nil, err
	}
	as := mem.New()
	reg := pmem.NewRegistry(as, store, pmem.WithMapBase(base))
	pool, err := reg.Open(poolName)
	if err != nil {
		return nil, nil, err
	}
	return pool, as, nil
}

// Outcome describes one crash/recover/verify cycle.
type Outcome struct {
	Crashed    bool   // the trigger fired; false means the point was exhausted
	RolledBack bool   // txn.Attach found an active log and rolled back
	Repaired   bool   // Fsck warned and Repair was needed
	Gen        uint64 // uniform word generation after recovery
}

// CrashAt runs the workload, crashes it at the nth hit of the named persist
// point, recovers in a fresh run, and checks every invariant. An error
// means an invariant failed; Outcome.Crashed false means the workload
// finished before the nth hit.
func CrashAt(label string, nth int) (*Outcome, error) { return crashAt(newRun, label, nth) }

// restart recovers the run's pool image at a new base and verifies it.
func (r *run) restart() (*Outcome, error) {
	meta, data, err := r.image()
	if err != nil {
		return nil, err
	}
	return recoverAndVerify(meta, data, r.logOff, r.wordsOff, reopenBase)
}

// recoverAndVerify attaches to a crashed image and asserts the invariants.
func recoverAndVerify(meta pmem.Meta, data []byte, logOff, wordsOff, base uint64) (*Outcome, error) {
	pool, as, err := reopen(meta, data, base)
	if err != nil {
		return nil, fmt.Errorf("reopen: %w", err)
	}
	_, rolledBack, err := txn.Attach(pool, as, logOff, maxEnts)
	if err != nil {
		return nil, fmt.Errorf("attach: %w", err)
	}
	out := &Outcome{Crashed: true, RolledBack: rolledBack}

	rep := pmem.Fsck(pool)
	if !rep.Consistent() {
		return nil, fmt.Errorf("fsck: structural corruption: %v", rep.Errors())
	}
	if !rep.Clean() {
		out.Repaired = true
		after, err := pmem.Repair(pool)
		if err != nil {
			return nil, fmt.Errorf("repair: %w", err)
		}
		if !after.Clean() {
			return nil, fmt.Errorf("repair left issues: %v", after.Issues)
		}
	}
	if bad := pmem.VerifyRelocatable(pool, as); len(bad) != 0 {
		return nil, fmt.Errorf("non-relocatable words at offsets %#x", bad)
	}

	root := pool.Root()
	if !root.IsRelative() || uint64(root.Offset()) != wordsOff {
		return nil, fmt.Errorf("root %v does not resolve to the word block at %#x", root, wordsOff)
	}
	gen, err := uniformGeneration(pool, as, wordsOff)
	if err != nil {
		return nil, err
	}
	if gen > 2 {
		return nil, fmt.Errorf("recovered generation %d was never committed", gen)
	}
	out.Gen = gen
	return out, nil
}

// uniformGeneration checks word-level atomicity: every word must carry its
// own index and the same generation as word 0.
func uniformGeneration(pool *pmem.Pool, as *mem.AddressSpace, wordsOff uint64) (uint64, error) {
	var gen uint64
	for i := uint64(0); i < nWords; i++ {
		v, err := as.Load64(pool.Base() + wordsOff + 8*i)
		if err != nil {
			return 0, err
		}
		if v&0xFFFFFFFF != i {
			return 0, fmt.Errorf("word %d holds %#x: index corrupted", i, v)
		}
		if i == 0 {
			gen = v >> 32
		} else if v>>32 != gen {
			return 0, fmt.Errorf("torn transaction: word 0 is generation %d, word %d is %d",
				gen, i, v>>32)
		}
	}
	return gen, nil
}

// PointResult summarizes the cycles run against one persist point.
type PointResult struct {
	Label     string
	Hits      int // occurrences during the recording run
	Tested    int // crash cycles actually executed
	Rollbacks int // recoveries that rolled back an in-flight transaction
	Repairs   int // recoveries that needed Repair for crash residue
}

// Report is the result of a full enumeration sweep.
type Report struct {
	Points    []PointResult
	TotalRuns int
}

// DistinctPoints counts the persist points the workload reached.
func (r *Report) DistinctPoints() int { return len(r.Points) }

// Enumerate discovers every persist point the workload hits, then crashes
// at each occurrence of each point and verifies recovery. It fails fast on
// the first invariant violation.
func Enumerate() (*Report, error) {
	return sweep(newRun, func(pr *PointResult, out *Outcome) {
		if out.RolledBack {
			pr.Rollbacks++
		}
		if out.Repaired {
			pr.Repairs++
		}
	})
}

// workload is one simulated process a crash-point sweep drives: mutate is
// the instrumented run, and restart recovers what it left in its stores,
// as the next process would, verifies it, and reports the outcome.
type workload[O any] interface {
	mutate() error
	restart() (*O, error)
}

// crash starts a run, crashes it at the nth hit of label, and verifies its
// restart. It returns nil when the workload finished before the nth hit.
func crash[O any, W workload[O]](start func() (W, error), label string, nth int) (*O, error) {
	w, err := start()
	if err != nil {
		return nil, err
	}
	crashed, err := fault.Run(fault.NewTrigger(label, nth), w.mutate)
	if err != nil {
		return nil, fmt.Errorf("%s #%d: workload: %w", label, nth, err)
	}
	if crashed == nil {
		return nil, nil
	}
	out, err := w.restart()
	if err != nil {
		return nil, fmt.Errorf("%s #%d: %w", label, nth, err)
	}
	return out, nil
}

// crashAt is crash with an exhausted point reported as the zero outcome,
// whose Crashed is false.
func crashAt[O any, W workload[O]](start func() (W, error), label string, nth int) (*O, error) {
	out, err := crash(start, label, nth)
	if out == nil && err == nil {
		out = new(O)
	}
	return out, err
}

// sweep records an uncrashed run of the workload and verifies its restart,
// then crashes a fresh run at every occurrence of every crash point the
// recording reached and verifies each restart. It fails fast on the first
// invariant violation. tally, when non-nil, adds each restart's outcome to
// its point's result.
func sweep[O any, W workload[O]](start func() (W, error), tally func(*PointResult, *O)) (*Report, error) {
	rec := fault.NewRecorder()
	w, err := start()
	if err != nil {
		return nil, err
	}
	if crashed, err := fault.Run(rec, w.mutate); crashed != nil || err != nil {
		return nil, fmt.Errorf("recording run: crash %v, err %v", crashed, err)
	}
	if _, err := w.restart(); err != nil {
		return nil, fmt.Errorf("uncrashed run: %w", err)
	}
	counts := rec.Counts()
	rep := &Report{}
	for _, label := range rec.Labels() {
		pr := PointResult{Label: label, Hits: counts[label]}
		for nth := 1; nth <= pr.Hits; nth++ {
			out, err := crash(start, label, nth)
			if err != nil {
				return nil, err
			}
			if out == nil {
				return nil, fmt.Errorf("%s #%d: point not reached on replay", label, nth)
			}
			pr.Tested++
			rep.TotalRuns++
			if tally != nil {
				tally(&pr, out)
			}
		}
		rep.Points = append(rep.Points, pr)
	}
	return rep, nil
}

// DoubleRecovery crashes the workload mid-transaction, then crashes the
// recovery itself mid-rollback, and verifies that a second, uninterrupted
// recovery still restores the last committed generation — rollback must be
// idempotent under repeated failure.
func DoubleRecovery() error {
	r, err := newRun()
	if err != nil {
		return err
	}
	// Occurrence 12 of the post-data-write point lands in the middle of the
	// generation-2 transaction (generation 1 used occurrences 1-8).
	crashed, err := fault.Run(fault.NewTrigger("txn.write.data", 12), r.mutate)
	if err != nil {
		return err
	}
	if crashed == nil {
		return fmt.Errorf("workload finished without reaching txn.write.data #12")
	}
	meta, data, err := r.image()
	if err != nil {
		return err
	}

	// First recovery attempt: crash after the second undo store.
	pool, as, err := reopen(meta, data, reopenBase)
	if err != nil {
		return err
	}
	crashed, err = fault.Run(fault.NewTrigger("txn.recover.undo-entry", 2), func() error {
		_, _, err := txn.Attach(pool, as, r.logOff, maxEnts)
		return err
	})
	if err != nil {
		return fmt.Errorf("interrupted recovery: %w", err)
	}
	if crashed == nil {
		return fmt.Errorf("recovery finished without reaching txn.recover.undo-entry #2")
	}
	data2, err := as.Snapshot(pool.Base(), pool.Size())
	if err != nil {
		return err
	}
	meta2 := meta
	meta2.Sum = pmem.ImageChecksum(data2)

	// Second recovery must finish the rollback from the log's intact state.
	out, err := recoverAndVerify(meta2, data2, r.logOff, r.wordsOff, reopenBase2)
	if err != nil {
		return fmt.Errorf("second recovery: %w", err)
	}
	if !out.RolledBack {
		return fmt.Errorf("second recovery found the log idle; expected an active rollback")
	}
	if out.Gen != 1 {
		return fmt.Errorf("double recovery restored generation %d, want 1", out.Gen)
	}
	return nil
}
