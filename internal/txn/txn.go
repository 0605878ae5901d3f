// Package txn provides undo-log persistent transactions over a pool — the
// crash-consistency mechanism the paper's Section VI assumes the
// application layer supplies around library calls. A transaction logs the
// prior value of every word it overwrites into a log region inside the
// pool; commit truncates the log, abort (or crash recovery on reopen)
// rolls the words back. Because the log lives in pool memory and records
// pool offsets, it survives remapping like everything else.
package txn

import (
	"errors"
	"fmt"

	"nvref/internal/fault"
	"nvref/internal/mem"
	"nvref/internal/pmem"
)

// Log layout, at a pool offset the caller reserves via Install:
//
//	+0  magic
//	+8  state (0 idle, 1 active)
//	+16 entry count
//	+24 entries: {pool offset, old value} pairs
const (
	logMagic   = uint64(0x4E56544F4C4F4731) // "NVTXLOG1"
	offLMagic  = 0
	offLState  = 8
	offLCount  = 16
	offLEntry0 = 24
	entrySize  = 16

	stateIdle   = 0
	stateActive = 1
)

// Errors.
var (
	ErrActive    = errors.New("txn: a transaction is already active")
	ErrNotActive = errors.New("txn: no active transaction")
	ErrLogFull   = errors.New("txn: undo log full")
	ErrNoLog     = errors.New("txn: pool has no installed log")
)

// Stats counts transaction outcomes and undo-log volume.
type Stats struct {
	Begins      uint64
	Commits     uint64
	Aborts      uint64
	Rollbacks   uint64 // rollback passes run (aborts plus crash recoveries)
	WordsLogged uint64 // undo entries written
}

// LogBytes returns the undo-log bytes written (entries are 16 bytes).
func (s Stats) LogBytes() uint64 { return s.WordsLogged * entrySize }

// Manager runs transactions against one pool.
type Manager struct {
	pool    *pmem.Pool
	as      *mem.AddressSpace
	logOff  uint64
	maxEnts uint64
	active  bool

	Stats Stats
}

// Install allocates an undo log with capacity for maxEntries word writes
// inside the pool and returns a Manager. Call once per pool lifetime; the
// log offset must be stored somewhere durable (for example next to the
// root) and reattached with Attach in later runs.
func Install(pool *pmem.Pool, as *mem.AddressSpace, maxEntries uint64) (*Manager, uint64, error) {
	size := offLEntry0 + maxEntries*entrySize
	off, err := pool.Alloc(size)
	if err != nil {
		return nil, 0, err
	}
	m := &Manager{pool: pool, as: as, logOff: off, maxEnts: maxEntries}
	m.store(offLMagic, logMagic)
	m.store(offLState, stateIdle)
	m.store(offLCount, 0)
	return m, off, nil
}

// Attach reconnects to a previously installed log (for example after the
// pool was reopened in a new run) and performs crash recovery: if the log
// is active, the transaction in flight when the crash happened is rolled
// back. It reports whether a rollback occurred.
func Attach(pool *pmem.Pool, as *mem.AddressSpace, logOff uint64, maxEntries uint64) (*Manager, bool, error) {
	m := &Manager{pool: pool, as: as, logOff: logOff, maxEnts: maxEntries}
	if m.load(offLMagic) != logMagic {
		return nil, false, fmt.Errorf("%w: bad magic at offset %#x", ErrNoLog, logOff)
	}
	if m.load(offLState) == stateActive {
		m.rollback()
		return m, true, nil
	}
	return m, false, nil
}

func (m *Manager) addr(rel uint64) uint64 { return m.pool.Base() + m.logOff + rel }

func (m *Manager) store(rel uint64, v uint64) {
	if err := m.as.Store64(m.addr(rel), v); err != nil {
		panic(fmt.Sprintf("txn: log store failed: %v", err))
	}
}

func (m *Manager) load(rel uint64) uint64 {
	v, err := m.as.Load64(m.addr(rel))
	if err != nil {
		panic(fmt.Sprintf("txn: log load failed: %v", err))
	}
	return v
}

// Begin opens a transaction. The fault.Crash calls (here and below) mark
// the log's persist points for the crash-consistency harness: at every one
// of them, a crash followed by Attach recovery leaves the pool with either
// the complete transaction or none of it.
func (m *Manager) Begin() error {
	if m.active {
		return ErrActive
	}
	m.store(offLCount, 0)
	fault.Crash("txn.begin.count-reset")
	m.store(offLState, stateActive)
	fault.Crash("txn.begin.armed")
	m.active = true
	m.Stats.Begins++
	return nil
}

// WriteWord transactionally writes a 64-bit word at a pool offset,
// logging the old value first (undo logging: log before data).
func (m *Manager) WriteWord(poolOff uint64, v uint64) error {
	if !m.active {
		return ErrNotActive
	}
	count := m.load(offLCount)
	if count >= m.maxEnts {
		return ErrLogFull
	}
	old, err := m.as.Load64(m.pool.Base() + poolOff)
	if err != nil {
		return err
	}
	ent := offLEntry0 + count*entrySize
	m.store(ent, poolOff)
	fault.Crash("txn.write.entry-offset")
	m.store(ent+8, old)
	fault.Crash("txn.write.entry-old")
	m.store(offLCount, count+1) // log persisted before the data write
	fault.Crash("txn.write.published")
	m.Stats.WordsLogged++
	if err := m.as.Store64(m.pool.Base()+poolOff, v); err != nil {
		return err
	}
	fault.Crash("txn.write.data")
	return nil
}

// Commit makes the transaction's writes permanent.
func (m *Manager) Commit() error {
	if !m.active {
		return ErrNotActive
	}
	m.store(offLState, stateIdle) // the commit marker: rollback disabled
	fault.Crash("txn.commit.marker")
	m.store(offLCount, 0)
	fault.Crash("txn.commit.done")
	m.active = false
	m.Stats.Commits++
	return nil
}

// Abort rolls back every write of the active transaction.
func (m *Manager) Abort() error {
	if !m.active {
		return ErrNotActive
	}
	m.rollback()
	m.active = false
	m.Stats.Aborts++
	return nil
}

// rollback undoes logged writes newest-first and idles the log. A crash
// mid-rollback (during Abort or during recovery itself) leaves the log
// active with its entries intact, so a later recovery re-runs the whole
// rollback; re-applying old values is idempotent.
func (m *Manager) rollback() {
	m.Stats.Rollbacks++
	count := m.load(offLCount)
	for i := count; i > 0; i-- {
		ent := offLEntry0 + (i-1)*entrySize
		off := m.load(ent)
		old := m.load(ent + 8)
		if err := m.as.Store64(m.pool.Base()+off, old); err != nil {
			panic(fmt.Sprintf("txn: rollback store failed: %v", err))
		}
		fault.Crash("txn.recover.undo-entry")
	}
	m.store(offLState, stateIdle)
	fault.Crash("txn.recover.marker")
	m.store(offLCount, 0)
	fault.Crash("txn.recover.done")
}

// Active reports whether a transaction is open.
func (m *Manager) Active() bool { return m.active }
