package hw

import (
	"errors"
	"fmt"

	"nvref/internal/core"
)

// The storeP functional unit. storeP Rd, Rs stores the pointer value in Rs
// to the memory location named by Rd, converting both as the paper's
// Table I semantics require:
//
//   - Rd in relative form is translated (ra2va via POLB) to obtain the
//     store's effective virtual address.
//   - If the destination is on NVM, the stored value must be relative: a
//     virtual-form Rs pointing into a pool is translated (va2ra via VALB).
//   - If the destination is on DRAM, the stored value must be virtual: a
//     relative-form Rs is translated (ra2va via POLB).
//
// Each in-flight storeP occupies one buffer entry whose finite state
// machine tracks the progress of the (up to) two translations, which
// proceed simultaneously; the op completes when both finish, so its latency
// is the maximum of the two translation latencies plus issue overhead.

// ErrStorePFault is wrapped around translation failures raised by storeP,
// the instruction-level faults of Table I.
var ErrStorePFault = errors.New("hw: storeP fault")

// StorePStats counts storeP unit activity.
type StorePStats struct {
	Ops            uint64
	Faults         uint64
	RdTranslations uint64 // destination ra2va translations
	RsTranslations uint64 // source va2ra or ra2va translations
	Cycles         uint64
	MaxOccupancy   int
}

// StorePResult is the outcome of one storeP: the effective virtual address
// to write, the converted pointer value to write there, and the cycles the
// op held its buffer entry.
type StorePResult struct {
	StoreVA uint64
	Value   core.Ptr
	Cycles  uint64
}

// StorePUnit executes storeP operations against an MMU.
type StorePUnit struct {
	mmu *MMU
	// Entries is the buffer capacity (Table II: 32 entries). The simulator
	// is single-issue so occupancy stays at 1, but the capacity bounds a
	// burst model used by the timing layer.
	Entries int
	// IssueLatency is the fixed cost of occupying and retiring an entry.
	IssueLatency uint64
	// Strict makes storing an unconvertible NVM virtual address fault, per
	// Table I; when false the address is stored unchanged (a volatile
	// reference that does not survive remapping).
	Strict bool
	Stats  StorePStats
}

// NewStorePUnit returns a storeP unit over the MMU.
func NewStorePUnit(m *MMU) *StorePUnit {
	return &StorePUnit{mmu: m, Entries: 32, IssueLatency: 1}
}

// Execute performs one storeP Rd, Rs.
func (u *StorePUnit) Execute(rd, rs core.Ptr) (StorePResult, error) {
	u.Stats.Ops++
	if u.Stats.MaxOccupancy < 1 {
		u.Stats.MaxOccupancy = 1
	}
	var res StorePResult

	needRd := rd.IsRelative()
	destNVM := core.DetermineX(rd) == core.NVM
	// The source translation need is known from determineY(Rs) plus the
	// destination space; both hardware checks are pure combinational logic.
	needRsRA2VA := !destNVM && rs.IsRelative() && !rs.IsNull()
	needRsVA2RA := destNVM && !rs.IsRelative() && !rs.IsNull()

	var rdCycles, rsCycles uint64

	// Destination translation (ra2va).
	destVA := rd.VA()
	if needRd {
		u.Stats.RdTranslations++
		before := u.mmu.Cycles
		va, err := u.mmu.RA2VA(rd)
		rdCycles = u.mmu.Cycles - before
		if err != nil {
			return u.fault(res, rdCycles, err)
		}
		destVA = va
	}

	// Source translation.
	value := rs
	switch {
	case needRsVA2RA:
		u.Stats.RsTranslations++
		before := u.mmu.Cycles
		rel, ok := u.mmu.VA2RA(rs.VA())
		rsCycles = u.mmu.Cycles - before
		if ok {
			value = rel
		} else if u.Strict && uint64(rs)&core.NVMBit != 0 {
			return u.fault(res, max64(rdCycles, rsCycles),
				fmt.Errorf("%w: %s", core.ErrNotInPool, rs))
		}
	case needRsRA2VA:
		u.Stats.RsTranslations++
		before := u.mmu.Cycles
		va, err := u.mmu.RA2VA(rs)
		rsCycles = u.mmu.Cycles - before
		if err != nil {
			return u.fault(res, max64(rdCycles, rsCycles), err)
		}
		value = core.FromVA(va)
	}

	res.StoreVA = destVA
	res.Value = value
	res.Cycles = u.IssueLatency + max64(rdCycles, rsCycles)
	u.Stats.Cycles += res.Cycles
	return res, nil
}

func (u *StorePUnit) fault(res StorePResult, cycles uint64, err error) (StorePResult, error) {
	u.Stats.Faults++
	res.Cycles = u.IssueLatency + cycles
	u.Stats.Cycles += res.Cycles
	return res, fmt.Errorf("%w: %v", ErrStorePFault, err)
}

func max64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}

// HardwareCosts summarizes the on-chip storage the support requires, the
// paper's Table II. Die areas are the paper's CACTI 45nm figures.
type HardwareCosts struct {
	Structures []StructureCost
}

// StructureCost is one Table II row.
type StructureCost struct {
	Name       string
	EntryBytes int
	NumEntries int
	TotalBytes int
	AreaMM2    float64
}

// CostTable returns the paper's Table II contents, computed from the entry
// geometry of the structures in this package.
func CostTable() HardwareCosts {
	rows := []StructureCost{
		{Name: "FSM", EntryBytes: 16, NumEntries: 32, AreaMM2: 0.0205},
		{Name: "POLB", EntryBytes: 12, NumEntries: 32, AreaMM2: 0.0137},
		{Name: "VALB", EntryBytes: 12, NumEntries: 32, AreaMM2: 0.0137},
	}
	for i := range rows {
		rows[i].TotalBytes = rows[i].EntryBytes * rows[i].NumEntries
	}
	return HardwareCosts{Structures: rows}
}

// TotalBytes sums the storage of all structures.
func (h HardwareCosts) TotalBytes() int {
	t := 0
	for _, s := range h.Structures {
		t += s.TotalBytes
	}
	return t
}

// TotalArea sums the die area of all structures in mm².
func (h HardwareCosts) TotalArea() float64 {
	t := 0.0
	for _, s := range h.Structures {
		t += s.AreaMM2
	}
	return t
}
