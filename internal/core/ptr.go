// Package core implements the paper's primary contribution:
// user-transparent persistent references.
//
// A reference is a single 64-bit word (Ptr) whose most significant bit
// selects its interpretation:
//
//	bit 63 == 0: the low 48 bits are a conventional virtual address. Within
//	             the virtual address space, bit 47 == 0 addresses the DRAM
//	             half and bit 47 == 1 addresses the NVM half.
//	bit 63 == 1: a relative address: a 31-bit pool ID in bits 62..32 and a
//	             32-bit intra-pool offset in bits 31..0.
//
// Because both volatile and persistent references fit in one ordinary
// pointer-sized word, legacy code can pass them around without type changes;
// lightweight runtime checks discern the two forms wherever a conversion is
// needed: DetermineX classifies a location's memory, and the paper's
// determineY is Ptr.IsRelative (bit 63). Env implements the rows of the
// Figure 4 semantic table for ISO C11 pointer operations that need a check
// or a conversion.
package core

import (
	"errors"
	"fmt"
)

// Ptr is a user-transparent persistent reference: one 64-bit word holding
// either a virtual address or a relative (pool ID, offset) address.
type Ptr uint64

// Format constants for the reference word.
const (
	// TagBit marks a relative (persistent) pointer.
	TagBit = uint64(1) << 63
	// NVMBit selects the NVM half of the virtual address space.
	NVMBit = uint64(1) << 47
	// VAMask extracts the 48-bit virtual address from a virtual-form word.
	VAMask = (uint64(1) << 48) - 1
	// OffsetMask extracts the 32-bit intra-pool offset of a relative word.
	OffsetMask = (uint64(1) << 32) - 1
	// MaxPoolID is the largest encodable pool ID (31 bits).
	MaxPoolID = (uint32(1) << 31) - 1
)

// Null is the null reference. Its representation is all zero in both
// interpretations, so null checks need no format dispatch.
const Null = Ptr(0)

// Space is the memory a location lives in (the paper's "x" property:
// n for NVM, d for DRAM).
type Space uint8

// Space values.
const (
	DRAM Space = iota
	NVM
)

func (s Space) String() string {
	if s == NVM {
		return "NVM"
	}
	return "DRAM"
}

// Errors reported by reference operations.
var (
	// ErrDetachedPool is returned when a relative address names a pool that
	// is not currently attached (the paper's Figure 10 fault case).
	ErrDetachedPool = errors.New("core: relative address names a detached pool")
	// ErrUnknownPool is returned when a relative address names a pool that
	// does not exist.
	ErrUnknownPool = errors.New("core: relative address names an unknown pool")
	// ErrNotInPool is returned by strict va2ra when a virtual address lies
	// in the NVM half but inside no attached pool.
	ErrNotInPool = errors.New("core: NVM virtual address not inside any attached pool")
)

// FromVA builds a virtual-form reference from a 48-bit virtual address.
func FromVA(va uint64) Ptr { return Ptr(va & VAMask) }

// MakeRelative builds a relative-form reference from a pool ID and offset.
// Pool IDs wider than 31 bits are truncated by the format, so callers must
// respect MaxPoolID.
func MakeRelative(pool uint32, offset uint32) Ptr {
	return Ptr(TagBit | uint64(pool&MaxPoolID)<<32 | uint64(offset))
}

// IsRelative reports whether p is in relative form (bit 63 set).
func (p Ptr) IsRelative() bool { return uint64(p)&TagBit != 0 }

// IsNull reports whether p is the null reference.
func (p Ptr) IsNull() bool { return p == Null }

// VA returns the virtual address of a virtual-form reference. The result is
// meaningless if p is relative; callers dispatch on Form first.
func (p Ptr) VA() uint64 { return uint64(p) & VAMask }

// PoolID returns the pool ID of a relative-form reference.
func (p Ptr) PoolID() uint32 { return uint32(uint64(p)>>32) & MaxPoolID }

// Offset returns the intra-pool offset of a relative-form reference.
func (p Ptr) Offset() uint32 { return uint32(uint64(p) & OffsetMask) }

// WithOffset returns a relative reference in the same pool at the given
// offset.
func (p Ptr) WithOffset(off uint32) Ptr { return MakeRelative(p.PoolID(), off) }

// String renders the reference for diagnostics.
func (p Ptr) String() string {
	if p.IsNull() {
		return "null"
	}
	if p.IsRelative() {
		return fmt.Sprintf("rel(pool=%d, off=%#x)", p.PoolID(), p.Offset())
	}
	if uint64(p)&NVMBit != 0 {
		return fmt.Sprintf("va(nvm, %#x)", p.VA())
	}
	return fmt.Sprintf("va(dram, %#x)", p.VA())
}

// DetermineX is the paper's determineX runtime check: it classifies where
// the location named by addr resides. A relative address is by construction
// on NVM; a virtual address is on NVM exactly when its bit 47 is set.
func DetermineX(addr Ptr) Space {
	if addr.IsRelative() {
		return NVM
	}
	if uint64(addr)&NVMBit != 0 {
		return NVM
	}
	return DRAM
}
