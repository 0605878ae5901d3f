package core

import "fmt"

// Translator converts between the two reference forms. It is implemented by
// the pool layer (software translation) and by the hardware model's
// POLB/VALB structures.
type Translator interface {
	// RA2VA translates a relative-form reference to its current virtual
	// address. It fails if the pool is unknown or detached.
	RA2VA(p Ptr) (uint64, error)
	// VA2RA translates a virtual address into a relative-form reference if
	// the address lies inside an attached pool; ok is false otherwise.
	VA2RA(va uint64) (rel Ptr, ok bool)
}

// Stats counts the dynamic events that the evaluation's Table V reports:
// runtime format checks and conversions in each direction.
type Stats struct {
	// DynamicChecks counts executions of determineX/determineY dispatches.
	DynamicChecks uint64
	// AbsToRel counts virtual→relative (va2ra) conversions performed.
	AbsToRel uint64
	// RelToAbs counts relative→virtual (ra2va) conversions performed.
	RelToAbs uint64
}

// Env evaluates the rows of the paper's Figure 4 table that need a runtime
// check or a conversion: dereference and cast (ToVA), assignment
// (PointerAssignment), difference (Diff), equality (Equal) and relational
// (Less). It performs the checks, invokes the Translator where a conversion
// is required, and counts both in Stats. The additive and null rows need
// neither, so they live in the runtime (rt.Context.PtrAdd and IsNull).
type Env struct {
	Tr Translator
	// Strict controls the behaviour when a pointer whose virtual address is
	// in no attached pool is stored into an NVM location. The paper's
	// Table I lists this as a storeP fault; with Strict false the virtual
	// address is stored unchanged (it is a volatile reference that
	// legitimately does not survive remapping).
	Strict bool
	Stats  Stats
}

// NewEnv returns an Env using tr for conversions.
func NewEnv(tr Translator) *Env { return &Env{Tr: tr} }

// check records one dynamic format check.
func (e *Env) check() { e.Stats.DynamicChecks++ }

// ToVA resolves a reference to the virtual address it currently designates:
// the *pxv / *pxr rows of the semantic table, and the (I)p cast rows. A
// virtual-form reference (null included) is returned as is; a relative-form
// one is translated (ra2va).
func (e *Env) ToVA(p Ptr) (uint64, error) {
	e.check()
	if !p.IsRelative() {
		return p.VA(), nil
	}
	e.Stats.RelToAbs++
	return e.Tr.RA2VA(p)
}

// PointerAssignment implements the paper's pointerAssignment runtime
// routine and the four pny/pdy = pxv/pxr assignment rows: it computes the
// representation that must be stored when pointer value p is written to the
// location named by to.
//
// If the destination is on NVM the stored form must be relative so the
// reference survives pool remapping; if the destination is on DRAM the
// stored form must be virtual so legacy loads use it directly.
func (e *Env) PointerAssignment(to Ptr, p Ptr) (Ptr, error) {
	e.check() // determineX(to)
	if p.IsNull() {
		return Null, nil
	}
	if DetermineX(to) == NVM {
		e.check() // determineY(p)
		if p.IsRelative() {
			return p, nil
		}
		if rel, ok := e.Tr.VA2RA(p.VA()); ok {
			e.Stats.AbsToRel++
			return rel, nil
		}
		if e.Strict && uint64(p)&NVMBit != 0 {
			return Null, fmt.Errorf("%w: %s", ErrNotInPool, p)
		}
		// A DRAM (volatile) pointer stored into NVM keeps its virtual
		// form: it cannot be made relocatable and C permits storing it.
		return p, nil
	}
	e.check() // determineY(p)
	if p.IsRelative() {
		va, err := e.Tr.RA2VA(p)
		if err != nil {
			return Null, err
		}
		e.Stats.RelToAbs++
		return FromVA(va), nil
	}
	return p, nil
}

// Diff implements the four pointer-difference rows. Two relative pointers
// in the same pool subtract directly (pxr.val - pxr'.val); any mixed or
// cross-pool case converts the relative operand(s) to virtual addresses
// first. The result is an element count.
func (e *Env) Diff(p, q Ptr, elemSize int64) (int64, error) {
	e.check()
	e.check()
	if p.IsRelative() && q.IsRelative() && p.PoolID() == q.PoolID() {
		return (int64(p.Offset()) - int64(q.Offset())) / elemSize, nil
	}
	pv, err := e.operandVA(p)
	if err != nil {
		return 0, err
	}
	qv, err := e.operandVA(q)
	if err != nil {
		return 0, err
	}
	return (int64(pv) - int64(qv)) / elemSize, nil
}

// operandVA converts one comparison/difference operand without recounting
// the dynamic check (the caller accounts per-operand checks itself).
func (e *Env) operandVA(p Ptr) (uint64, error) {
	if !p.IsRelative() {
		return p.VA(), nil
	}
	e.Stats.RelToAbs++
	return e.Tr.RA2VA(p)
}

// Equal implements the equality rows (==, !=). Comparing two relative-form
// words needs no conversion: they are equal exactly when pool and offset
// match, and references to distinct objects can never collide. Mixed-form
// comparisons convert the relative operand.
func (e *Env) Equal(p, q Ptr) (bool, error) {
	e.check()
	e.check()
	if p.IsNull() || q.IsNull() {
		return p == q, nil
	}
	if p.IsRelative() == q.IsRelative() {
		return p == q, nil
	}
	pv, err := e.operandVA(p)
	if err != nil {
		return false, err
	}
	qv, err := e.operandVA(q)
	if err != nil {
		return false, err
	}
	return pv == qv, nil
}

// Less implements the relational rows (<, >, <=, >= reduce to Less). Two
// relative pointers in the same pool order by offset; all other cases
// convert to virtual addresses.
func (e *Env) Less(p, q Ptr) (bool, error) {
	e.check()
	e.check()
	if p.IsRelative() && q.IsRelative() && p.PoolID() == q.PoolID() {
		return p.Offset() < q.Offset(), nil
	}
	pv, err := e.operandVA(p)
	if err != nil {
		return false, err
	}
	qv, err := e.operandVA(q)
	if err != nil {
		return false, err
	}
	return pv < qv, nil
}
