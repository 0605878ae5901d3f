package core

import (
	"errors"
	"fmt"
	"testing"
	"testing/quick"
)

// fakeTranslator maps pool 1 to base 0x8000_0010_0000 and pool 2 to
// 0x8000_0020_0000, each 1 MiB. Pool 9 is "detached".
type fakeTranslator struct {
	ra2vaCalls int
	va2raCalls int
}

const (
	p1Base = uint64(NVMBit | 0x10_0000)
	p2Base = uint64(NVMBit | 0x20_0000)
	pSize  = uint64(1 << 20)
)

func (f *fakeTranslator) RA2VA(p Ptr) (uint64, error) {
	f.ra2vaCalls++
	switch p.PoolID() {
	case 1:
		return p1Base + uint64(p.Offset()), nil
	case 2:
		return p2Base + uint64(p.Offset()), nil
	case 9:
		return 0, ErrDetachedPool
	}
	return 0, ErrUnknownPool
}

func (f *fakeTranslator) VA2RA(va uint64) (Ptr, bool) {
	f.va2raCalls++
	if va >= p1Base && va < p1Base+pSize {
		return MakeRelative(1, uint32(va-p1Base)), true
	}
	if va >= p2Base && va < p2Base+pSize {
		return MakeRelative(2, uint32(va-p2Base)), true
	}
	return Null, false
}

func newTestEnv() (*Env, *fakeTranslator) {
	tr := &fakeTranslator{}
	return NewEnv(tr), tr
}

func TestToVA(t *testing.T) {
	e, _ := newTestEnv()
	va, err := e.ToVA(FromVA(0x1234))
	if err != nil || va != 0x1234 {
		t.Errorf("ToVA(virtual) = %#x, %v", va, err)
	}
	va, err = e.ToVA(MakeRelative(1, 0x40))
	if err != nil || va != p1Base+0x40 {
		t.Errorf("ToVA(relative) = %#x, %v", va, err)
	}
	if e.Stats.RelToAbs != 1 {
		t.Errorf("RelToAbs = %d, want 1", e.Stats.RelToAbs)
	}
	if e.Stats.DynamicChecks != 2 {
		t.Errorf("DynamicChecks = %d, want 2", e.Stats.DynamicChecks)
	}
}

func TestToVADetachedPoolFaults(t *testing.T) {
	e, _ := newTestEnv()
	if _, err := e.ToVA(MakeRelative(9, 0)); !errors.Is(err, ErrDetachedPool) {
		t.Errorf("detached pool: err = %v", err)
	}
	if _, err := e.ToVA(MakeRelative(5, 0)); !errors.Is(err, ErrUnknownPool) {
		t.Errorf("unknown pool: err = %v", err)
	}
}

// TestPointerAssignmentTable exercises the four pny/pdy = pxv/pxr rows of
// the paper's Figure 4 assignment semantics.
func TestPointerAssignmentTable(t *testing.T) {
	nvmLoc := FromVA(NVMBit | 0x100)    // destination on NVM (virtual form)
	nvmLocRel := MakeRelative(1, 0x100) // destination on NVM (relative form)
	dramLoc := FromVA(0x100)            // destination on DRAM
	persistVA := FromVA(p1Base + 0x40)  // pxv pointing into pool 1
	persistRel := MakeRelative(1, 0x40) // pxr
	volatileVA := FromVA(0x9000)        // DRAM pointer

	t.Run("pny = pxv converts to relative", func(t *testing.T) {
		e, _ := newTestEnv()
		got, err := e.PointerAssignment(nvmLoc, persistVA)
		if err != nil {
			t.Fatal(err)
		}
		if got != persistRel {
			t.Errorf("stored %s, want %s", got, persistRel)
		}
		if e.Stats.AbsToRel != 1 {
			t.Errorf("AbsToRel = %d", e.Stats.AbsToRel)
		}
	})
	t.Run("pny = pxr stores unchanged", func(t *testing.T) {
		e, _ := newTestEnv()
		got, err := e.PointerAssignment(nvmLocRel, persistRel)
		if err != nil {
			t.Fatal(err)
		}
		if got != persistRel {
			t.Errorf("stored %s, want %s", got, persistRel)
		}
		if e.Stats.AbsToRel+e.Stats.RelToAbs != 0 {
			t.Error("conversion performed where none needed")
		}
	})
	t.Run("pdy = pxv stores unchanged", func(t *testing.T) {
		e, _ := newTestEnv()
		got, err := e.PointerAssignment(dramLoc, persistVA)
		if err != nil {
			t.Fatal(err)
		}
		if got != persistVA {
			t.Errorf("stored %s, want %s", got, persistVA)
		}
	})
	t.Run("pdy = pxr converts to virtual", func(t *testing.T) {
		e, _ := newTestEnv()
		got, err := e.PointerAssignment(dramLoc, persistRel)
		if err != nil {
			t.Fatal(err)
		}
		if got != persistVA {
			t.Errorf("stored %s, want %s", got, persistVA)
		}
		if e.Stats.RelToAbs != 1 {
			t.Errorf("RelToAbs = %d", e.Stats.RelToAbs)
		}
	})
	t.Run("p = NULL needs no conversion", func(t *testing.T) {
		e, _ := newTestEnv()
		got, err := e.PointerAssignment(nvmLoc, Null)
		if err != nil || got != Null {
			t.Errorf("null store = %s, %v", got, err)
		}
	})
	t.Run("volatile pointer into NVM keeps virtual form", func(t *testing.T) {
		e, _ := newTestEnv()
		got, err := e.PointerAssignment(nvmLoc, volatileVA)
		if err != nil {
			t.Fatal(err)
		}
		if got != volatileVA {
			t.Errorf("stored %s, want %s", got, volatileVA)
		}
	})
	t.Run("strict mode faults on unconvertible NVM address", func(t *testing.T) {
		e, _ := newTestEnv()
		e.Strict = true
		stray := FromVA(NVMBit | 0xf000_0000) // NVM half but in no pool
		if _, err := e.PointerAssignment(nvmLoc, stray); !errors.Is(err, ErrNotInPool) {
			t.Errorf("strict stray store: err = %v", err)
		}
	})
}

func TestDiff(t *testing.T) {
	e, tr := newTestEnv()
	a := MakeRelative(1, 80)
	b := MakeRelative(1, 16)
	d, err := e.Diff(a, b, 8)
	if err != nil || d != 8 {
		t.Errorf("same-pool Diff = %d, %v; want 8", d, err)
	}
	if tr.ra2vaCalls != 0 {
		t.Errorf("same-pool Diff converted %d times", tr.ra2vaCalls)
	}
	// Mixed forms convert.
	d, err = e.Diff(FromVA(p1Base+80), b, 8)
	if err != nil || d != 8 {
		t.Errorf("mixed Diff = %d, %v; want 8", d, err)
	}
	if e.Stats.RelToAbs == 0 {
		t.Error("mixed Diff performed no conversion")
	}
}

func TestEqual(t *testing.T) {
	e, _ := newTestEnv()
	rel := MakeRelative(1, 0x40)
	va := FromVA(p1Base + 0x40)
	for _, c := range []struct {
		p, q Ptr
		want bool
	}{
		{rel, rel, true},
		{rel, MakeRelative(1, 0x48), false},
		{rel, MakeRelative(2, 0x40), false},
		{rel, va, true}, // mixed forms, same object
		{va, rel, true}, // symmetric
		{va, va, true},
		{rel, Null, false},
		{Null, Null, true},
	} {
		got, err := e.Equal(c.p, c.q)
		if err != nil {
			t.Fatalf("Equal(%s, %s): %v", c.p, c.q, err)
		}
		if got != c.want {
			t.Errorf("Equal(%s, %s) = %v, want %v", c.p, c.q, got, c.want)
		}
	}
}

func TestLess(t *testing.T) {
	e, _ := newTestEnv()
	// Same pool: offset order, no conversion.
	got, err := e.Less(MakeRelative(1, 16), MakeRelative(1, 32))
	if err != nil || !got {
		t.Errorf("same-pool Less = %v, %v", got, err)
	}
	// Mixed forms: address order.
	got, err = e.Less(MakeRelative(1, 16), FromVA(p1Base+32))
	if err != nil || !got {
		t.Errorf("mixed Less = %v, %v", got, err)
	}
	// Cross pool orders by mapped base.
	got, err = e.Less(MakeRelative(1, 0), MakeRelative(2, 0))
	if err != nil || !got {
		t.Errorf("cross-pool Less = %v, %v", got, err)
	}
}

// Property: PointerAssignment into an NVM destination always yields a value
// that survives remapping — either relative form, or a DRAM virtual address
// (which designates volatile data by definition).
func TestQuickNVMStoresAreRelocatable(t *testing.T) {
	e, _ := newTestEnv()
	dst := MakeRelative(1, 0)
	f := func(sel uint8, off uint32) bool {
		var p Ptr
		switch sel % 4 {
		case 0:
			p = MakeRelative(1+uint32(sel%2), off%uint32(pSize))
		case 1:
			p = FromVA(p1Base + uint64(off)%pSize)
		case 2:
			p = FromVA(uint64(off) & (NVMBit - 1)) // DRAM address
		case 3:
			p = Null
		}
		got, err := e.PointerAssignment(dst, p)
		if err != nil {
			return false
		}
		if got.IsNull() {
			return p.IsNull()
		}
		return got.IsRelative() || DetermineX(got) == DRAM
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Equal agrees with address equality for every form combination.
func TestQuickEqualMatchesAddressEquality(t *testing.T) {
	e, _ := newTestEnv()
	mk := func(sel uint8, off uint32) Ptr {
		off %= uint32(pSize)
		switch sel % 3 {
		case 0:
			return MakeRelative(1, off)
		case 1:
			return FromVA(p1Base + uint64(off))
		default:
			return MakeRelative(2, off)
		}
	}
	f := func(s1, s2 uint8, o1, o2 uint32) bool {
		p, q := mk(s1, o1), mk(s2, o2)
		got, err := e.Equal(p, q)
		if err != nil {
			return false
		}
		pv, _ := e.ToVA(p)
		qv, _ := e.ToVA(q)
		return got == (pv == qv)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func ExampleEnv_PointerAssignment() {
	e := NewEnv(&fakeTranslator{})
	nvmDst := MakeRelative(1, 0x100)
	persistVA := FromVA(p1Base + 0x40)
	stored, _ := e.PointerAssignment(nvmDst, persistVA)
	fmt.Println(stored)
	// Output: rel(pool=1, off=0x40)
}
