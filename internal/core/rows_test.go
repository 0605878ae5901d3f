package core_test

import (
	"testing"
	"testing/quick"

	"nvref/internal/core"
	"nvref/internal/rt"
)

// The Figure 4 rows that need neither a check nor a conversion — the
// additive rows (p + i, p - i, ++/--, p[i], p->f) and the null test — are
// the runtime's rt.Context.PtrAdd and IsNull, not Env methods; the (I)p cast
// rows are rt.Context.PtrToInt over Env.ToVA. The tests below, named after
// the rows, pin them under all four reference models.

var rowSite = rt.NewSite("core.rows", false)

// forEachMode runs row on a fresh context per reference model, then checks
// that the row converted nothing and counted no dynamic check.
func forEachMode(t *testing.T, row func(t *testing.T, c *rt.Context)) {
	t.Helper()
	for _, mode := range rt.Modes {
		t.Run(mode.String(), func(t *testing.T) {
			c := rt.MustNew(mode)
			row(t, c)
			if c.Env.Stats != (core.Stats{}) {
				t.Errorf("row checked or converted: %+v", c.Env.Stats)
			}
			if s := c.Stats; s.SWCheckBranches+s.EATranslations+s.ExplicitAccesses+s.StorePOps != 0 {
				t.Errorf("row paid reference-model costs: %+v", s)
			}
		})
	}
}

func TestAddIntPreservesForm(t *testing.T) {
	forEachMode(t, func(t *testing.T, c *rt.Context) {
		r := c.PtrAdd(core.MakeRelative(1, 0x100), 3, 8)
		if !r.IsRelative() || r.Offset() != 0x118 || r.PoolID() != 1 {
			t.Errorf("relative p + i = %s", r)
		}
		v := c.PtrAdd(core.FromVA(0x1000), 2, 16)
		if v.IsRelative() || v.VA() != 0x1020 {
			t.Errorf("virtual p + i = %s", v)
		}
		if back := c.PtrAdd(r, -3, 8); back != core.MakeRelative(1, 0x100) {
			t.Errorf("p - i = %s", back)
		}
	})
}

func TestIncDec(t *testing.T) {
	forEachMode(t, func(t *testing.T, c *rt.Context) {
		p := core.MakeRelative(2, 64)
		if q := c.PtrAdd(p, 1, 8); q.Offset() != 72 {
			t.Errorf("++p = %s", q)
		}
		if q := c.PtrAdd(p, -1, 8); q.Offset() != 56 {
			t.Errorf("--p = %s", q)
		}
	})
}

func TestIndexAndFieldAddr(t *testing.T) {
	forEachMode(t, func(t *testing.T, c *rt.Context) {
		base := core.MakeRelative(1, 0x100)
		if p := c.PtrAdd(base, 5, 24); p.Offset() != 0x100+5*24 {
			t.Errorf("&p[5] = %s", p)
		}
		if p := c.PtrAdd(base, 16, 1); p.Offset() != 0x110 {
			t.Errorf("&p->f = %s", p)
		}
	})
}

// TestCastToIntAndBool pins the (I)p rows — a transparent scheme casts a
// relative reference to its current address, the explicit model to the
// object ID itself, and null to 0 with no conversion — and the bool(p) row,
// which needs no check at all.
func TestCastToIntAndBool(t *testing.T) {
	forEachMode(t, func(t *testing.T, c *rt.Context) {
		if c.IsNull(core.MakeRelative(1, 0)) {
			t.Error("relative reference to offset 0 tested null")
		}
		if !c.IsNull(core.Null) {
			t.Error("null tested non-null")
		}
	})
	for _, mode := range rt.Modes {
		c := rt.MustNew(mode)
		va := core.FromVA(c.Pool.Base() + 8)
		rel := core.MakeRelative(c.Pool.ID(), 8)
		before := c.Env.Stats
		if got := c.PtrToInt(rowSite, core.Null); got != 0 {
			t.Errorf("%s: (I)NULL = %#x", mode, got)
		}
		if c.Env.Stats.RelToAbs != before.RelToAbs || c.Stats.EATranslations != 0 {
			t.Errorf("%s: (I)NULL converted", mode)
		}
		want := va.VA()
		if mode == rt.Volatile || mode == rt.Explicit {
			want = uint64(rel)
		}
		if got := c.PtrToInt(rowSite, rel); got != want {
			t.Errorf("%s: (I)relative = %#x, want %#x", mode, got, want)
		}
		if got := c.PtrToInt(rowSite, va); got != va.VA() {
			t.Errorf("%s: (I)virtual = %#x, want %#x", mode, got, va.VA())
		}
	}
}

// Property: pointer arithmetic on a relative reference followed by the
// integer cast equals the cast followed by the same arithmetic (Figure 4's
// additive rows are conversion-commutative), in every mode.
func TestQuickArithmeticCommutesWithTranslation(t *testing.T) {
	for _, mode := range rt.Modes {
		c := rt.MustNew(mode)
		f := func(off uint16, delta int8, szSel uint8) bool {
			sz := []int64{1, 2, 4, 8, 16}[int(szSel)%5]
			p := core.MakeRelative(c.Pool.ID(), uint32(off)+0x1000)
			moved := c.PtrAdd(p, int64(delta), sz)
			return int64(c.PtrToInt(rowSite, moved)) == int64(c.PtrToInt(rowSite, p))+int64(delta)*sz
		}
		if err := quick.Check(f, nil); err != nil {
			t.Errorf("%s: %v", mode, err)
		}
	}
}
