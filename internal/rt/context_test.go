package rt

import (
	"strings"
	"testing"

	"nvref/internal/core"
	"nvref/internal/cpu"
)

var (
	tsLoad  = NewSite("test.load", false)
	tsStore = NewSite("test.store", false)
	tsCmp   = NewSite("test.cmp", false)
	tsRoot  = NewSite("test.root", false)
)

func TestModeString(t *testing.T) {
	want := map[Mode]string{Volatile: "Volatile", Explicit: "Explicit", SW: "SW", HW: "HW"}
	for m, s := range want {
		if m.String() != s {
			t.Errorf("Mode(%d).String() = %q", m, s)
		}
	}
	if Mode(99).String() != "unknown" {
		t.Error("unknown mode string")
	}
}

func TestScalarRoundTripAllModes(t *testing.T) {
	for _, mode := range Modes {
		t.Run(mode.String(), func(t *testing.T) {
			c := MustNew(mode)
			p := c.Pmalloc(64)
			c.StoreWord(tsStore, p, 8, 0xdeadbeef)
			if got := c.LoadWord(tsLoad, p, 8); got != 0xdeadbeef {
				t.Errorf("LoadWord = %#x", got)
			}
		})
	}
}

func TestPointerRoundTripAllModes(t *testing.T) {
	for _, mode := range Modes {
		t.Run(mode.String(), func(t *testing.T) {
			c := MustNew(mode)
			a := c.Pmalloc(64)
			b := c.Pmalloc(64)
			c.StoreWord(tsStore, b, 0, 777)
			c.StorePtr(tsStore, a, 8, b)
			got := c.LoadPtr(tsLoad, a, 8)
			if !c.PtrEq(tsCmp, got, b) {
				t.Fatalf("loaded pointer %s != stored %s", got, b)
			}
			if v := c.LoadWord(tsLoad, got, 0); v != 777 {
				t.Errorf("deref through loaded pointer = %d", v)
			}
		})
	}
}

// TestStoredRepresentation verifies the in-memory pointer format per mode:
// the transparent schemes and the explicit model keep relative addresses in
// NVM, the volatile build keeps raw virtual addresses.
func TestStoredRepresentation(t *testing.T) {
	for _, mode := range Modes {
		t.Run(mode.String(), func(t *testing.T) {
			c := MustNew(mode)
			a := c.Pmalloc(64)
			b := c.Pmalloc(64)
			c.StorePtr(tsStore, a, 0, b)

			// Read the raw stored word.
			var aVA uint64
			if a.IsRelative() {
				var err error
				aVA, err = c.Reg.RA2VA(a)
				if err != nil {
					t.Fatal(err)
				}
			} else {
				aVA = a.VA()
			}
			raw, err := c.AS.Load64(aVA)
			if err != nil {
				t.Fatal(err)
			}
			stored := core.Ptr(raw)
			switch mode {
			case Volatile:
				if stored.IsRelative() {
					t.Errorf("volatile build stored relative form %s", stored)
				}
			default:
				if !stored.IsRelative() {
					t.Errorf("%s stored non-relocatable form %s in NVM", mode, stored)
				}
				if rel := c.toPoolRef(b); stored != rel {
					t.Errorf("stored %s, want %s", stored, rel)
				}
			}
		})
	}
}

func TestLocalFormAfterLoad(t *testing.T) {
	for _, mode := range Modes {
		c := MustNew(mode)
		a := c.Pmalloc(64)
		b := c.Pmalloc(64)
		c.StorePtr(tsStore, a, 0, b)
		got := c.LoadPtr(tsLoad, a, 0)
		switch mode {
		case HW, SW, Volatile:
			if got.IsRelative() {
				t.Errorf("%s: local holds relative form %s; want converted virtual", mode, got)
			}
		case Explicit:
			if !got.IsRelative() {
				t.Errorf("Explicit: local holds %s; want object ID (relative)", got)
			}
		}
	}
}

func TestModeCounters(t *testing.T) {
	run := func(mode Mode) *Context {
		c := MustNew(mode)
		a := c.Pmalloc(64)
		b := c.Pmalloc(64)
		c.StorePtr(tsStore, a, 0, b)
		p := c.LoadPtr(tsLoad, a, 0)
		_ = c.LoadWord(tsLoad, p, 8)
		return c
	}

	hw := run(HW)
	if hw.Stats.StorePOps != 1 {
		t.Errorf("HW StorePOps = %d, want 1", hw.Stats.StorePOps)
	}
	if hw.Stats.EATranslations == 0 {
		t.Error("HW performed no EA translations")
	}
	if hw.Stats.SWCheckBranches != 0 {
		t.Errorf("HW executed %d SW checks", hw.Stats.SWCheckBranches)
	}
	if hw.MMU.POLB.Stats.Accesses() == 0 {
		t.Error("HW never touched the POLB")
	}
	if hw.MMU.VALB.Stats.Accesses() != 1 {
		t.Errorf("HW VALB accesses = %d, want 1 (one storeP of a virtual-form local into NVM)", hw.MMU.VALB.Stats.Accesses())
	}

	sw := run(SW)
	if sw.Stats.SWCheckBranches == 0 {
		t.Error("SW executed no dynamic checks")
	}
	if sw.Stats.StorePOps != 0 {
		t.Error("SW executed storeP")
	}
	if sw.Env.Stats.AbsToRel == 0 {
		t.Error("SW StorePtr of virtual-form local into NVM performed no abs->rel conversion")
	}

	ex := run(Explicit)
	if ex.Stats.ExplicitAccesses == 0 {
		t.Error("Explicit performed no API accesses")
	}
	if ex.Stats.SWCheckBranches != 0 || ex.Stats.StorePOps != 0 {
		t.Error("Explicit executed transparent-scheme machinery")
	}

	vo := run(Volatile)
	if vo.Stats.EATranslations+vo.Stats.SWCheckBranches+vo.Stats.ExplicitAccesses != 0 {
		t.Errorf("Volatile paid NVM costs: %+v", vo.Stats)
	}
	if vo.CPU.Stats.NVMAccesses != 0 {
		t.Error("Volatile touched NVM")
	}
}

func TestHWStorePtrFromVirtualLocalUsesVALB(t *testing.T) {
	c := MustNew(HW)
	a := c.Pmalloc(64)
	b := c.Pmalloc(64)
	// a and b are virtual-form locals (converted at allocation). Storing b
	// into NVM must convert it back via the VALB.
	c.StorePtr(tsStore, a, 0, b)
	if c.MMU.VALB.Stats.Accesses() == 0 {
		t.Error("storeP of virtual-form source did not access the VALB")
	}
	if c.StoreP.Stats.RsTranslations != 1 {
		t.Errorf("RsTranslations = %d", c.StoreP.Stats.RsTranslations)
	}
}

func TestSetRootAndRoot(t *testing.T) {
	for _, mode := range Modes {
		t.Run(mode.String(), func(t *testing.T) {
			c := MustNew(mode)
			obj := c.Pmalloc(64)
			c.StoreWord(tsStore, obj, 0, 4242)
			c.SetRoot(tsRoot, obj)
			got := c.Root(tsRoot)
			if !c.PtrEq(tsCmp, got, obj) {
				t.Fatalf("Root = %s, want %s", got, obj)
			}
			if v := c.LoadWord(tsLoad, got, 0); v != 4242 {
				t.Errorf("deref of root = %d", v)
			}
			if mode != Volatile && !c.Pool.Root().IsRelative() {
				t.Errorf("%s stored root in non-relocatable form %s", mode, c.Pool.Root())
			}
		})
	}
}

func TestIsNullNoChecks(t *testing.T) {
	c := MustNew(SW)
	if !c.IsNull(core.Null) || c.IsNull(c.Pmalloc(8)) {
		t.Error("IsNull wrong")
	}
	if c.Stats.SWCheckBranches != 0 {
		t.Errorf("null test executed %d dynamic checks; the null representation is form-independent", c.Stats.SWCheckBranches)
	}
}

func TestInferredSitesSkipChecks(t *testing.T) {
	inferred := NewSite("inferred.load", true)
	c := MustNew(SW)
	p := c.Pmalloc(64)
	c.StoreWord(inferred, p, 0, 5)
	_ = c.LoadWord(inferred, p, 0)
	if c.Stats.SWCheckBranches != 0 {
		t.Errorf("inferred sites executed %d checks", c.Stats.SWCheckBranches)
	}
	// The same ops at a non-inferred site do check.
	_ = c.LoadWord(tsLoad, p, 0)
	if c.Stats.SWCheckBranches == 0 {
		t.Error("non-inferred site executed no check")
	}
}

func TestMallocAndFree(t *testing.T) {
	c := MustNew(HW)
	p := c.Malloc(128)
	if p.IsRelative() || core.DetermineX(p) != core.DRAM {
		t.Fatalf("Malloc returned %s; want DRAM virtual", p)
	}
	c.StoreWord(tsStore, p, 0, 9)
	if c.LoadWord(tsLoad, p, 0) != 9 {
		t.Error("volatile round trip failed")
	}
	c.FreeVolatile(p, 128)
	q := c.Malloc(128)
	if q != p {
		t.Errorf("freed volatile block not reused: %s vs %s", q, p)
	}
}

func TestPfreeAllModes(t *testing.T) {
	for _, mode := range Modes {
		c := MustNew(mode)
		p := c.Pmalloc(64)
		c.Pfree(p, 64)
		if c.Stats.Frees != 1 {
			t.Errorf("%s: Frees = %d", mode, c.Stats.Frees)
		}
	}
}

// TestSemanticEquivalence builds the same linked list under all four modes
// and checks the traversal yields identical sums — the soundness property
// of Section VII-B at the runtime level.
func TestSemanticEquivalence(t *testing.T) {
	sum := func(mode Mode) uint64 {
		c := MustNew(mode)
		var head core.Ptr = core.Null
		for i := uint64(1); i <= 100; i++ {
			n := c.Pmalloc(16)
			c.StoreWord(tsStore, n, 0, i*i)
			c.StorePtr(tsStore, n, 8, head)
			head = n
		}
		c.SetRoot(tsRoot, head)
		total := uint64(0)
		for p := c.Root(tsRoot); !c.IsNull(p); p = c.LoadPtr(tsLoad, p, 8) {
			total += c.LoadWord(tsLoad, p, 0)
		}
		return total
	}
	want := sum(Volatile)
	for _, mode := range []Mode{Explicit, SW, HW} {
		if got := sum(mode); got != want {
			t.Errorf("%s traversal sum = %d, want %d", mode, got, want)
		}
	}
}

// TestTimingOrdering checks the qualitative performance relationships the
// paper reports, on a pointer-chasing microkernel: Volatile is fastest; HW
// is close to Volatile; Explicit costs more than HW; SW costs the most.
func TestTimingOrdering(t *testing.T) {
	cycles := map[Mode]uint64{}
	for _, mode := range Modes {
		c := MustNew(mode)
		var head core.Ptr = core.Null
		for i := uint64(0); i < 2000; i++ {
			n := c.Pmalloc(32)
			c.StoreWord(tsStore, n, 0, i)
			c.StorePtr(tsStore, n, 8, head)
			head = n
		}
		c.SetRoot(tsRoot, head)
		c.CPU.Stats.Cycles = 0
		for rep := 0; rep < 5; rep++ {
			for p := c.Root(tsRoot); !c.IsNull(p); p = c.LoadPtr(tsLoad, p, 8) {
				_ = c.LoadWord(tsLoad, p, 0)
			}
		}
		cycles[mode] = c.CPU.Stats.Cycles
	}
	if !(cycles[Volatile] <= cycles[HW]) {
		t.Errorf("HW (%d) beat Volatile (%d)", cycles[HW], cycles[Volatile])
	}
	if !(cycles[HW] < cycles[Explicit]) {
		t.Errorf("Explicit (%d) not slower than HW (%d)", cycles[Explicit], cycles[HW])
	}
	if !(cycles[Explicit] < cycles[SW]) {
		t.Errorf("SW (%d) not slower than Explicit (%d)", cycles[SW], cycles[Explicit])
	}
	// HW should stay within a modest factor of Volatile.
	if float64(cycles[HW]) > 1.5*float64(cycles[Volatile]) {
		t.Errorf("HW overhead = %.2fx over Volatile; paper reports <= ~1.12x",
			float64(cycles[HW])/float64(cycles[Volatile]))
	}
}

// TestPointerOpsDoNotAllocate holds every pointer operation to zero heap
// allocations in every mode, over operands that make each mode convert
// (relative references, and a virtual-form local stored into NVM).
func TestPointerOpsDoNotAllocate(t *testing.T) {
	for _, mode := range Modes {
		c := MustNew(mode)
		a, b := c.Pmalloc(64), c.Pmalloc(64)
		aR, bR := c.toPoolRef(a), c.toPoolRef(b)
		c.StorePtr(tsStore, aR, 0, b)
		for _, op := range []struct {
			name string
			fn   func()
		}{
			{"LoadWord", func() { c.LoadWord(tsLoad, aR, 8) }},
			{"StoreWord", func() { c.StoreWord(tsStore, aR, 8, 1) }},
			{"LoadPtr", func() { c.LoadPtr(tsLoad, aR, 0) }},
			{"StorePtr", func() { c.StorePtr(tsStore, aR, 0, b) }},
			{"PtrEq", func() { c.PtrEq(tsCmp, aR, a) }},
			{"PtrLess", func() { c.PtrLess(tsCmp, aR, bR) }},
			{"PtrDiff", func() { c.PtrDiff(tsCmp, aR, a, 8) }},
			{"PtrToInt", func() { c.PtrToInt(tsCmp, aR) }},
			{"PtrAdd", func() { c.PtrAdd(aR, 1, 8) }},
		} {
			if n := testing.AllocsPerRun(100, op.fn); n != 0 {
				t.Errorf("%s %s: %v allocations per op, want 0", mode, op.name, n)
			}
		}
	}
}

// TestNewRejectsUnindexableCPUConfig: a machine the cache model cannot
// index is refused at construction with the field named, rather than
// dividing by zero at the first access.
func TestNewRejectsUnindexableCPUConfig(t *testing.T) {
	for _, tc := range []struct {
		field string
		edit  func(*cpu.Config)
	}{
		{"L1.LineSize", func(c *cpu.Config) { c.L1.LineSize = 48 }},
		{"L2.Sets", func(c *cpu.Config) { c.L2.Sets = 0 }},
		{"L3.Ways", func(c *cpu.Config) { c.L3.Ways = 0 }},
		{"TLB.PageSize", func(c *cpu.Config) { c.TLB.PageSize = 3000 }},
		{"TLB.L1Ways", func(c *cpu.Config) { c.TLB.L1Ways = -1 }},
		{"TLB.L2Sets", func(c *cpu.Config) { c.TLB.L2Sets = 0 }},
	} {
		cfg := cpu.DefaultConfig()
		tc.edit(&cfg)
		if _, err := New(Config{Mode: HW, CPUConfig: &cfg}); err == nil || !strings.Contains(err.Error(), tc.field) {
			t.Errorf("%s: New error = %v, want one naming the field", tc.field, err)
		}
	}
	// A set count that is not a power of two (the 384-set L2 TLB) is
	// indexable.
	cfg := cpu.DefaultConfig()
	cfg.L2.Sets = 384
	if _, err := New(Config{Mode: HW, CPUConfig: &cfg}); err != nil {
		t.Errorf("384-set L2: %v", err)
	}
}
