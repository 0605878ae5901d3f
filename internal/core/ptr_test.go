package core

import (
	"testing"
	"testing/quick"
)

func TestPtrEncodingRoundTrip(t *testing.T) {
	f := func(pool uint32, off uint32) bool {
		pool &= MaxPoolID
		p := MakeRelative(pool, off)
		return p.IsRelative() && p.PoolID() == pool && p.Offset() == off
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestVAEncoding(t *testing.T) {
	f := func(va uint64) bool {
		va &= VAMask
		p := FromVA(va)
		return !p.IsRelative() && p.VA() == va
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestNullIsSharedAcrossForms(t *testing.T) {
	if !Null.IsNull() {
		t.Fatal("Null.IsNull() = false")
	}
	if FromVA(0) != Null {
		t.Error("FromVA(0) != Null")
	}
	if Null.IsRelative() {
		t.Error("Null classified as relative")
	}
}

func TestDetermineX(t *testing.T) {
	cases := []struct {
		p    Ptr
		want Space
	}{
		{FromVA(0x1000), DRAM},         // DRAM virtual address
		{FromVA(NVMBit | 0x1000), NVM}, // NVM virtual address: bit 47
		{MakeRelative(3, 16), NVM},     // relative is by construction NVM
		{FromVA(NVMBit - 1), DRAM},     // top of DRAM half
		{FromVA(NVMBit), NVM},          // bottom of NVM half
		{MakeRelative(0, 0), NVM},      // tag alone forces NVM
	}
	for _, c := range cases {
		if got := DetermineX(c.p); got != c.want {
			t.Errorf("DetermineX(%s) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestWithOffset(t *testing.T) {
	p := MakeRelative(7, 0x100)
	q := p.WithOffset(0x200)
	if q.PoolID() != 7 || q.Offset() != 0x200 {
		t.Errorf("WithOffset = %s", q)
	}
}

func TestStringForms(t *testing.T) {
	if s := Null.String(); s != "null" {
		t.Errorf("Null.String() = %q", s)
	}
	if s := MakeRelative(1, 2).String(); s == "" || s == "null" {
		t.Errorf("relative String() = %q", s)
	}
	if s := FromVA(NVMBit | 8).String(); s == "" {
		t.Errorf("nvm va String() = %q", s)
	}
	if s := FromVA(8).String(); s == "" {
		t.Errorf("dram va String() = %q", s)
	}
}

func TestFormAndSpaceString(t *testing.T) {
	if DRAM.String() != "DRAM" || NVM.String() != "NVM" {
		t.Error("Space.String mismatch")
	}
}

// Property: the tag bit never leaks into pool ID or offset.
func TestQuickFieldIsolation(t *testing.T) {
	f := func(pool, off uint32) bool {
		pool &= MaxPoolID
		p := MakeRelative(pool, off)
		// Mutating the offset must not change the pool and vice versa.
		q := p.WithOffset(off ^ 0xffffffff)
		return q.PoolID() == pool && q.IsRelative()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
