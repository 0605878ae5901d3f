package hw

import (
	"errors"
	"testing"

	"nvref/internal/core"
)

func newTestUnit() (*StorePUnit, *MMU) {
	m := newTestMMU()
	return NewStorePUnit(m), m
}

func TestStorePNVMDestRelativeSource(t *testing.T) {
	u, _ := newTestUnit()
	rd := core.MakeRelative(1, 0x100)
	rs := core.MakeRelative(2, 0x40)
	res, err := u.Execute(rd, rs)
	if err != nil {
		t.Fatal(err)
	}
	if res.StoreVA != (nvmBit | 0x10_0100) {
		t.Errorf("StoreVA = %#x", res.StoreVA)
	}
	if res.Value != rs {
		t.Errorf("Value = %s; relative source into NVM must store unchanged", res.Value)
	}
	if u.Stats.RsTranslations != 0 {
		t.Errorf("needless source translation: %+v", u.Stats)
	}
	if u.Stats.RdTranslations != 1 {
		t.Errorf("RdTranslations = %d", u.Stats.RdTranslations)
	}
}

func TestStorePNVMDestVirtualSourceConverts(t *testing.T) {
	u, _ := newTestUnit()
	rd := core.MakeRelative(1, 0x100)
	rs := core.FromVA(nvmBit | 0x40_0040) // VA inside pool 2
	res, err := u.Execute(rd, rs)
	if err != nil {
		t.Fatal(err)
	}
	want := core.MakeRelative(2, 0x40)
	if res.Value != want {
		t.Errorf("Value = %s, want %s", res.Value, want)
	}
	if u.Stats.RsTranslations != 1 {
		t.Errorf("RsTranslations = %d", u.Stats.RsTranslations)
	}
}

func TestStorePDRAMDestRelativeSourceConverts(t *testing.T) {
	u, _ := newTestUnit()
	rd := core.FromVA(0x2000) // DRAM destination
	rs := core.MakeRelative(1, 0x88)
	res, err := u.Execute(rd, rs)
	if err != nil {
		t.Fatal(err)
	}
	if res.StoreVA != 0x2000 {
		t.Errorf("StoreVA = %#x", res.StoreVA)
	}
	if res.Value != core.FromVA(nvmBit|0x10_0088) {
		t.Errorf("Value = %s", res.Value)
	}
}

func TestStorePDRAMDestVirtualSourcePassthrough(t *testing.T) {
	u, _ := newTestUnit()
	rd := core.FromVA(0x2000)
	rs := core.FromVA(0x3000)
	res, err := u.Execute(rd, rs)
	if err != nil {
		t.Fatal(err)
	}
	if res.Value != rs || res.StoreVA != 0x2000 {
		t.Errorf("passthrough result = %+v", res)
	}
	if u.Stats.RdTranslations+u.Stats.RsTranslations != 0 {
		t.Errorf("needless translations: %+v", u.Stats)
	}
}

func TestStorePNullSource(t *testing.T) {
	u, _ := newTestUnit()
	res, err := u.Execute(core.MakeRelative(1, 0), core.Null)
	if err != nil {
		t.Fatal(err)
	}
	if res.Value != core.Null {
		t.Errorf("null store Value = %s", res.Value)
	}
	if u.Stats.RsTranslations != 0 {
		t.Error("null source translated")
	}
}

func TestStorePVolatileSourceIntoNVM(t *testing.T) {
	u, _ := newTestUnit()
	rs := core.FromVA(0x3000) // DRAM pointer
	res, err := u.Execute(core.MakeRelative(1, 0x10), rs)
	if err != nil {
		t.Fatal(err)
	}
	if res.Value != rs {
		t.Errorf("volatile pointer into NVM = %s; want stored unchanged", res.Value)
	}
}

func TestStorePFaults(t *testing.T) {
	u, _ := newTestUnit()
	// Unknown destination pool.
	if _, err := u.Execute(core.MakeRelative(99, 0), core.Null); !errors.Is(err, ErrStorePFault) {
		t.Errorf("unknown dest pool: err = %v", err)
	}
	// Unknown source pool into DRAM destination.
	if _, err := u.Execute(core.FromVA(0x1000), core.MakeRelative(99, 0)); !errors.Is(err, ErrStorePFault) {
		t.Errorf("unknown source pool: err = %v", err)
	}
	if u.Stats.Faults != 2 {
		t.Errorf("Faults = %d", u.Stats.Faults)
	}
}

func TestStorePStrictMode(t *testing.T) {
	u, _ := newTestUnit()
	u.Strict = true
	stray := core.FromVA(nvmBit | 0x7f_0000) // NVM half, in no pool
	if _, err := u.Execute(core.MakeRelative(1, 0), stray); !errors.Is(err, ErrStorePFault) {
		t.Errorf("strict stray store: err = %v", err)
	}
	// Non-strict accepts it.
	u2, _ := newTestUnit()
	res, err := u2.Execute(core.MakeRelative(1, 0), stray)
	if err != nil {
		t.Fatalf("permissive stray store: %v", err)
	}
	if res.Value != stray {
		t.Errorf("permissive stray store Value = %s", res.Value)
	}
}

func TestStorePFSMTrace(t *testing.T) {
	u, _ := newTestUnit()
	// Both translations needed: relative destination, virtual pool source.
	res, err := u.Execute(core.MakeRelative(1, 0), core.FromVA(nvmBit|0x40_0000))
	if err != nil {
		t.Fatal(err)
	}
	if res.Value != core.MakeRelative(2, 0) {
		t.Errorf("Value = %s", res.Value)
	}
	if u.Stats.RdTranslations != 1 || u.Stats.RsTranslations != 1 {
		t.Errorf("both-translations op: Rd=%d Rs=%d, want 1 each", u.Stats.RdTranslations, u.Stats.RsTranslations)
	}
}

func TestStorePParallelTranslationLatency(t *testing.T) {
	u, m := newTestUnit()
	// Warm both buffers.
	if _, err := m.RA2VA(core.MakeRelative(1, 0)); err != nil {
		t.Fatal(err)
	}
	m.VA2RA(nvmBit | 0x40_0000)
	m.DrainCycles()
	u.Stats = StorePStats{}

	res, err := u.Execute(core.MakeRelative(1, 0), core.FromVA(nvmBit|0x40_0000))
	if err != nil {
		t.Fatal(err)
	}
	// Both translations hit (1 cycle each); they run simultaneously, so the
	// op costs issue + max(1,1) = 2 cycles, not issue + 2.
	if res.Cycles != u.IssueLatency+1 {
		t.Errorf("Cycles = %d, want %d (parallel translations)", res.Cycles, u.IssueLatency+1)
	}
}
