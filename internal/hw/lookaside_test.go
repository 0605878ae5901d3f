package hw

import (
	"testing"
	"testing/quick"

	"nvref/internal/core"
)

func TestLRUBufferBasics(t *testing.T) {
	b := newLRUBuffer[int, string](2)
	b.put(1, "a")
	b.put(2, "b")
	if v, ok := b.get(1); !ok || v != "a" {
		t.Fatalf("get(1) = %q, %v", v, ok)
	}
	// 1 is now MRU; inserting 3 evicts 2.
	b.put(3, "c")
	if _, ok := b.get(2); ok {
		t.Error("LRU entry 2 not evicted")
	}
	if _, ok := b.get(1); !ok {
		t.Error("MRU entry 1 evicted")
	}
	if _, ok := b.get(3); !ok {
		t.Error("new entry 3 missing")
	}
}

func TestLRUBufferCapacityOne(t *testing.T) {
	b := newLRUBuffer[int, int](1)
	b.put(1, 10)
	b.put(2, 20)
	if _, ok := b.get(1); ok {
		t.Error("capacity-1 buffer kept two entries")
	}
	if v, ok := b.get(2); !ok || v != 20 {
		t.Errorf("get(2) = %d, %v", v, ok)
	}
}

func TestLRUBufferInvalidate(t *testing.T) {
	b := newLRUBuffer[int, int](4)
	for i := 0; i < 4; i++ {
		b.put(i, i*10)
	}
	b.invalidate(func(k int) bool { return k%2 == 0 })
	if b.len() != 2 {
		t.Fatalf("len after invalidate = %d", b.len())
	}
	if _, ok := b.get(0); ok {
		t.Error("invalidated key 0 survives")
	}
	if _, ok := b.get(1); !ok {
		t.Error("kept key 1 missing")
	}
}

// Property: the buffer always contains the most recently used K distinct
// keys of any access sequence.
func TestQuickLRUBufferKeepsMRU(t *testing.T) {
	const capacity = 4
	f := func(keys []uint8) bool {
		b := newLRUBuffer[uint8, uint8](capacity)
		for _, k := range keys {
			if _, ok := b.get(k); !ok {
				b.put(k, k)
			}
		}
		// Compute the expected resident set: last `capacity` distinct keys.
		seen := map[uint8]bool{}
		var mru []uint8
		for i := len(keys) - 1; i >= 0 && len(mru) < capacity; i-- {
			if !seen[keys[i]] {
				seen[keys[i]] = true
				mru = append(mru, keys[i])
			}
		}
		for _, k := range mru {
			if _, ok := b.get(k); !ok {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestVALBEvictionKeepsHotRanges(t *testing.T) {
	vatb := NewVATB()
	for i := uint64(0); i < 40; i++ {
		vatb.Insert(RangeEntry{Base: nvmBit | (i << 24), Size: 1 << 20, ID: uint32(i + 1)})
	}
	valb := NewVALB(vatb)
	// Touch all 40 ranges; only the last 32 stay resident.
	for i := uint64(0); i < 40; i++ {
		if _, _, ok := valb.Lookup(nvmBit | (i << 24) | 8); !ok {
			t.Fatalf("range %d missed the table", i)
		}
	}
	hits := valb.Stats.Hits
	if _, _, ok := valb.Lookup(nvmBit | (39 << 24) | 16); !ok {
		t.Fatal("hot range lookup failed")
	}
	if valb.Stats.Hits != hits+1 {
		t.Error("recently used range not resident")
	}
	misses := valb.Stats.Misses
	if _, _, ok := valb.Lookup(nvmBit | (0 << 24) | 16); !ok {
		t.Fatal("cold range lookup failed")
	}
	if valb.Stats.Misses != misses+1 {
		t.Error("evicted range hit the buffer")
	}
}

func TestVALBInvalidate(t *testing.T) {
	vatb := NewVATB()
	vatb.Insert(RangeEntry{Base: nvmBit | 0x10_0000, Size: 1 << 20, ID: 7})
	valb := NewVALB(vatb)
	if _, _, ok := valb.Lookup(nvmBit | 0x10_0000); !ok {
		t.Fatal("lookup failed")
	}
	valb.Invalidate(7)
	// The kernel table still has it, so the lookup succeeds via a walk.
	misses := valb.Stats.Misses
	if _, _, ok := valb.Lookup(nvmBit | 0x10_0000); !ok {
		t.Fatal("post-invalidate lookup failed")
	}
	if valb.Stats.Misses != misses+1 {
		t.Error("invalidated entry was still cached")
	}
}

func TestStorePUnitStatsAccumulate(t *testing.T) {
	u, _ := newTestUnit()
	for i := 0; i < 5; i++ {
		if _, err := u.Execute(core.MakeRelative(1, uint32(i*16)), core.MakeRelative(2, 0)); err != nil {
			t.Fatal(err)
		}
	}
	if u.Stats.Ops != 5 {
		t.Errorf("Ops = %d", u.Stats.Ops)
	}
	if u.Stats.Cycles == 0 {
		t.Error("no cycles accumulated")
	}
	if u.Stats.MaxOccupancy != 1 {
		t.Errorf("MaxOccupancy = %d (single-issue model)", u.Stats.MaxOccupancy)
	}
}

// BenchmarkPOLBLookup times one POLB translation for three pool-ID
// streams: one pool over and over (an MRU hit), four pools in turn (a hit
// a few slots down), and more pools than the buffer holds in turn (every
// lookup a miss and a walk).
func BenchmarkPOLBLookup(b *testing.B) {
	for _, s := range []struct {
		name  string
		pools uint32
	}{{"same-pool", 1}, {"4-pools", 4}, {"thrash", DefaultPOLBEntries + 8}} {
		b.Run(s.name, func(b *testing.B) {
			m := NewMMU()
			for id := uint32(1); id <= s.pools; id++ {
				m.AttachPool(RangeEntry{Base: nvmBit | uint64(id)<<24, Size: 1 << 20, ID: id})
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := m.RA2VA(core.MakeRelative(uint32(i)%s.pools+1, 8)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
