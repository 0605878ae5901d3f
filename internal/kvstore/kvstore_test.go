package kvstore

import (
	"testing"

	"nvref/internal/rt"
	"nvref/internal/structures"
	"nvref/internal/ycsb"
)

func smallSpec() ycsb.Spec {
	return ycsb.Spec{Records: 500, Operations: 2000, ReadProportion: 0.95, Theta: 0.99, Seed: 2}
}

func TestStoreBasic(t *testing.T) {
	ctx := rt.MustNew(rt.HW)
	s := New(ctx, func(c *rt.Context) structures.Index { return structures.NewRB(c) })
	s.Set(1, 100)
	s.Set(2, 200)
	if v, ok := s.Get(1); !ok || v != 100 {
		t.Errorf("Get(1) = (%d,%v)", v, ok)
	}
	if _, ok := s.Get(3); ok {
		t.Error("Get of absent key hit")
	}
	s.Set(1, 111)
	if v, _ := s.Get(1); v != 111 {
		t.Errorf("Get after update = %d", v)
	}
}

func TestRunWorkloadNoMisses(t *testing.T) {
	w := ycsb.Generate(smallSpec())
	for _, entry := range structures.Indexes() {
		ctx := rt.MustNew(rt.Volatile)
		s := New(ctx, entry.New)
		res := s.RunWorkload(w)
		if res.Misses != 0 {
			t.Errorf("%s: %d GET misses on a YCSB stream", entry.Name, res.Misses)
		}
		if res.Ops != len(w.Ops) {
			t.Errorf("%s: Ops = %d", entry.Name, res.Ops)
		}
		if res.Gets+res.Sets != res.Ops {
			t.Errorf("%s: Gets+Sets = %d != Ops %d", entry.Name, res.Gets+res.Sets, res.Ops)
		}
		if res.Cycles == 0 {
			t.Errorf("%s: no cycles measured", entry.Name)
		}
	}
}

// TestChecksumsAgreeAcrossModes is the soundness harness: the same workload
// over the same index must produce identical checksums in all four modes.
func TestChecksumsAgreeAcrossModes(t *testing.T) {
	w := ycsb.Generate(smallSpec())
	for _, entry := range structures.Indexes() {
		var want uint64
		for i, mode := range rt.Modes {
			ctx := rt.MustNew(mode)
			res := New(ctx, entry.New).RunWorkload(w)
			if i == 0 {
				want = res.Checksum
			} else if res.Checksum != want {
				t.Errorf("%s/%s checksum = %d, want %d", entry.Name, mode, res.Checksum, want)
			}
		}
	}
}

func TestMeasurementExcludesLoad(t *testing.T) {
	w := ycsb.Generate(smallSpec())
	ctx := rt.MustNew(rt.HW)
	s := New(ctx, func(c *rt.Context) structures.Index { return structures.NewHash(c, 512) })
	res := s.RunWorkload(w)
	if res.CyclesLoad == 0 {
		t.Error("load phase consumed no cycles")
	}
	if res.Cycles+res.CyclesLoad != ctx.CPU.Stats.Cycles {
		t.Errorf("cycle accounting: %d + %d != %d", res.Cycles, res.CyclesLoad, ctx.CPU.Stats.Cycles)
	}
}

func TestListHarness(t *testing.T) {
	for _, mode := range rt.Modes {
		ctx := rt.MustNew(mode)
		h := NewListHarness(ctx)
		vals := make([][2]uint64, 100)
		want := uint64(0)
		for i := range vals {
			vals[i] = [2]uint64{uint64(i), uint64(i * 2)}
			want += uint64(i) + uint64(i*2)
		}
		res := h.Run(vals, 3)
		if res.Checksum != want*3 {
			t.Errorf("%s: checksum = %d, want %d", mode, res.Checksum, want*3)
		}
		if res.Benchmark != "LL" || res.Ops != 3 {
			t.Errorf("%s: result meta %+v", mode, res)
		}
		if h.List().Len() != 100 {
			t.Errorf("list length = %d", h.List().Len())
		}
	}
}

func TestScanWorkloadE(t *testing.T) {
	spec := ycsb.WorkloadE(400, 1500, 6)
	for _, mode := range rt.Modes {
		ctx := rt.MustNew(mode)
		s := New(ctx, func(c *rt.Context) structures.Index { return structures.NewRB(c) })
		res := s.RunWorkload(ycsb.Generate(spec))
		if res.Scans == 0 {
			t.Fatalf("%s: no scans executed", mode)
		}
		if res.Misses != 0 {
			t.Errorf("%s: %d unsupported/missed ops", mode, res.Misses)
		}
	}
	// Checksums agree across modes.
	var want uint64
	for i, mode := range rt.Modes {
		ctx := rt.MustNew(mode)
		s := New(ctx, func(c *rt.Context) structures.Index { return structures.NewRB(c) })
		res := s.RunWorkload(ycsb.Generate(spec))
		if i == 0 {
			want = res.Checksum
		} else if res.Checksum != want {
			t.Errorf("%s scan checksum = %d, want %d", mode, res.Checksum, want)
		}
	}
}

func TestScanUnsupportedIndex(t *testing.T) {
	ctx := rt.MustNew(rt.Volatile)
	s := New(ctx, func(c *rt.Context) structures.Index { return structures.NewHash(c, 64) })
	if n, _ := s.Scan(0, 10); n != -1 {
		t.Errorf("hash Scan = %d, want -1 (unsupported)", n)
	}
}

// TestCloseReleasesBuffer verifies Close returns the DRAM request buffer to
// the heap (the next Malloc of the same size reuses the block) and that
// Close is idempotent.
func TestCloseReleasesBuffer(t *testing.T) {
	ctx := rt.MustNew(rt.HW)
	s := New(ctx, func(c *rt.Context) structures.Index { return structures.NewRB(c) })
	s.Set(1, 100)
	freed := s.buf
	s.Close()
	if got := ctx.Malloc(harnessBufferSlots * 8); got != freed {
		t.Errorf("freed buffer not reused: Malloc = %s, want %s", got, freed)
	}
	s.Close() // must be a no-op, not a double free
}

func TestDeleteThroughStore(t *testing.T) {
	ctx := rt.MustNew(rt.HW)
	s := New(ctx, func(c *rt.Context) structures.Index { return structures.NewRB(c) })
	defer s.Close()
	s.Set(1, 100)
	if found, ok := s.Delete(1); !ok || !found {
		t.Errorf("Delete(1) = (%v,%v)", found, ok)
	}
	if _, ok := s.Get(1); ok {
		t.Error("key survived Delete")
	}
	if found, ok := s.Delete(1); !ok || found {
		t.Errorf("re-Delete(1) = (%v,%v)", found, ok)
	}
}

func TestScanVisit(t *testing.T) {
	ctx := rt.MustNew(rt.HW)
	s := New(ctx, func(c *rt.Context) structures.Index { return structures.NewRB(c) })
	defer s.Close()
	for k := uint64(0); k < 10; k++ {
		s.Set(k, k*3)
	}
	var got []uint64
	n := s.ScanVisit(4, 3, func(k, v uint64) { got = append(got, k) })
	if n != 3 || len(got) != 3 || got[0] != 4 || got[2] != 6 {
		t.Errorf("ScanVisit = %d, keys %v", n, got)
	}
}

// BenchmarkRBUnderHWCall times one call of the serving tier's engine — the
// RB index under the HW model — over the ycsb.PaperSpec stream, the loop
// whose per-call host latency embedded_paper reports as p50_us. The load
// phase runs outside the timer; a run longer than the stream reloads a
// fresh store and starts the stream over.
func BenchmarkRBUnderHWCall(b *testing.B) {
	w := ycsb.Generate(ycsb.PaperSpec())
	var s *Store
	load := func() {
		if s != nil {
			s.Close()
		}
		s = New(rt.MustNew(rt.HW), func(c *rt.Context) structures.Index { return structures.NewRB(c) })
		for _, kv := range w.Load {
			s.Set(kv.Key, kv.Value)
		}
	}
	load()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := i % len(w.Ops)
		if j == 0 && i > 0 {
			b.StopTimer()
			load()
			b.StartTimer()
		}
		if op := w.Ops[j]; op.Type == ycsb.Get {
			s.Get(op.Key)
		} else {
			s.Set(op.Key, op.Value)
		}
	}
}
