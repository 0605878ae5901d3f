package pmem

import (
	"testing"

	"nvref/internal/mem"
	"nvref/internal/obs"
)

// The exported series read the live registry and pool state, and a pool
// that is detached and reattached keeps checkpointing incrementally: the
// record of its saved image survives the round trip.
func TestMetricsFollowCheckpointsAndDetach(t *testing.T) {
	r := NewRegistry(mem.New(), NewMemStore())
	p, err := r.Create("m", 64<<10) // 16 pages
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Alloc(100); err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	r.RegisterMetrics(reg)
	RegisterPoolMetrics(reg, p)
	if err := r.Checkpoint(p); err != nil {
		t.Fatal(err)
	}
	want := map[string]int64{
		"pmem_pool_creates_total":           1,
		"pmem_checkpoints_total":            1,
		"pmem_bytes_saved_total":            64 << 10,
		"pmem_checkpoint_dirty_pages_total": 16,
		"pmem_pools_attached":               1,
		"pmem_allocs_live":                  1,
		"pmem_pool_m_allocs_live":           1,
		"pmem_pool_m_attached":              1,
		"pmem_pool_m_size_bytes":            64 << 10,
	}
	snap := reg.Snapshot()
	for name, v := range want {
		if got := snap.Value(name); got != v {
			t.Errorf("%s = %d, want %d", name, got, v)
		}
	}
	if in, free := snap.Value("pmem_bytes_in_use"), snap.Value("pmem_pool_m_bytes_free"); in == 0 || free == 0 ||
		in != snap.Value("pmem_pool_m_bytes_in_use") || free != snap.Value("pmem_bytes_free") {
		t.Errorf("byte gauges: in use %d, free %d", in, free)
	}

	if err := r.Detach(p); err != nil { // checkpoints, finding nothing changed
		t.Fatal(err)
	}
	snap = reg.Snapshot()
	for _, name := range []string{"pmem_pool_m_attached", "pmem_pool_m_allocs_live", "pmem_pool_m_bytes_in_use", "pmem_pool_m_bytes_free", "pmem_pools_attached"} {
		if got := snap.Value(name); got != 0 {
			t.Errorf("detached: %s = %d, want 0", name, got)
		}
	}
	if err := r.Attach(p); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Alloc(100); err != nil {
		t.Fatal(err)
	}
	if err := r.Checkpoint(p); err != nil {
		t.Fatal(err)
	}
	snap = reg.Snapshot()
	if got := snap.Value("pmem_checkpoint_dirty_pages_total"); got < 17 || got > 18 {
		t.Errorf("after reattach: dirty pages %d, want 16 plus the one or two the alloc touched", got)
	}
	if got := snap.Value("pmem_detaches_total") + snap.Value("pmem_attaches_total"); got != 2 {
		t.Errorf("detaches+attaches = %d, want 2", got)
	}
}
