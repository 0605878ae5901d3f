package server

import (
	"errors"
	"os"
	"strings"
	"testing"
	"time"

	"nvref/internal/fault"
	"nvref/internal/pmem"
)

// leak leaves crash residue in the shard's live pool, the way an
// interrupted Alloc does: a block that is neither live nor on the free list
// (its magic word zeroed), and header statistics that disagree with the
// heap walk — three fsck warnings.
func leak(sh *shard) error {
	off, err := sh.ctx.Pool.Alloc(64)
	if err != nil {
		return err
	}
	return sh.ctx.AS.Store64(sh.ctx.Pool.Base()+off-8, 0)
}

// leakBlock leaks a block in shard si's live pool, on its worker.
func leakBlock(t *testing.T, ts *testServer, si int) {
	t.Helper()
	rep, _ := ts.shards[si].call(nil, func(sh *shard) Reply {
		if err := leak(sh); err != nil {
			return Reply{Status: StatusInternal}
		}
		return Reply{Status: StatusOK}
	})
	if rep.Status != StatusOK {
		t.Fatalf("leaking a block: status %d", rep.Status)
	}
}

// fsckClean reports, from shard si's worker, whether its live pool is
// free of every fsck finding, residue included.
func fsckClean(t *testing.T, ts *testServer, si int) bool {
	t.Helper()
	rep, _ := ts.shards[si].call(nil, func(sh *shard) Reply {
		return Reply{Found: pmem.Fsck(sh.ctx.Pool).Clean()}
	})
	return rep.Found
}

// TestResidueReclaimedOnEveryRung: crash residue in the pool is reclaimed
// whichever way the shard recovers — salvaging the live pool after a
// software crash, or reopening the checkpointed image after a power cut —
// not only by the background scrubber.
func TestResidueReclaimedOnEveryRung(t *testing.T) {
	for _, tc := range []struct {
		name    string
		recover func(ts *testServer) error
	}{
		{"panic", func(ts *testServer) error { return ts.InjectPanic(0) }},
		{"power", func(ts *testServer) error {
			// Checkpoint first, so the stored image carries the residue.
			if err := ts.Checkpoint(); err != nil {
				return err
			}
			return ts.InjectCrash(0)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ts := startServer(t, Config{Shards: 1, CheckpointEvery: -1})
			cl := dial(t, ts)
			const n = 100
			for k := uint64(0); k < n; k++ {
				if err := cl.Put(k, keyVal(k)); err != nil {
					t.Fatalf("put %d: %v", k, err)
				}
			}
			leakBlock(t, ts, 0)
			if fsckClean(t, ts, 0) {
				t.Fatal("the leaked block left no fsck finding")
			}
			if err := tc.recover(ts); err != nil {
				t.Fatal(err)
			}
			if !fsckClean(t, ts, 0) {
				t.Error("residue survived the recovery: the pool does not fsck clean")
			}
			if st := ts.CollectStats().PerShard[0]; st.Repairs < 1 {
				t.Errorf("repairs = %d after recovering over residue, want >= 1", st.Repairs)
			}
			for k := uint64(0); k < n; k++ {
				if v, ok, err := cl.Get(k); err != nil || !ok || v != keyVal(k) {
					t.Fatalf("get %d after recovery: (%d, %v, %v)", k, v, ok, err)
				}
			}
		})
	}
}

// TestLadderFailedShardOnUnrepairableImage: a power cut onto a stored image
// nothing can repair (parity off, one flipped bit) fails that one shard —
// it refuses its requests, reports itself not ready, leaves one flight
// dump — while the other shard keeps serving and Close still drains.
func TestLadderFailedShardOnUnrepairableImage(t *testing.T) {
	stores := []pmem.Store{pmem.NewMemStore(), pmem.NewMemStore()}
	flight := t.TempDir()
	ts := startServer(t, Config{
		Shards:          2,
		CheckpointEvery: -1,
		StoreFor:        func(i int) pmem.Store { return stores[i] },
		FlightDir:       flight,
	})
	cl := dial(t, ts)
	k0, k1 := keyForShard(0, 2), keyForShard(1, 2)
	for _, k := range []uint64{k0, k1} {
		if err := cl.Put(k, keyVal(k)); err != nil {
			t.Fatalf("put %d: %v", k, err)
		}
	}
	if err := ts.Checkpoint(); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	corruptShardImage(t, stores[0], fault.BitFlip, 42)

	if err := ts.InjectCrash(0); err == nil {
		t.Fatal("power cut onto an unrepairable image recovered")
	}
	if st := ts.CollectStats().PerShard[0]; st.State != "failed" {
		t.Fatalf("shard 0 state = %q, want failed", st.State)
	}
	for i := 0; i < 3; i++ { // more than one request: nothing heals the shard
		if _, _, err := cl.Get(k0); !errors.Is(err, ErrUnavailable) {
			t.Fatalf("get on the failed shard: %v, want ErrUnavailable", err)
		}
	}
	if v, ok, err := cl.Get(k1); err != nil || !ok || v != keyVal(k1) {
		t.Fatalf("get on the healthy shard: (%d, %v, %v)", v, ok, err)
	}
	if err := cl.Put(k1, keyVal(k1)+1); err != nil {
		t.Fatalf("put on the healthy shard: %v", err)
	}
	if ready, reason := ts.Ready(); ready || !strings.Contains(reason, "shard 0 failed") {
		t.Fatalf("Ready() = (%v, %q), want not ready naming shard 0", ready, reason)
	}
	if st := ts.CollectStats().PerShard[1]; st.State != "healthy" {
		t.Fatalf("shard 1 state = %q, want healthy", st.State)
	}
	if dumps, err := os.ReadDir(flight); err != nil || len(dumps) != 1 {
		t.Fatalf("flight dumps after the failure: %d (%v), want 1", len(dumps), err)
	}

	closed := make(chan struct{})
	go func() {
		ts.close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("Close did not return with a failed shard")
	}
}
