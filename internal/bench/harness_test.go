package bench

import (
	"errors"
	"net"
	"sync/atomic"
	"testing"

	"nvref/internal/cluster"
	"nvref/internal/rt"
	"nvref/internal/server"
)

// TestLedgerSweepVerdicts shows the oracle can fail: against a fake store,
// a key held below its highest ack is lost, an absent key is missing, a
// key at or above its highest ack (a later unacknowledged write) is
// neither, and merging per-client maps keeps each key's maximum.
func TestLedgerSweepVerdicts(t *testing.T) {
	l := &ledger{acked: make(map[uint64]uint64)}
	l.merge(map[uint64]uint64{1: 5, 2: 7, 3: 2, 4: 9})
	l.merge(map[uint64]uint64{1: 3, 2: 8})
	if l.acked[1] != 5 || l.acked[2] != 8 {
		t.Fatalf("merge must keep the maximum per key: %v", l.acked)
	}

	stored := map[uint64]uint64{
		1: 5,  // exactly the highest ack
		2: 7,  // below the highest ack (8): rolled back
		4: 12, // above: a later write whose ack never arrived
		// 3 absent
	}
	get := func(k uint64) (uint64, bool, error) {
		v, ok := stored[k]
		return v, ok, nil
	}
	missing, lost, err := l.sweep(get)
	if err != nil {
		t.Fatal(err)
	}
	if missing != 1 || lost != 1 {
		t.Errorf("sweep = %d missing, %d lost; want 1 missing (key 3), 1 lost (key 2)", missing, lost)
	}

	boom := errors.New("boom")
	if _, _, err := l.sweep(func(uint64) (uint64, bool, error) { return 0, false, boom }); !errors.Is(err, boom) {
		t.Errorf("sweep swallowed the getter's error: %v", err)
	}
}

// fakeKV is a client that stores nothing: it counts the ops issued, fails
// every failEvery-th one, and checks the single-writer rule on writes.
type fakeKV struct {
	t         *testing.T
	ci, n     uint64
	issued    *atomic.Int64
	failEvery int64
}

func (f fakeKV) op() error {
	if i := f.issued.Add(1); f.failEvery > 0 && i%f.failEvery == 0 {
		return errors.New("injected")
	}
	return nil
}

func (f fakeKV) Get(uint64) (uint64, bool, error) { return 0, false, f.op() }

func (f fakeKV) Put(key, _ uint64) error {
	if key%f.n != f.ci {
		f.t.Errorf("client %d wrote key %d, owned by client %d", f.ci, key, key%f.n)
	}
	return f.op()
}

func (f fakeKV) Close() error { return nil }

// TestNemesisTriggerFiresOnExactOp drives the closed loop over fake
// clients: the trigger armed at a fraction of the stream fires exactly
// once, when exactly that many operations have completed — failed ones
// included — and a trigger armed past the end of the stream is an error,
// not a silent pass.
func TestNemesisTriggerFiresOnExactOp(t *testing.T) {
	for _, clients := range []int{1, 4} {
		spec := LoadSpec{Records: 64, Operations: 400, Clients: clients, Mode: rt.HW, Seed: 3}
		var issued atomic.Int64
		dial := func(ci int) (kv, error) {
			return fakeKV{t: t, ci: uint64(ci), n: uint64(clients), issued: &issued, failEvery: 7}, nil
		}

		h := newAcceptance(spec)
		fired, sawIssued, sawDone := 0, int64(0), int64(0)
		h.at(0.25, func() {
			fired++
			sawIssued, sawDone = issued.Load(), h.done.Load()
		})
		if err := h.drive(dial); err != nil {
			t.Fatalf("%d clients: %v", clients, err)
		}
		if fired != 1 {
			t.Errorf("%d clients: trigger fired %d times, want 1", clients, fired)
		}
		// The firing client has not moved on, so the completion count it
		// sees is at least 100; with one client nothing else can move it.
		if sawDone < 100 || sawIssued < 100 || (clients == 1 && (sawDone != 100 || sawIssued != 100)) {
			t.Errorf("%d clients: fired with %d ops issued, %d completed; want op 100", clients, sawIssued, sawDone)
		}
		if h.res.OpsOK+h.res.OpsFailed != 400 || h.res.OpsFailed != 400/7 {
			t.Errorf("%d clients: %d ok + %d failed, want 400 ops with %d failed", clients, h.res.OpsOK, h.res.OpsFailed, 400/7)
		}
		if len(h.lats) != h.res.OpsOK {
			t.Errorf("%d clients: %d latencies for %d ok ops", clients, len(h.lats), h.res.OpsOK)
		}

		late := newAcceptance(spec)
		late.at(1.5, func() { t.Error("trigger past the end of the stream fired") })
		if err := late.drive(dial); err == nil {
			t.Errorf("%d clients: a trigger that never fired must fail the run", clients)
		}
	}
}

// TestKVAdapters runs every client type the harness drives through the
// same load / sweep sequence against live servers: the three server
// clients satisfy kv as they are, and the load phase takes the batched
// path where the client has one and the per-key path where it does not.
func TestKVAdapters(t *testing.T) {
	spec := LoadSpec{Records: 300, Clients: 1, Shards: 2, Mode: rt.HW, PoolSize: 4 << 20, Seed: 9}
	p, err := startPair(spec.config(), spec.config())
	if err != nil {
		t.Fatal(err)
	}
	defer p.close()

	node, naddr := startSingleNodeCluster(t, spec)
	defer node.Abort()

	resilient := func(addr string) (*server.ResilientClient, error) {
		return server.DialResilient(addr, server.RetryPolicy{Seed: 1})
	}
	for _, tc := range []struct {
		name    string
		batched bool
		dial    func() (kv, error)
	}{
		{"Client", true, func() (kv, error) { return server.Dial(p.paddr) }},
		{"ResilientClient", true, func() (kv, error) { return resilient(p.paddr) }},
		{"ClusterClient", false, func() (kv, error) {
			return server.DialCluster([]string{naddr}, server.RetryPolicy{Seed: 1}, nil)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			h := newAcceptance(spec)
			loader, err := tc.dial()
			if err != nil {
				t.Fatal(err)
			}
			if _, ok := loader.(batcher); ok != tc.batched {
				t.Errorf("batched load path = %v, want %v", ok, tc.batched)
			}
			if err := h.load(loader); err != nil {
				t.Fatal(err)
			}
			cl, err := tc.dial()
			if err != nil {
				t.Fatal(err)
			}
			if _, found, err := cl.Get(1 << 40); err != nil || found {
				t.Errorf("Get of an absent key = found %v, err %v", found, err)
			}
			if err := h.verify(cl); err != nil {
				t.Fatal(err)
			}
			r := h.res
			if r.AckedKeys != spec.Records || r.MissingKeys != 0 || r.LostWrites != 0 {
				t.Errorf("load+verify through %s: %+v", tc.name, r)
			}
		})
	}
}

// startSingleNodeCluster serves a one-node cluster owning every slot.
func startSingleNodeCluster(t *testing.T, spec LoadSpec) (*server.Server, string) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	m, err := cluster.New(8, []string{ln.Addr().String()})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := startClusterNode(spec, ln, m)
	if err != nil {
		t.Fatal(err)
	}
	return srv, ln.Addr().String()
}
