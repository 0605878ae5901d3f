package server

import (
	"errors"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"nvref/internal/cluster"
	"nvref/internal/obs"
	"nvref/internal/pmem"
)

// startClusterNodes boots n clustered nodes on loopback sharing an
// epoch-1 bootstrap map.
func startClusterNodes(t *testing.T, n, slots, shards int) (srvs []*Server, addrs []string) {
	t.Helper()
	ls := make([]net.Listener, n)
	addrs = make([]string, n)
	for i := 0; i < n; i++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("listen: %v", err)
		}
		ls[i] = l
		addrs[i] = l.Addr().String()
	}
	m, err := cluster.New(slots, addrs)
	if err != nil {
		t.Fatalf("cluster.New: %v", err)
	}
	srvs = make([]*Server, n)
	for i := 0; i < n; i++ {
		s, err := New(Config{Shards: shards, CheckpointEvery: 128, ClusterSelf: addrs[i], ClusterMap: m})
		if err != nil {
			t.Fatalf("node %d: %v", i, err)
		}
		go s.Serve(ls[i])
		srvs[i] = s
		t.Cleanup(s.Abort)
	}
	return srvs, addrs
}

// TestClusterMovedRouting proves the redirect contract: a node answers
// MOVED with the owner's address for keys it does not own, and the
// routing client follows the redirect without being told the topology.
func TestClusterMovedRouting(t *testing.T) {
	srvs, addrs := startClusterNodes(t, 2, 8, 2)
	m := srvs[0].clusterMap()

	// Find keys landing on each node's slots.
	keyOn := make(map[string]uint64)
	for k := uint64(1); len(keyOn) < 2; k++ {
		owner := m.OwnerOf(cluster.SlotFor(k, m.Slots))
		if _, ok := keyOn[owner]; !ok {
			keyOn[owner] = k
		}
	}

	// A plain client pinned to node 0 must be refused node 1's key with
	// the owner's address in the redirect.
	c, err := Dial(addrs[0])
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()
	if err := c.Put(keyOn[addrs[0]], 7); err != nil {
		t.Fatalf("put owned key: %v", err)
	}
	err = c.Put(keyOn[addrs[1]], 8)
	var mv *MovedError
	if !errors.As(err, &mv) {
		t.Fatalf("put foreign key: got %v, want MovedError", err)
	}
	if mv.Addr != addrs[1] || mv.Epoch != m.Epoch {
		t.Fatalf("redirect hint = %q epoch %d, want %q epoch %d", mv.Addr, mv.Epoch, addrs[1], m.Epoch)
	}
	if !errors.Is(err, ErrMoved) || Retryable(err) {
		t.Fatalf("MovedError must match ErrMoved and not be Retryable")
	}

	// The routing client serves both keys transparently.
	cc, err := DialCluster([]string{addrs[0]}, RetryPolicy{}, nil)
	if err != nil {
		t.Fatalf("DialCluster: %v", err)
	}
	defer cc.Close()
	for owner, k := range keyOn {
		if err := cc.Put(k, k*10); err != nil {
			t.Fatalf("routed put key %d (owner %s): %v", k, owner, err)
		}
		v, found, err := cc.Get(k)
		if err != nil || !found || v != k*10 {
			t.Fatalf("routed get key %d: v=%d found=%v err=%v", k, v, found, err)
		}
	}
}

// TestClusterEpochMonotonic proves map installs only ever move forward:
// a newer epoch is adopted, the same or an older epoch is refused with
// StatusWrongEpoch, and the cached map never regresses.
func TestClusterEpochMonotonic(t *testing.T) {
	srvs, addrs := startClusterNodes(t, 2, 8, 1)
	m := srvs[0].clusterMap()

	c, err := Dial(addrs[0])
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()

	// Re-installing the current epoch is refused.
	if err := c.MapUpdate(m); !errors.Is(err, ErrWrongEpoch) {
		t.Fatalf("same-epoch install: got %v, want ErrWrongEpoch", err)
	}

	// A newer epoch is adopted...
	next, err := m.WithOwner(0, addrs[1])
	if err != nil {
		t.Fatalf("WithOwner: %v", err)
	}
	if err := c.MapUpdate(next); err != nil {
		t.Fatalf("newer-epoch install: %v", err)
	}
	if got := srvs[0].clusterMap().Epoch; got != next.Epoch {
		t.Fatalf("epoch after install = %d, want %d", got, next.Epoch)
	}

	// ...and the now-stale predecessor is refused, leaving the epoch alone.
	if err := c.MapUpdate(m); !errors.Is(err, ErrWrongEpoch) {
		t.Fatalf("stale install: got %v, want ErrWrongEpoch", err)
	}
	if got := srvs[0].clusterMap().Epoch; got != next.Epoch {
		t.Fatalf("epoch regressed to %d after stale install", got)
	}
	if cs := srvs[0].CollectStats().Cluster; cs == nil || cs.MapRejects < 2 {
		t.Fatalf("map rejects not counted: %+v", cs)
	}
}

// TestClusterLiveMigration migrates one slot between two nodes while a
// writer keeps updating a key in that slot, and asserts the full
// handover contract: the key's newest acked value is served by the new
// owner, the donor redirects, the audit found zero stale-epoch writes,
// and the donor purged the migrated keys.
func TestClusterLiveMigration(t *testing.T) {
	srvs, addrs := startClusterNodes(t, 2, 8, 2)
	m := srvs[0].clusterMap()

	// A slot owned by node 0 and a key inside it.
	slot := -1
	for sl := 0; sl < m.Slots; sl++ {
		if m.OwnerOf(sl) == addrs[0] {
			slot = sl
			break
		}
	}
	var key uint64
	for k := uint64(1); ; k++ {
		if cluster.SlotFor(k, m.Slots) == slot {
			key = k
			break
		}
	}

	cc, err := DialCluster(addrs, RetryPolicy{}, nil)
	if err != nil {
		t.Fatalf("DialCluster: %v", err)
	}
	defer cc.Close()
	if err := cc.Put(key, 1); err != nil {
		t.Fatalf("seed put: %v", err)
	}

	// Writer hammering the key through the routing client during the
	// migration; acked is the newest value it saw acknowledged.
	var acked atomic.Uint64
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		wc, err := DialCluster(addrs, RetryPolicy{Seed: 99}, nil)
		if err != nil {
			return
		}
		defer wc.Close()
		for v := uint64(2); ; v++ {
			select {
			case <-stop:
				return
			default:
			}
			if err := wc.Put(key, v); err == nil {
				acked.Store(v)
			}
		}
	}()

	if err := srvs[1].MigrateIn(slot, nil); err != nil {
		t.Fatalf("MigrateIn: %v", err)
	}
	close(stop)
	<-done

	// Ownership moved at a higher epoch on both nodes.
	for i, s := range srvs {
		nm := s.clusterMap()
		if nm.Epoch <= m.Epoch {
			t.Fatalf("node %d epoch = %d, want > %d", i, nm.Epoch, m.Epoch)
		}
		if nm.OwnerOf(slot) != addrs[1] {
			t.Fatalf("node %d: slot %d owner = %q, want %q", i, slot, nm.OwnerOf(slot), addrs[1])
		}
	}

	// The newest acked write survived the handover, served by the new owner.
	v, found, err := cc.Get(key)
	if err != nil || !found {
		t.Fatalf("get after migration: v=%d found=%v err=%v", v, found, err)
	}
	if want := acked.Load(); v < want {
		t.Fatalf("acked write lost across migration: stored %d < acked %d", v, want)
	}

	// The donor redirects the key and purged its copy.
	dc, err := Dial(addrs[0])
	if err != nil {
		t.Fatalf("dial donor: %v", err)
	}
	defer dc.Close()
	if _, _, err := dc.Get(key); !errors.Is(err, ErrMoved) {
		t.Fatalf("donor get after handover: got %v, want MOVED", err)
	}
	ds := srvs[0].CollectStats().Cluster
	if ds.StaleEpochWrites != 0 {
		t.Fatalf("stale-epoch writes = %d, want 0", ds.StaleEpochWrites)
	}
	if ds.MigratedOut != 1 || ds.FencedSlots != 0 {
		t.Fatalf("donor stats: migrated_out=%d fenced=%d, want 1/0", ds.MigratedOut, ds.FencedSlots)
	}
	if as := srvs[1].CollectStats().Cluster; as.MigratedIn != 1 || as.Ingested == 0 {
		t.Fatalf("acceptor stats: migrated_in=%d ingested=%d", as.MigratedIn, as.Ingested)
	}
}

// TestClusterFenceIdempotent proves the fence contract: a retried fence
// for the same acceptor returns the captured watermarks again, and a
// competing acceptor is refused.
func TestClusterFenceIdempotent(t *testing.T) {
	srvs, addrs := startClusterNodes(t, 2, 8, 2)
	m := srvs[0].clusterMap()
	slot := -1
	for sl := 0; sl < m.Slots; sl++ {
		if m.OwnerOf(sl) == addrs[0] {
			slot = sl
			break
		}
	}

	c, err := Dial(addrs[0])
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()
	seqs, err := c.MigFence(uint32(slot), addrs[1])
	if err != nil {
		t.Fatalf("fence: %v", err)
	}
	if len(seqs) != 2 {
		t.Fatalf("fence seqs = %v, want one per shard", seqs)
	}
	again, err := c.MigFence(uint32(slot), addrs[1])
	if err != nil {
		t.Fatalf("refence: %v", err)
	}
	for i := range seqs {
		if again[i] != seqs[i] {
			t.Fatalf("refence seqs = %v, want %v", again, seqs)
		}
	}
	if _, err := c.MigFence(uint32(slot), "competitor:1"); !errors.Is(err, ErrProto) {
		t.Fatalf("competing fence: got %v, want bad request", err)
	}

	// Fenced-slot traffic redirects toward the acceptor even though the
	// map still names the donor.
	var key uint64
	for k := uint64(1); ; k++ {
		if cluster.SlotFor(k, m.Slots) == slot {
			key = k
			break
		}
	}
	var mv *MovedError
	if err := c.Put(key, 1); !errors.As(err, &mv) || mv.Addr != addrs[1] {
		t.Fatalf("fenced put: got %v, want MOVED to %q", err, addrs[1])
	}

	// Committing the handover releases the fence.
	next, err := m.WithOwner(slot, addrs[1])
	if err != nil {
		t.Fatalf("WithOwner: %v", err)
	}
	if err := c.MapUpdate(next); err != nil {
		t.Fatalf("commit: %v", err)
	}
	if fs := srvs[0].CollectStats().Cluster.FencedSlots; fs != 0 {
		t.Fatalf("fenced slots after commit = %d, want 0", fs)
	}
}

// TestClusterScanFiltersResidue proves a cluster Scan deduplicates keys
// that linger on a donor between handover and purge: each pair is kept
// only if the map assigns its slot to the serving node.
func TestClusterScanFiltersResidue(t *testing.T) {
	srvs, addrs := startClusterNodes(t, 2, 8, 1)
	cc, err := DialCluster(addrs, RetryPolicy{}, nil)
	if err != nil {
		t.Fatalf("DialCluster: %v", err)
	}
	defer cc.Close()
	for k := uint64(1); k <= 32; k++ {
		if err := cc.Put(k, k); err != nil {
			t.Fatalf("put %d: %v", k, err)
		}
	}
	pairs, err := cc.Scan(0, 64)
	if err != nil {
		t.Fatalf("scan: %v", err)
	}
	if len(pairs) != 32 {
		t.Fatalf("scan returned %d pairs, want 32", len(pairs))
	}
	for i := 1; i < len(pairs); i++ {
		if pairs[i-1].Key >= pairs[i].Key {
			t.Fatalf("scan not sorted at %d: %v >= %v", i, pairs[i-1].Key, pairs[i].Key)
		}
	}
	_ = srvs
}

// TestClusterMapPersistence proves a node reloads its last installed map
// across a restart and rejoins at the persisted epoch.
func TestClusterMapPersistence(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	addr := l.Addr().String()
	m, err := cluster.New(8, []string{addr, "peer:1"})
	if err != nil {
		t.Fatalf("cluster.New: %v", err)
	}
	store := pmem.NewMemStore()
	s, err := New(Config{Shards: 1, ClusterSelf: addr, ClusterMap: m, ClusterStore: store})
	if err != nil {
		t.Fatalf("new: %v", err)
	}
	go s.Serve(l)
	c, err := Dial(addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	next, err := m.WithOwner(0, "peer:1")
	if err != nil {
		t.Fatalf("WithOwner: %v", err)
	}
	if err := c.MapUpdate(next); err != nil {
		t.Fatalf("install: %v", err)
	}
	c.Close()
	s.Abort()

	// Restart over the same store with only the stale bootstrap map: the
	// persisted, newer image must win.
	l2, err := net.Listen("tcp", addr)
	if err != nil {
		t.Skipf("rebind %s: %v", addr, err)
	}
	s2, err := New(Config{Shards: 1, ClusterSelf: addr, ClusterMap: m, ClusterStore: store})
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
	defer s2.Abort()
	go s2.Serve(l2)
	if got := s2.clusterMap().Epoch; got != next.Epoch {
		t.Fatalf("epoch after restart = %d, want %d", got, next.Epoch)
	}
	waitFor(t, "server accepting", time.Second, func() bool {
		c2, err := Dial(addr)
		if err != nil {
			return false
		}
		c2.Close()
		return true
	})
}

// TestFollowerAutoReseed is the divergence regression test: a fresh
// replica attaches to a primary whose op log has truncated past sequence
// zero, which previously stalled forever behind a "re-seed this replica"
// log line. The follower must now detect the divergence, rebuild itself
// from a primary snapshot over the migration transfer machinery, and
// converge.
func TestFollowerAutoReseed(t *testing.T) {
	p, r, paddr, _ := startPair(t, 2, func(c *Config) { c.CheckpointEvery = 32 }, nil)
	defer p.Abort()

	c, err := DialResilient([]string{paddr.String()}, RetryPolicy{}, nil)
	if err != nil {
		t.Fatalf("dial primary: %v", err)
	}
	defer c.Close()
	const keys = 100
	put := func(k, v uint64) {
		t.Helper()
		if _, _, err := c.PutSeq(k, v); err != nil {
			t.Fatalf("put %d: %v", k, err)
		}
	}
	next := uint64(1)
	for k := uint64(1); k <= keys; k++ {
		put(k, k*3)
		next++
	}

	// Drive checkpoints (writes below keep landing on key 1) until every
	// primary shard's log has truncated past its base — the precondition
	// that makes a fresh replica diverge instead of catching up.
	waitFor(t, "primary log truncation", 10*time.Second, func() bool {
		put(1, keys*3+next)
		next++
		for _, sh := range p.shards {
			if sh.cfg.oplog.BaseSeq() <= 1 && sh.cfg.oplog.LastSeq() > 0 {
				return false
			}
		}
		return true
	})
	final, err := c.Scan(0, keys*2)
	if err != nil {
		t.Fatalf("primary scan: %v", err)
	}

	// Kill the caught-up replica and attach a brand-new empty one: its
	// applied sequence is zero, far behind every shard's log base.
	r.Abort()
	r2, err := New(Config{
		Shards:          2,
		Role:            RoleReplica,
		CheckpointEvery: 32,
		FollowAddr:      paddr.String(),
	})
	if err != nil {
		t.Fatalf("fresh replica: %v", err)
	}
	defer r2.Abort()
	raddr2, err := r2.Start("127.0.0.1:0")
	if err != nil {
		t.Fatalf("fresh replica start: %v", err)
	}

	// Wait shard by shard. Every shard whose log no longer starts at 1 must
	// re-seed, exactly once — a shard mid-re-seed already has applied at the
	// watermark, so lag alone cannot tell it from a finished one — and then
	// every shard must have applied through its primary shard's last record.
	diverging := 0
	for _, sh := range p.shards {
		if sh.cfg.oplog.BaseSeq() > 1 {
			diverging++
		}
	}
	waitFor(t, "auto re-seed", 10*time.Second, func() bool {
		fs := r2.CollectStats().Follower
		if fs == nil || fs.Reseeds < uint64(diverging) {
			return false
		}
		for i, sh := range r2.shards {
			if sh.applied.Load() < p.shards[i].cfg.oplog.LastSeq() {
				return false
			}
		}
		return true
	})
	fs := r2.CollectStats().Follower
	if fs.Divergences == 0 {
		t.Fatalf("divergence not counted before re-seed")
	}

	// The rebuilt replica serves exactly the primary's data.
	rc, err := Dial(raddr2.String())
	if err != nil {
		t.Fatalf("dial replica: %v", err)
	}
	defer rc.Close()
	got, err := rc.Scan(0, keys*2)
	if err != nil {
		t.Fatalf("replica scan: %v", err)
	}
	if len(got) != len(final) {
		t.Fatalf("replica holds %d keys, primary %d", len(got), len(final))
	}
	for i := range final {
		if got[i] != final[i] {
			t.Fatalf("pair %d: replica %+v, primary %+v", i, got[i], final[i])
		}
	}

	// And it keeps following: a post-re-seed write reaches it.
	put(keys+1, 12345)
	waitFor(t, "post-reseed replication", 5*time.Second, func() bool {
		v, found, err := rc.Get(keys + 1)
		return err == nil && found && v == 12345
	})
}

// TestClusterJoinRebalance drives the scale-out path end to end in
// process: a fresh node adopts a running cluster's map, owns nothing,
// then Rebalance migrates its fair share of slots onto it live; stale
// routing clients follow the MOVED redirects to the new topology, the
// founders converge on the final map via gossip, and the joiner's
// metrics expose the whole transition.
func TestClusterJoinRebalance(t *testing.T) {
	srvs, addrs := startClusterNodes(t, 2, 9, 1)

	cc, err := DialCluster(addrs, RetryPolicy{}, nil)
	if err != nil {
		t.Fatalf("DialCluster: %v", err)
	}
	defer cc.Close()
	const n = 60
	for k := uint64(0); k < n; k++ {
		if err := cc.Put(k, k+100); err != nil {
			t.Fatalf("seed put %d: %v", k, err)
		}
	}

	// A fresh node with the cluster tier on but no map yet.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	jaddr := l.Addr().String()
	reg := obs.NewRegistry()
	js, err := New(Config{Shards: 1, CheckpointEvery: 128, ClusterSelf: jaddr, Reg: reg})
	if err != nil {
		t.Fatalf("joiner: %v", err)
	}
	go js.Serve(l)
	t.Cleanup(js.Abort)

	if _, err := js.Rebalance(nil); err == nil {
		t.Fatal("Rebalance before JoinCluster must fail: no map")
	}
	if err := js.JoinCluster(addrs[0], nil); err != nil {
		t.Fatalf("JoinCluster: %v", err)
	}
	if m := js.clusterMap(); m.Epoch != 1 || m.Owned(jaddr) != 0 {
		t.Fatalf("after join: epoch %d, owned %d; want 1, 0", m.Epoch, m.Owned(jaddr))
	}

	moved, err := js.Rebalance(nil)
	if err != nil {
		t.Fatalf("Rebalance: %v", err)
	}
	if moved < 1 {
		t.Fatalf("Rebalance moved %d slots, want >= 1", moved)
	}
	jm := js.clusterMap()
	if jm.Owned(jaddr) != moved {
		t.Fatalf("joiner owns %d slots, migrated %d", jm.Owned(jaddr), moved)
	}
	if jm.Epoch != 1+uint64(moved) {
		t.Fatalf("epoch %d after %d single-slot migrations from epoch 1", jm.Epoch, moved)
	}
	// Rebalance stopped at the fair share: one more step has nothing to move.
	if again, err := js.RebalanceOnce(nil); err != nil || again {
		t.Fatalf("a step past the fair share: moved %v, err %v", again, err)
	}

	// Both founders converge on the final map: the donor synchronously at
	// commit, the bystander via best-effort gossip.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if srvs[0].clusterMap().Epoch == jm.Epoch && srvs[1].clusterMap().Epoch == jm.Epoch {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("founders at epochs %d/%d, want %d",
				srvs[0].clusterMap().Epoch, srvs[1].clusterMap().Epoch, jm.Epoch)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// The pre-migration client still holds the epoch-1 map: its next
	// sweep trips MOVED on migrated slots and refreshes to the new one.
	for k := uint64(0); k < n; k++ {
		if v, found, err := cc.Get(k); err != nil || !found || v != k+100 {
			t.Fatalf("stale-map get %d: v=%d found=%v err=%v", k, v, found, err)
		}
	}
	if cc.MovedSeen() == 0 || cc.MapRefreshes() == 0 {
		t.Fatalf("stale client: moved=%d refreshes=%d, want both > 0", cc.MovedSeen(), cc.MapRefreshes())
	}
	if cc.Map().Epoch != jm.Epoch {
		t.Fatalf("stale client refreshed to epoch %d, want %d", cc.Map().Epoch, jm.Epoch)
	}

	// A fresh client seeded only with the joiner routes everywhere,
	// deletes included.
	vc, err := DialCluster([]string{jaddr}, RetryPolicy{}, nil)
	if err != nil {
		t.Fatalf("DialCluster joiner: %v", err)
	}
	defer vc.Close()
	if vc.MapLoads() == 0 {
		t.Fatal("fresh client loaded no map")
	}
	found, err := vc.Delete(3)
	if err != nil || !found {
		t.Fatalf("routed delete: found=%v err=%v", found, err)
	}
	if _, found, _ := vc.Get(3); found {
		t.Fatal("key 3 survived its delete")
	}

	// The joiner's metrics expose the transition.
	snap := reg.Snapshot()
	if got := snap.Value("server_cluster_epoch"); got != int64(jm.Epoch) {
		t.Errorf("server_cluster_epoch = %d, want %d", got, jm.Epoch)
	}
	if got := snap.Value("server_cluster_slots_owned"); got != int64(moved) {
		t.Errorf("server_cluster_slots_owned = %d, want %d", got, moved)
	}
	if got := snap.Value("server_cluster_migrated_in_total"); got != int64(moved) {
		t.Errorf("server_cluster_migrated_in_total = %d, want %d", got, moved)
	}
	if got := snap.Value("server_cluster_fenced_slots"); got != 0 {
		t.Errorf("server_cluster_fenced_slots = %d after commit", got)
	}
	if got := snap.Value("server_cluster_ingested_total"); got == 0 {
		t.Error("server_cluster_ingested_total = 0 after migrating populated slots")
	}
}
