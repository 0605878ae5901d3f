package server

import (
	"errors"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nvref/internal/obs"
	"nvref/internal/pmem"
	"nvref/internal/repl"
)

// startPair boots a primary and a replica following it, both on loopback.
func startPair(t *testing.T, shards int, primaryCfg, replicaCfg func(*Config)) (p, r *Server, paddr, raddr net.Addr) {
	t.Helper()
	pcfg := Config{
		Shards:          shards,
		Role:            RolePrimary,
		CheckpointEvery: 128,
		AckTimeout:      2 * time.Second,
	}
	if primaryCfg != nil {
		primaryCfg(&pcfg)
	}
	p, err := New(pcfg)
	if err != nil {
		t.Fatalf("primary: %v", err)
	}
	paddr, err = p.Start("127.0.0.1:0")
	if err != nil {
		t.Fatalf("primary start: %v", err)
	}
	rcfg := Config{
		Shards:          shards,
		Role:            RoleReplica,
		CheckpointEvery: 128,
		FollowAddr:      paddr.String(),
	}
	if replicaCfg != nil {
		replicaCfg(&rcfg)
	}
	r, err = New(rcfg)
	if err != nil {
		p.Abort()
		t.Fatalf("replica: %v", err)
	}
	raddr, err = r.Start("127.0.0.1:0")
	if err != nil {
		p.Abort()
		r.Abort()
		t.Fatalf("replica start: %v", err)
	}
	return p, r, paddr, raddr
}

func waitFor(t *testing.T, what string, d time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestReplicationPair(t *testing.T) {
	p, r, paddr, raddr := startPair(t, 2, nil, nil)
	defer r.Abort()
	defer p.Abort()

	// Wait for the follower to make contact so writes are held, not
	// degraded-acked.
	waitFor(t, "follower contact", 5*time.Second, func() bool {
		return r.CollectStats().Follower.Pulls > 0
	})

	c, err := Dial(paddr.String())
	if err != nil {
		t.Fatalf("dial primary: %v", err)
	}
	defer c.Close()

	const n = 200
	tokens := make(map[uint64]uint64, n) // key → seq
	for k := uint64(1); k <= n; k++ {
		shard, seq, err := c.PutSeq(k, k*10)
		if err != nil {
			t.Fatalf("put %d: %v", k, err)
		}
		if seq == 0 {
			t.Fatalf("put %d: no sequence assigned (shard %d)", k, shard)
		}
		tokens[k] = seq
	}
	if _, err := c.Delete(5); err != nil {
		t.Fatalf("delete: %v", err)
	}

	// Lag must drain to zero once writes stop.
	waitFor(t, "lag drain", 5*time.Second, func() bool {
		return p.CollectStats().ReplLagRecords == 0
	})

	// Every acked write is readable on the replica, gated by its token.
	rc, err := Dial(raddr.String())
	if err != nil {
		t.Fatalf("dial replica: %v", err)
	}
	defer rc.Close()
	for k := uint64(1); k <= n; k++ {
		v, found, err := rc.GetAt(k, tokens[k])
		if k == 5 {
			if err != nil {
				t.Fatalf("get deleted %d: %v", k, err)
			}
			if found {
				t.Fatalf("key %d: delete did not replicate", k)
			}
			continue
		}
		if err != nil {
			t.Fatalf("get %d: %v", k, err)
		}
		if !found || v != k*10 {
			t.Fatalf("key %d: got (%d, %v), want (%d, true)", k, v, found, k*10)
		}
	}

	// A gate from the future is refused with LAGGING, not served stale.
	if _, _, err := rc.GetAt(1, 1<<40); !errors.Is(err, ErrLagging) {
		t.Fatalf("future gate: got %v, want ErrLagging", err)
	}
	// Plain writes bounce off the replica.
	if err := rc.Put(999, 1); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("replica put: got %v, want ErrReadOnly", err)
	}

	// The primary held acks (semi-sync) rather than degrading, and no
	// held ack timed out.
	ps := p.CollectStats()
	for _, sh := range ps.PerShard {
		if sh.Repl == nil {
			t.Fatalf("shard %d: no repl stats on a primary", sh.ID)
		}
		if sh.Repl.TimeoutAcks != 0 {
			t.Fatalf("shard %d: %d write acks timed out", sh.ID, sh.Repl.TimeoutAcks)
		}
	}
	if ps.Role != "primary" {
		t.Fatalf("primary role = %q", ps.Role)
	}
	if rs := r.CollectStats(); rs.Role != "replica" || rs.Follower == nil {
		t.Fatalf("replica stats: role=%q follower=%v", rs.Role, rs.Follower)
	}
}

func TestPromotionPreservesAckedWrites(t *testing.T) {
	p, r, paddr, raddr := startPair(t, 2, nil, nil)
	defer r.Abort()
	pKilled := false
	defer func() {
		if !pKilled {
			p.Abort()
		}
	}()

	waitFor(t, "follower contact", 5*time.Second, func() bool {
		return r.CollectStats().Follower.Pulls > 0
	})

	c, err := Dial(paddr.String())
	if err != nil {
		t.Fatalf("dial primary: %v", err)
	}
	const n = 150
	acked := make(map[uint64]uint64, n)
	for k := uint64(1); k <= n; k++ {
		if _, _, err := c.PutSeq(k, k^0xabcd); err != nil {
			t.Fatalf("put %d: %v", k, err)
		}
		acked[k] = k ^ 0xabcd
	}
	c.Close()

	// Zero-loss precondition: every ack waited for replica coverage.
	ps := p.CollectStats()
	for _, sh := range ps.PerShard {
		if sh.Repl.DegradedAcks != 0 {
			t.Fatalf("shard %d: %d degraded acks — test raced the follower", sh.ID, sh.Repl.DegradedAcks)
		}
		if sh.Repl.TimeoutAcks != 0 {
			t.Fatalf("shard %d: %d timeout acks", sh.ID, sh.Repl.TimeoutAcks)
		}
	}

	// Kill the primary outright and promote the replica.
	p.Abort()
	pKilled = true
	if err := r.Promote(); err != nil {
		t.Fatalf("promote: %v", err)
	}
	if err := r.Promote(); err == nil {
		t.Fatal("second promote should fail")
	}
	if r.Promotions() != 1 {
		t.Fatalf("promotions = %d, want 1", r.Promotions())
	}

	// Every acknowledged write must be served by the promoted replica,
	// which must also accept new writes now.
	rc, err := Dial(raddr.String())
	if err != nil {
		t.Fatalf("dial promoted: %v", err)
	}
	defer rc.Close()
	for k, want := range acked {
		v, found, err := rc.Get(k)
		if err != nil {
			t.Fatalf("get %d: %v", k, err)
		}
		if !found || v != want {
			t.Fatalf("acked write lost: key %d got (%d, %v), want (%d, true)", k, v, found, want)
		}
	}
	if _, seq, err := rc.PutSeq(7777, 1); err != nil || seq == 0 {
		t.Fatalf("write on promoted replica: seq=%d err=%v", seq, err)
	}
	if got := r.CollectStats().Role; got != "primary" {
		t.Fatalf("promoted role = %q", got)
	}
}

// TestOplogSurvivesPowerLoss: with a persistent log flushed on every
// append, a power-lost shard replays its log tail past the last
// checkpoint — acked writes survive even though the pool rolled back.
func TestOplogSurvivesPowerLoss(t *testing.T) {
	logStores := []pmem.Store{pmem.NewMemStore(), pmem.NewMemStore()}
	cfg := Config{
		Shards:          2,
		Role:            RolePrimary,
		CheckpointEvery: -1, // never checkpoint on cadence
		LogStoreFor:     func(i int) pmem.Store { return logStores[i] },
		LogFlushEvery:   1,
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Abort()
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c, err := Dial(addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const n = 100
	for k := uint64(1); k <= n; k++ {
		if err := c.Put(k, k+1); err != nil {
			t.Fatalf("put %d: %v", k, err)
		}
	}
	for i := 0; i < 2; i++ {
		if err := s.InjectCrash(i); err != nil {
			t.Fatalf("crash shard %d: %v", i, err)
		}
	}
	for k := uint64(1); k <= n; k++ {
		v, found, err := c.Get(k)
		if err != nil {
			t.Fatalf("get %d: %v", k, err)
		}
		if !found || v != k+1 {
			t.Fatalf("key %d lost to power loss despite flushed log: (%d, %v)", k, v, found)
		}
	}
	st := s.CollectStats()
	var replayed uint64
	for _, sh := range st.PerShard {
		replayed += sh.Repl.Replayed
	}
	if replayed == 0 {
		t.Fatal("no records replayed at recovery")
	}
}

func TestAckWaiter(t *testing.T) {
	var ack atomic.Uint64
	w := newAckWaiter(&ack, time.Hour, nil, nil, 0)

	mkresp := func() chan Reply { return make(chan Reply, 1) }

	// Covered holds deliver immediately.
	ack.Store(5)
	r1 := mkresp()
	w.hold(r1, Reply{Status: StatusOK, Seq: 5}, 0)
	select {
	case rep := <-r1:
		if rep.Seq != 5 {
			t.Fatalf("seq = %d", rep.Seq)
		}
	default:
		t.Fatal("covered hold was parked")
	}

	// Uncovered holds park until release.
	r2, r3 := mkresp(), mkresp()
	w.hold(r2, Reply{Status: StatusOK, Seq: 6}, 0)
	w.hold(r3, Reply{Status: StatusOK, Seq: 7}, 0)
	if w.count() != 2 {
		t.Fatalf("held = %d, want 2", w.count())
	}
	ack.Store(6)
	w.release(6)
	if len(r2) != 1 || len(r3) != 0 {
		t.Fatalf("release(6): r2=%d r3=%d", len(r2), len(r3))
	}
	ack.Store(7)
	w.release(7)
	if len(r3) != 1 {
		t.Fatal("release(7) left seq 7 parked")
	}

	// Sweep expires stale holds with UNAVAILABLE.
	wFast := newAckWaiter(&ack, time.Nanosecond, nil, nil, 0)
	r4 := mkresp()
	wFast.hold(r4, Reply{Status: StatusOK, Seq: 100}, 0)
	time.Sleep(time.Millisecond)
	wFast.sweep(time.Now())
	rep := <-r4
	if rep.Status != StatusUnavailable {
		t.Fatalf("swept status = %d", rep.Status)
	}
	if wFast.timeouts() != 1 {
		t.Fatalf("timeouts = %d", wFast.timeouts())
	}

	// Shutdown fails holds and stops parking new ones.
	r5 := mkresp()
	w.hold(r5, Reply{Status: StatusOK, Seq: 50}, 0)
	w.shutdown()
	if rep := <-r5; rep.Status != StatusUnavailable {
		t.Fatalf("shutdown status = %d", rep.Status)
	}
	r6 := mkresp()
	w.hold(r6, Reply{Status: StatusOK, Seq: 60}, 0)
	if len(r6) != 1 {
		t.Fatal("post-shutdown hold was parked")
	}
}

// TestAutoPromote: a replica whose primary vanishes promotes itself after
// PromoteAfter of silence.
func TestAutoPromote(t *testing.T) {
	p, r, paddr, _ := startPair(t, 1, nil, func(c *Config) {
		c.PromoteAfter = 100 * time.Millisecond
	})
	defer r.Abort()

	waitFor(t, "follower contact", 5*time.Second, func() bool {
		return r.CollectStats().Follower.Pulls > 0
	})
	c, err := Dial(paddr.String())
	if err != nil {
		t.Fatal(err)
	}
	for k := uint64(1); k <= 20; k++ {
		if err := c.Put(k, k); err != nil {
			t.Fatalf("put: %v", err)
		}
	}
	c.Close()
	p.Abort()
	waitFor(t, "auto-promotion", 5*time.Second, func() bool {
		// Promote flips the role before it scrubs and counts itself.
		return r.Role() == RolePrimary && r.Promotions() > 0
	})
	if r.Promotions() != 1 {
		t.Fatalf("promotions = %d", r.Promotions())
	}
}

// TestReplicaStartupValidation: a replica must be told whom to follow.
func TestReplicaStartupValidation(t *testing.T) {
	if _, err := New(Config{Shards: 1, Role: RoleReplica}); err == nil {
		t.Fatal("replica without FollowAddr must be rejected")
	}
}

// TestDegradedAcksWithoutReplica: a primary with no live replica acks
// immediately and counts every write as degraded.
func TestDegradedAcksWithoutReplica(t *testing.T) {
	s, err := New(Config{Shards: 1, Role: RolePrimary})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Abort()
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c, err := Dial(addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for k := uint64(1); k <= 10; k++ {
		if err := c.Put(k, k); err != nil {
			t.Fatalf("put: %v", err)
		}
	}
	st := s.CollectStats()
	if got := st.PerShard[0].Repl.DegradedAcks; got != 10 {
		t.Fatalf("degraded acks = %d, want 10", got)
	}
}

// TestFailoverClientRotation: a ResilientClient with a failover list
// rotates off a read-only replica and lands writes on the primary.
func TestFailoverClientRotation(t *testing.T) {
	p, r, paddr, raddr := startPair(t, 1, nil, nil)
	defer r.Abort()
	defer p.Abort()

	// List the replica FIRST: the client must discover it is read-only
	// and rotate to the primary.
	rc, err := DialResilient([]string{raddr.String(), paddr.String()}, RetryPolicy{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	_, seq, err := rc.PutSeq(42, 4242)
	if err != nil {
		t.Fatalf("put via failover list: %v", err)
	}
	if rc.Failovers() == 0 {
		t.Fatal("client never rotated off the read-only replica")
	}
	v, found, err := rc.GetAt(42, seq)
	if err != nil || !found || v != 4242 {
		t.Fatalf("GetAt: (%d, %v, %v)", v, found, err)
	}
}

// TestPrimaryCrashRecoveryKeepsCopiesConvergent: an in-place primary
// power loss (pool rollback + op-log reload) with a live, connected
// replica must not diverge the pair. Shipping is durable-only, so the
// reloaded log is never behind the replica, sequence numbers are never
// re-assigned under the replica's feet, and writes after recovery
// replicate normally.
func TestPrimaryCrashRecoveryKeepsCopiesConvergent(t *testing.T) {
	logStores := []pmem.Store{pmem.NewMemStore(), pmem.NewMemStore()}
	p, r, paddr, raddr := startPair(t, 2, func(c *Config) {
		c.CheckpointEvery = -1 // pools stay at genesis: recovery leans fully on the log
		c.LogStoreFor = func(i int) pmem.Store { return logStores[i] }
		c.LogFlushEvery = -1 // replica pulls are the only flusher (durable-only shipping)
	}, nil)
	defer r.Abort()
	defer p.Abort()

	waitFor(t, "follower contact", 5*time.Second, func() bool {
		return r.CollectStats().Follower.Pulls > 0
	})
	c, err := Dial(paddr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	tokens := make(map[uint64]uint64)
	put := func(lo, hi uint64) {
		for k := lo; k <= hi; k++ {
			_, seq, err := c.PutSeq(k, k*3)
			if err != nil {
				t.Fatalf("put %d: %v", k, err)
			}
			tokens[k] = seq
		}
	}
	put(1, 100)
	waitFor(t, "lag drain", 5*time.Second, func() bool {
		return p.CollectStats().ReplLagRecords == 0
	})

	// Power-cycle every primary shard in place: pools roll back, logs
	// reload at the durable watermark — which durable-only shipping pins
	// at or above everything the replica has applied.
	for i := 0; i < p.Shards(); i++ {
		if err := p.InjectCrash(i); err != nil {
			t.Fatalf("crash shard %d: %v", i, err)
		}
	}
	put(101, 200)
	waitFor(t, "lag drain after recovery", 5*time.Second, func() bool {
		return p.CollectStats().ReplLagRecords == 0
	})

	// The copies converged: no divergence, no refused batch, and every
	// acked write — before and after the crash — readable on the replica
	// at its token.
	rs := r.CollectStats()
	if rs.Follower.Divergences != 0 {
		t.Fatalf("follower divergences = %d", rs.Follower.Divergences)
	}
	for _, sh := range rs.PerShard {
		if sh.Repl.Gaps != 0 {
			t.Fatalf("shard %d: %d apply gaps", sh.ID, sh.Repl.Gaps)
		}
	}
	rc, err := Dial(raddr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	for k, seq := range tokens {
		v, found, err := rc.GetAt(k, seq)
		if err != nil {
			t.Fatalf("get %d: %v", k, err)
		}
		if !found || v != k*3 {
			t.Fatalf("key %d: got (%d, %v), want (%d, true)", k, v, found, k*3)
		}
	}
}

// TestReplicaAckDurabilityAndRestart: REPLACK means "applied and durably
// logged", so the primary may truncate through replAck and a restarted
// replica still resumes its pull cursor past the truncated base instead
// of livelocking on a sequence gap.
func TestReplicaAckDurabilityAndRestart(t *testing.T) {
	rlogs := []pmem.Store{pmem.NewMemStore(), pmem.NewMemStore()}
	rpools := []pmem.Store{pmem.NewMemStore(), pmem.NewMemStore()}
	var rcfg Config
	p, r, paddr, _ := startPair(t, 2, nil, func(c *Config) {
		c.StoreFor = func(i int) pmem.Store { return rpools[i] }
		c.LogStoreFor = func(i int) pmem.Store { return rlogs[i] }
		c.LogFlushEvery = -1   // the ack path is the replica's only flusher
		c.CheckpointEvery = 32 // checkpoint + truncate often: restart must join image and log tail
		rcfg = *c
	})
	defer p.Abort()
	rAlive := true
	defer func() {
		if rAlive {
			r.Abort()
		}
	}()

	waitFor(t, "follower contact", 5*time.Second, func() bool {
		return r.CollectStats().Follower.Pulls > 0
	})
	c, err := Dial(paddr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const n = 200
	tokens := make(map[uint64]uint64, n)
	for k := uint64(1); k <= n; k++ {
		_, seq, err := c.PutSeq(k, k+7)
		if err != nil {
			t.Fatalf("put %d: %v", k, err)
		}
		tokens[k] = seq
	}
	waitFor(t, "lag drain", 5*time.Second, func() bool {
		return p.CollectStats().ReplLagRecords == 0
	})

	// Every acked sequence is durable on the replica: nothing dirty, the
	// flushed watermark covering everything applied.
	for _, sh := range r.CollectStats().PerShard {
		if sh.Repl.Log.Dirty != 0 || sh.Repl.Log.FlushedSeq < sh.Repl.Applied {
			t.Fatalf("shard %d: acked beyond durable: %+v", sh.ID, sh.Repl.Log)
		}
	}

	// Checkpoint the primary so it truncates its logs through replAck,
	// then restart the replica on its surviving log stores. The reloaded
	// applied sequence must meet the primary's truncated base.
	if err := p.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	r.Abort()
	rAlive = false
	r2, err := New(rcfg)
	if err != nil {
		t.Fatalf("restart replica: %v", err)
	}
	defer r2.Abort()
	raddr2, err := r2.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "restarted follower contact", 5*time.Second, func() bool {
		return r2.CollectStats().Follower.Pulls > 0
	})

	// New writes replicate end to end through the restarted replica, and
	// the full acked history is served at its tokens — no gap livelock.
	_, seq, err := c.PutSeq(7777, 42)
	if err != nil || seq == 0 {
		t.Fatalf("post-restart put: seq=%d err=%v", seq, err)
	}
	rc, err := Dial(raddr2.String())
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	waitFor(t, "restarted replica catch-up", 5*time.Second, func() bool {
		v, found, err := rc.GetAt(7777, seq)
		return err == nil && found && v == 42
	})
	for k, tok := range tokens {
		v, found, err := rc.GetAt(k, tok)
		if err != nil {
			t.Fatalf("get %d: %v", k, err)
		}
		if !found || v != k+7 {
			t.Fatalf("key %d: got (%d, %v), want (%d, true)", k, v, found, k+7)
		}
	}
	rs := r2.CollectStats()
	if rs.Follower.Divergences != 0 {
		t.Fatalf("follower divergences = %d", rs.Follower.Divergences)
	}
	for _, sh := range rs.PerShard {
		if sh.Repl.Gaps != 0 {
			t.Fatalf("shard %d: %d apply gaps after restart", sh.ID, sh.Repl.Gaps)
		}
	}
}

// TestPrimaryFencing: with FenceAfter set, a primary that has seen a
// replica refuses writes once the replica goes silent — the fencing half
// of silence-based promotion — while reads keep flowing. A primary that
// never saw a replica is not fenced.
func TestPrimaryFencing(t *testing.T) {
	solo, err := New(Config{Shards: 1, Role: RolePrimary, FenceAfter: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer solo.Abort()
	saddr, err := solo.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	sc, err := Dial(saddr.String())
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(5 * time.Millisecond)
	if err := sc.Put(1, 1); err != nil {
		t.Fatalf("write on a never-paired primary: %v", err)
	}
	sc.Close()

	p, r, paddr, _ := startPair(t, 1, func(c *Config) {
		c.FenceAfter = 50 * time.Millisecond
		c.ReplLiveWindow = 25 * time.Millisecond
		c.AckTimeout = 100 * time.Millisecond
	}, nil)
	defer p.Abort()
	waitFor(t, "follower contact", 5*time.Second, func() bool {
		return r.CollectStats().Follower.Pulls > 0
	})
	c, err := Dial(paddr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Put(1, 10); err != nil {
		t.Fatalf("replicated write: %v", err)
	}

	r.Abort() // the partition stand-in: the replica goes silent for good
	waitFor(t, "write fencing", 5*time.Second, func() bool {
		return errors.Is(c.Put(2, 20), ErrReadOnly)
	})
	if v, found, err := c.Get(1); err != nil || !found || v != 10 {
		t.Fatalf("read on fenced primary: (%d, %v, %v)", v, found, err)
	}
	if got := p.CollectStats().PerShard[0].Repl.FencedWrites; got == 0 {
		t.Fatal("fenced writes not counted")
	}
}

// ---- Checkpoint truncation rule ---------------------------------------------

// durablePrimary boots a one-shard primary with pool and op log on
// MemStores and a metrics registry, returning the stores so a test can
// restart it or inspect the log's images.
func durablePrimary(t *testing.T, checkpointEvery int) (s *Server, c *Client, reg *obs.Registry, logStore pmem.Store, addr net.Addr) {
	t.Helper()
	pool, logStore := pmem.NewMemStore(), pmem.NewMemStore()
	reg = obs.NewRegistry()
	s, err := New(Config{
		Shards:          1,
		Role:            RolePrimary,
		PoolSize:        4 << 20,
		CheckpointEvery: checkpointEvery,
		StoreFor:        func(int) pmem.Store { return pool },
		LogStoreFor:     func(int) pmem.Store { return logStore },
		Reg:             reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	addr, err = s.Start("127.0.0.1:0")
	if err != nil {
		s.Abort()
		t.Fatal(err)
	}
	c, err = Dial(addr.String())
	if err != nil {
		s.Abort()
		t.Fatal(err)
	}
	return s, c, reg, logStore, addr
}

// putRange writes keys lo..hi through pipelined frames; value = key*3.
func putRange(t *testing.T, c *Client, lo, hi uint64) {
	t.Helper()
	for k := lo; k <= hi; {
		p := c.Pipeline()
		for n := 0; n < 64 && k <= hi; n, k = n+1, k+1 {
			p.Put(k, k*3)
		}
		reps, err := p.Run()
		if err != nil {
			t.Fatalf("put batch ending at %d: %v", k-1, err)
		}
		for _, rep := range reps {
			if rep.Status != StatusOK {
				t.Fatalf("put batch ending at %d: status %d", k-1, rep.Status)
			}
		}
	}
}

// TestReplicalessPrimaryTruncatesAtCheckpoint: a primary that never saw a
// replica owes its log prefix to nobody, so every checkpoint truncates
// through what it covers and the log stays bounded by the checkpoint
// cadence plus the segment being filled — and a power loss still replays
// to the full state.
func TestReplicalessPrimaryTruncatesAtCheckpoint(t *testing.T) {
	const every = 512
	s, c, reg, logStore, _ := durablePrimary(t, every)
	defer s.Abort()
	defer c.Close()

	const rounds = 4
	for r := uint64(0); r < rounds; r++ {
		putRange(t, c, r*every+1, (r+1)*every)
		// A periodic checkpoint truncates once its background save is done.
		_ = s.InjectQuiet(func() error { return nil })
		if got := reg.Snapshot().Value("server_shard0_oplog_records"); got > every+repl.SegmentRecords {
			t.Fatalf("round %d: oplog_records = %d, want <= %d", r, got, every+repl.SegmentRecords)
		}
	}
	putRange(t, c, rounds*every+1, rounds*every+200) // a tail past the last checkpoint
	st := s.CollectStats().PerShard[0]
	if st.Checkpoints < 3 || st.Repl.Log.Truncated == 0 {
		t.Fatalf("checkpoints = %d, truncated = %d; want >= 3 checkpoints that truncate", st.Checkpoints, st.Repl.Log.Truncated)
	}
	snap := reg.Snapshot()
	if segs := snap.Value("server_shard0_oplog_segments"); segs < 1 || segs > every/repl.SegmentRecords+2 {
		t.Fatalf("oplog_segments = %d", segs)
	}
	if snap.Value("server_shard0_oplog_flush_bytes_total") == 0 {
		t.Fatal("oplog_flush_bytes_total never moved")
	}
	if images, _ := logStore.List(); len(images) > every/repl.SegmentRecords+2 {
		t.Fatalf("log store holds %d images: %v", len(images), images)
	}

	// One shard, keys written in order: key k is sequence k. Power loss keeps
	// the checkpoint plus the flushed log tail; the write-behind past
	// FlushedSeq is the documented loss window.
	durable := st.Repl.Log.FlushedSeq
	if durable <= rounds*every {
		t.Fatalf("flushed seq %d does not reach past the last checkpoint at %d", durable, rounds*every)
	}
	if err := s.InjectCrash(0); err != nil {
		t.Fatal(err)
	}
	for k := uint64(1); k <= durable; k++ {
		v, found, err := c.Get(k)
		if err != nil || !found || v != k*3 {
			t.Fatalf("after power loss key %d = (%d, %v, %v), want %d", k, v, found, err, k*3)
		}
	}
	if after := s.CollectStats().PerShard[0].Repl; after.Replayed == 0 || after.Log.LastSeq != durable {
		t.Fatalf("recovery replayed %d records to seq %d, want the tail through %d", after.Replayed, after.Log.LastSeq, durable)
	}
}

// TestPeriodicCheckpointSavesOffWorker: a periodic checkpoint's save runs
// beside the worker. While it is held in the store, writes and reads are
// still served and the op-log is not truncated — truncation waits for the
// save — and a CHECKPOINT waits for it; once it completes, the log drops
// what the image covers, and both the worker stall and the save are timed.
func TestPeriodicCheckpointSavesOffWorker(t *testing.T) {
	const every = 64
	gated := &gatedStore{Store: pmem.NewMemStore(), held: make(chan string, 1)}
	reg := obs.NewRegistry()
	s, err := New(Config{
		Shards:          1,
		Role:            RolePrimary,
		PoolSize:        4 << 20,
		CheckpointEvery: every,
		StoreFor:        func(int) pmem.Store { return gated },
		LogStoreFor:     func(int) pmem.Store { return pmem.NewMemStore() },
		Reg:             reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Abort()
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c, err := Dial(addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	putRange(t, c, 1, every) // the first checkpoint: a full copy, saved freely
	_ = s.InjectQuiet(func() error { return nil })
	logStats := func() repl.LogStats { return s.CollectStats().PerShard[0].Repl.Log }
	truncated := logStats().Truncated

	gate := make(chan struct{})
	gated.setGate(gate)
	putRange(t, c, every+1, 2*every)
	<-gated.held // the second checkpoint's save is held in the store
	gated.setGate(nil)
	putRange(t, c, 2*every+1, 2*every+10) // served while the save is held
	if v, found, err := c.Get(2*every + 10); err != nil || !found || v != (2*every+10)*3 {
		t.Fatalf("GET during the save = (%d, %v, %v)", v, found, err)
	}
	if got := logStats().Truncated; got != truncated {
		t.Fatalf("the log was truncated (%d -> %d records) before the save completed", truncated, got)
	}
	done := make(chan error, 1)
	go func() { done <- c.Checkpoint() }()
	close(gate)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if st := logStats(); st.Truncated <= truncated || st.Records > repl.SegmentRecords {
		t.Fatalf("after the held save and a CHECKPOINT the log is %+v", st)
	}
	if got := s.CollectStats().PerShard[0].Checkpoints; got != 3 {
		t.Fatalf("checkpoints = %d, want 3 (two periodic, one explicit)", got)
	}
	snap := reg.Snapshot()
	if snap.Value("checkpoint_us") != 3 || snap.Value("checkpoint_save_us") != 3 {
		t.Fatalf("checkpoint_us observed %d, checkpoint_save_us %d; want 3 each",
			snap.Value("checkpoint_us"), snap.Value("checkpoint_save_us"))
	}
}

// TestLiveLaggingReplicaPinsLog: while a replica is live the checkpoint
// still retains everything past its acknowledged sequence, however far
// behind the checkpoint that is.
func TestLiveLaggingReplicaPinsLog(t *testing.T) {
	s, c, _, _, _ := durablePrimary(t, -1)
	defer s.Abort()
	defer c.Close()
	putRange(t, c, 1, 600)

	// A replica that has pulled and acknowledged only the first 100.
	p := c.Pipeline()
	p.Pull(0, 0, 100)
	p.ReplAck(0, 100)
	if reps, err := p.Run(); err != nil || len(reps[0].Recs) != 100 || reps[1].Status != StatusOK {
		t.Fatalf("pull+ack: %v", err)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	st := s.CollectStats().PerShard[0].Repl
	if st.Log.BaseSeq != 101 || st.Log.Records != 500 || st.Log.LastSeq != 600 {
		t.Fatalf("log after checkpoint with a lagging live replica: %+v", st.Log)
	}
}

// TestLateReplicaReseeds: a replica attaching after the primary has
// truncated past sequence 1 finds the log's base ahead of its cursor,
// rebuilds itself from a snapshot, and converges — with nobody's help, and
// whether or not the primary ever logs another write.
func TestLateReplicaReseeds(t *testing.T) {
	for _, idle := range []bool{false, true} {
		name := "writes-follow"
		if idle {
			name = "idle-emptied-log"
		}
		t.Run(name, func(t *testing.T) { lateReplicaReseeds(t, idle) })
	}
}

func lateReplicaReseeds(t *testing.T, idle bool) {
	p, c, _, _, paddr := durablePrimary(t, 256)
	defer p.Abort()
	defer c.Close()
	putRange(t, c, 1, 700)
	if idle {
		// An explicit checkpoint empties the log: every pull from here on
		// ships nothing, and the reply's base is all that tells the replica.
		if err := c.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	st := p.CollectStats().PerShard[0]
	if st.Checkpoints == 0 || st.Repl.Log.BaseSeq <= 1 && !idle || idle && st.Repl.Log.Records != 0 {
		t.Fatalf("primary did not truncate before the replica attached: %+v", st.Repl.Log)
	}
	lastSeq := st.Repl.Log.LastSeq

	r, err := New(Config{
		Shards:          1,
		Role:            RoleReplica,
		PoolSize:        4 << 20,
		CheckpointEvery: 256,
		FollowAddr:      paddr.String(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Abort()
	raddr, err := r.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "follower contact", 5*time.Second, func() bool {
		return r.CollectStats().Follower.Pulls > 0
	})
	hi := uint64(700)
	if !idle {
		// New writes ship on the replica's next pull; their base is far
		// past its cursor.
		hi = 760
		for k := uint64(701); k <= hi; k++ {
			_, seq, err := c.PutSeq(k, k*3)
			if err != nil && !errors.Is(err, ErrUnavailable) {
				t.Fatalf("put %d: %v", k, err)
			}
			if seq > lastSeq {
				lastSeq = seq
			}
		}
	}
	waitFor(t, "re-seed and lag drain", 10*time.Second, func() bool {
		fs := r.CollectStats().Follower
		return fs.Reseeds >= 1 && p.CollectStats().ReplLagRecords == 0 &&
			r.CollectStats().PerShard[0].Repl.Applied >= lastSeq
	})
	rc, err := Dial(raddr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	for k := uint64(1); k <= hi; k++ {
		v, found, err := rc.Get(k)
		if err != nil || !found || v != k*3 {
			t.Fatalf("replica key %d = (%d, %v, %v), want %d", k, v, found, err, k*3)
		}
	}
}

// TestOplogWithoutPoolReplays: a log store holding a sealed segment and a
// tail, with no pool checkpoint beside it, opens, replays every record, and
// goes on appending to the same log.
func TestOplogWithoutPoolReplays(t *testing.T) {
	dir := t.TempDir()
	logStore, err := pmem.NewDirStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	const n = repl.SegmentRecords + 44
	written, err := repl.OpenLog(logStore, "oplog-0", 0)
	if err != nil {
		t.Fatal(err)
	}
	for k := uint64(1); k <= n; k++ {
		written.Append(repl.RecPut, k, k*3)
	}
	if err := written.Flush(); err != nil {
		t.Fatal(err)
	}

	s, err := New(Config{
		Shards:      1,
		Role:        RolePrimary,
		PoolSize:    4 << 20,
		LogStoreFor: func(int) pmem.Store { return logStore },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Abort()
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c, err := Dial(addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for k := uint64(1); k <= n; k++ {
		v, found, err := c.Get(k)
		if err != nil || !found || v != k*3 {
			t.Fatalf("replayed key %d = (%d, %v, %v), want %d", k, v, found, err, k*3)
		}
	}
	// One cadence's worth of writes flushes onto the same log.
	putRange(t, c, n+1, n+64)
	images, err := logStore.List()
	if err != nil {
		t.Fatal(err)
	}
	if got := repl.LogNames(images); len(images) < 2 || len(got) != 1 || got[0] != "oplog-0" {
		t.Fatalf("log store after the first flush: %v", images)
	}
	l, err := repl.OpenLog(logStore, "oplog-0", 0)
	if err != nil {
		t.Fatal(err)
	}
	if st := l.Stats(); st.BaseSeq != 1 || st.LastSeq != n+64 || st.Segments != 2 {
		t.Fatalf("log after the shard's flush: %+v", st)
	}
}

// TestMigPullReportsTruncatedCursor: once a replica-less donor has
// truncated through its checkpoint, a catch-up cursor behind the cut must
// read as non-contiguous even when there is nothing left to ship —
// otherwise the acceptor would wait on, and then hand over without,
// records that are gone.
func TestMigPullReportsTruncatedCursor(t *testing.T) {
	s, c, _, _, _ := durablePrimary(t, -1)
	defer s.Abort()
	defer c.Close()
	putRange(t, c, 1, 300)
	pull := func(after uint64) (bool, int) {
		t.Helper()
		contiguous, _, _, recs, err := c.MigPull(0, SlotAll, after, 50)
		if err != nil {
			t.Fatalf("MigPull(%d): %v", after, err)
		}
		return contiguous, len(recs)
	}
	if ok, n := pull(100); !ok || n != 50 {
		t.Fatalf("before truncation: contiguous=%v recs=%d", ok, n)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if ok, n := pull(100); ok || n != 0 {
		t.Fatalf("cursor behind an emptied log: contiguous=%v recs=%d", ok, n)
	}
	if ok, n := pull(300); !ok || n != 0 {
		t.Fatalf("caught-up cursor on an emptied log: contiguous=%v recs=%d", ok, n)
	}
	putRange(t, c, 301, 310)
	if ok, n := pull(300); !ok || n != 10 {
		t.Fatalf("caught-up cursor after new writes: contiguous=%v recs=%d", ok, n)
	}
	if ok, _ := pull(250); ok {
		t.Fatal("cursor behind the base read as contiguous")
	}
}

// ---- Parked pulls ------------------------------------------------------------

// manualClock is a fault.Clock that moves only when the test advances it,
// so a park's bound is reached exactly when — and only if — the test says.
type manualClock struct {
	mu     sync.Mutex
	now    time.Time
	timers map[chan time.Time]time.Time // armed timers and when they are due
}

func newManualClock() *manualClock {
	// Far from zero: the server stores "never" as a zero UnixNano.
	return &manualClock{now: time.Unix(1<<20, 0), timers: make(map[chan time.Time]time.Time)}
}

func (c *manualClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *manualClock) Sleep(d time.Duration) { c.Advance(d) }

func (c *manualClock) After(d time.Duration) <-chan time.Time {
	ch, _ := c.Timer(d)
	return ch
}

func (c *manualClock) Timer(d time.Duration) (<-chan time.Time, func()) {
	ch := make(chan time.Time, 1)
	c.mu.Lock()
	defer c.mu.Unlock()
	if d <= 0 {
		ch <- c.now
		return ch, func() {}
	}
	c.timers[ch] = c.now.Add(d)
	return ch, func() {
		c.mu.Lock()
		defer c.mu.Unlock()
		delete(c.timers, ch)
	}
}

func (c *manualClock) Advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = c.now.Add(d)
	for ch, due := range c.timers {
		if !due.After(c.now) {
			ch <- c.now
			delete(c.timers, ch)
		}
	}
}

func (c *manualClock) armed() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.timers)
}

// parkedPulls is what server_repl_parked_pulls reads.
func parkedPulls(s *Server) int {
	n := 0
	for _, sh := range s.shards {
		n += sh.cfg.oplog.Waiters()
	}
	return n
}

// checkParkLedger holds the park counters to their equality: every park
// started was woken for exactly one reason or is still parked.
func checkParkLedger(t *testing.T, s *Server) {
	t.Helper()
	r := &s.repl
	woken := r.wokeRecords.Load() + r.wokeDeadline.Load() + r.wokeClosed.Load()
	if got := r.parks.Load(); got != woken+uint64(parkedPulls(s)) {
		t.Fatalf("parks %d != wakeups %d (records %d, deadline %d, closed %d) + parked %d", got, woken,
			r.wokeRecords.Load(), r.wokeDeadline.Load(), r.wokeClosed.Load(), parkedPulls(s))
	}
}

// clockedPrimary boots a primary on a manual clock and dials it.
func clockedPrimary(t *testing.T, shards int, tweak func(*Config)) (*Server, *manualClock, *Client, string) {
	t.Helper()
	clk := newManualClock()
	cfg := Config{Shards: shards, Role: RolePrimary, PoolSize: 4 << 20, CheckpointEvery: -1, Clock: clk}
	if tweak != nil {
		tweak(&cfg)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Abort)
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c, err := Dial(addr.String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return s, clk, c, addr.String()
}

// clockedPair boots a pair whose primary runs on a manual clock; small
// pools keep its checkpoints cheap under the race detector.
func clockedPair(t *testing.T, shards int) (p, r *Server, clk *manualClock, paddr, raddr net.Addr) {
	t.Helper()
	clk = newManualClock()
	small := func(c *Config) { c.PoolSize = 4 << 20 }
	p, r, paddr, raddr = startPair(t, shards, func(c *Config) { small(c); c.Clock = clk }, small)
	return p, r, clk, paddr, raddr
}

// pullResult is what a hand-driven pull came back with.
type pullResult struct {
	rep *Reply
	err error
}

// goPull plays a replica's puller by hand: one enveloped pull on its own
// connection, the reply delivered when (if) it comes.
func goPull(t *testing.T, addr string, shard uint32, after uint64, ttlMS uint32) (*Client, chan pullResult) {
	t.Helper()
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	out := make(chan pullResult, 1)
	go func() {
		rep, err := c.Do(&Request{Op: OpReplicate, Shard: shard, Seq: after, Limit: 1024, TTLms: ttlMS})
		out <- pullResult{rep, err}
	}()
	return c, out
}

func awaitPull(t *testing.T, what string, out chan pullResult) *Reply {
	t.Helper()
	select {
	case r := <-out:
		if r.err != nil {
			t.Fatalf("%s: %v", what, r.err)
		}
		return r.rep
	case <-time.After(10 * time.Second):
		t.Fatalf("%s: the pull never returned", what)
		return nil
	}
}

// holdWorker parks the shard's worker inside a request until release is
// called, so that everything queued meanwhile is taken in one drain. It
// returns once the worker is inside the request — past the drain that took
// it, so nothing queued from here on can join that drain. A test that
// fails before releasing is released by its cleanup, ahead of the server's.
func holdWorker(t *testing.T, sh *shard) (release func()) {
	t.Helper()
	entered, gate := make(chan struct{}), make(chan struct{})
	go sh.call(nil, func(*shard) Reply {
		close(entered)
		<-gate
		return Reply{Status: StatusOK}
	})
	<-entered
	var once sync.Once
	release = func() { once.Do(func() { close(gate) }) }
	t.Cleanup(release)
	return release
}

// keysOnShard returns n keys that hash to the given shard.
func keysOnShard(shard, shards, n int) []uint64 {
	var keys []uint64
	for k := uint64(1); len(keys) < n; k++ {
		if ShardFor(k, shards) == shard {
			keys = append(keys, k)
		}
	}
	return keys
}

// TestFirstPullIsNotParked: pair bring-up everywhere waits on Pulls > 0 to
// know the primary has stamped replica contact. The primary's clock never
// moves here, so a first pull that parked could not come back at all: the
// counter moving means the pull was answered on arrival, and contact is
// stamped by then.
func TestFirstPullIsNotParked(t *testing.T) {
	p, r, _, _, _ := clockedPair(t, 2)
	defer r.Abort()
	defer p.Abort()
	waitFor(t, "first pull on an idle primary", 5*time.Second, func() bool {
		return r.CollectStats().Follower.Pulls > 0
	})
	if !p.replicaLive() {
		t.Fatal("replica contact not stamped by the time the first pull was answered")
	}
	// Every later pull does park, one per shard, and stays parked.
	waitFor(t, "one parked pull per shard", 5*time.Second, func() bool { return parkedPulls(p) == 2 })
	if got := p.repl.wokeDeadline.Load(); got != 0 {
		t.Fatalf("%d pulls woke by deadline on a clock that never moved", got)
	}
	if fs := r.CollectStats().Follower; fs.Pulls != 2 || !fs.Connected {
		t.Fatalf("follower after bring-up: %+v, want one answered pull per shard", fs)
	}
	checkParkLedger(t, p)
}

// TestParkedPullShipsWholeDrain: the worker publishes once per drain, so a
// pull parked on an idle shard ships everything the drain logged in one
// reply — here a BATCH of 64 PUTs queued behind a held worker, which the
// worker then takes in a single drain.
func TestParkedPullShipsWholeDrain(t *testing.T) {
	s, _, c, addr := clockedPrimary(t, 1, nil)
	rc, pull := goPull(t, addr, 0, 0, 5000)
	waitFor(t, "pull parked", 5*time.Second, func() bool { return parkedPulls(s) == 1 })

	sh := s.shards[0]
	release := holdWorker(t, sh)
	const n = 64
	sub := make([]Request, n)
	for i := range sub {
		sub[i] = Request{Op: OpPut, Key: uint64(i + 1), Value: uint64(i + 1)}
	}
	batchDone := make(chan error, 1)
	go func() {
		_, err := c.Batch(sub)
		batchDone <- err
	}()
	waitFor(t, "batch queued", 5*time.Second, func() bool { return len(sh.queue) == n })
	release()
	rep := awaitPull(t, "parked pull", pull)
	if len(rep.Recs) != n || rep.Value != 1 || rep.Seq != n {
		t.Fatalf("parked pull shipped %d records from seq %d (last %d), want the drain's %d from 1",
			len(rep.Recs), rep.Value, rep.Seq, n)
	}
	if got := s.repl.wokeRecords.Load(); got != 1 {
		t.Fatalf("wakeups by records = %d, want 1", got)
	}
	// The pull was replica contact, so the writes are held: acknowledge them.
	if err := rc.ReplAck(0, n); err != nil {
		t.Fatal(err)
	}
	if err := <-batchDone; err != nil {
		t.Fatalf("batch: %v", err)
	}
	checkParkLedger(t, s)
}

// TestIdleShardParkDoesNotBlockBusyShard: one connection per shard, so the
// pull parked for an idle shard 0 never stands in front of shard 1's
// records — every write to shard 1 is acknowledged while shard 0's park
// stays parked, on a clock that never reaches its bound. Nor does any pull
// come back empty but a connection's first: a publish wakes only a park
// whose cursor it passed. (The clock standing still, shard 0's puller may
// run into its wall-clock I/O timeout and re-dial; that is the only way a
// park ends here other than by records.)
func TestIdleShardParkDoesNotBlockBusyShard(t *testing.T) {
	p, r, _, paddr, _ := clockedPair(t, 2)
	defer r.Abort()
	defer p.Abort()
	waitFor(t, "one parked pull per shard", 5*time.Second, func() bool { return parkedPulls(p) == 2 })
	c, err := Dial(paddr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const n = 200
	for _, k := range keysOnShard(1, 2, n) {
		if err := c.Put(k, k); err != nil {
			t.Fatalf("put %d: %v", k, err)
		}
	}
	// Reads drain the worker too, and every drain publishes: with nothing
	// logged, the publish must wake nobody.
	for _, k := range keysOnShard(1, 2, n) {
		if _, _, err := c.Get(k); err != nil {
			t.Fatalf("get %d: %v", k, err)
		}
	}
	waitFor(t, "both pulls parked again", 5*time.Second, func() bool { return parkedPulls(p) == 2 })
	if got := p.shards[0].cfg.oplog.Waiters(); got != 1 {
		t.Fatalf("shard 0 has %d parked pulls, want its one idle park", got)
	}
	if got := p.repl.wokeDeadline.Load(); got != 0 {
		t.Fatalf("%d wakeups by deadline on a clock that never moved", got)
	}
	// Sequential writes, each acknowledged only after it replicated: every
	// pull but the first on each connection shipped exactly one of them.
	fs := r.CollectStats().Follower
	if fs.Applied != n || fs.Pulls > n+2+fs.Reconnects {
		t.Fatalf("follower: %d pulls for %d applied records over 2+%d connections", fs.Pulls, fs.Applied, fs.Reconnects)
	}
	for _, sh := range p.CollectStats().PerShard {
		if sh.Repl.DegradedAcks != 0 || sh.Repl.TimeoutAcks != 0 {
			t.Fatalf("shard %d: %d degraded, %d timeout acks", sh.ID, sh.Repl.DegradedAcks, sh.Repl.TimeoutAcks)
		}
	}
	checkParkLedger(t, p)
}

// TestParkBoundClamped: a park lasts no longer than the envelope asks, nor
// than half the liveness window, nor than half the fencing window — on the
// server's clock — and then answers empty, carrying the log's base.
func TestParkBoundClamped(t *testing.T) {
	for _, tc := range []struct {
		name          string
		ttlMS         uint32
		window, fence time.Duration
		want          time.Duration
	}{
		{"liveness window", 10000, 200 * time.Millisecond, 0, 100 * time.Millisecond},
		{"fencing window", 10000, 200 * time.Millisecond, 120 * time.Millisecond, 60 * time.Millisecond},
		{"envelope", 30, 200 * time.Millisecond, 0, 30 * time.Millisecond},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, clk, c, addr := clockedPrimary(t, 1, func(c *Config) {
				c.ReplLiveWindow, c.FenceAfter = tc.window, tc.fence
			})
			putRange(t, c, 1, 10)
			if err := s.Checkpoint(); err != nil { // empties the log: its base is now 11
				t.Fatal(err)
			}
			_, pull := goPull(t, addr, 0, 10, tc.ttlMS)
			waitFor(t, "pull parked", 5*time.Second, func() bool { return parkedPulls(s) == 1 })
			clk.Advance(tc.want - time.Millisecond)
			if got := s.repl.wokeDeadline.Load(); got != 0 {
				t.Fatalf("park expired %v into a %v bound", tc.want-time.Millisecond, tc.want)
			}
			clk.Advance(time.Millisecond)
			rep := awaitPull(t, "pull at its bound", pull)
			if len(rep.Recs) != 0 || rep.Value != 11 || rep.Seq != 10 {
				t.Fatalf("reply at the bound: %d records, base %d, last %d; want none, 11, 10",
					len(rep.Recs), rep.Value, rep.Seq)
			}
			if got := s.repl.wokeDeadline.Load(); got != 1 || parkedPulls(s) != 0 {
				t.Fatalf("wakeups by deadline = %d, parked = %d", got, parkedPulls(s))
			}
			checkParkLedger(t, s)
		})
	}
}

// TestSeveredConnectionCancelsPark: a parked pull whose connection dies is
// cancelled, not left to stamp contact at its bound, so the writes that
// follow are judged on the replica's last request as they always were:
// degraded once the liveness window has passed, refused once the fencing
// window has.
func TestSeveredConnectionCancelsPark(t *testing.T) {
	s, clk, c, addr := clockedPrimary(t, 1, func(c *Config) {
		c.ReplLiveWindow, c.FenceAfter = 200*time.Millisecond, 300*time.Millisecond
	})
	rc, pull := goPull(t, addr, 0, 0, 10000)
	waitFor(t, "pull parked", 5*time.Second, func() bool { return parkedPulls(s) == 1 })
	contact := s.repl.lastPull.Load()
	rc.Close()
	waitFor(t, "park cancelled", 5*time.Second, func() bool { return s.repl.wokeClosed.Load() == 1 })
	if r := <-pull; r.err == nil {
		t.Fatal("pull on a closed connection returned a reply")
	}
	if parkedPulls(s) != 0 || clk.armed() > 2 { // the sweeper's and the watchdog's ticks
		t.Fatalf("cancelled park left %d waiters, %d armed timers", parkedPulls(s), clk.armed())
	}
	clk.Advance(250 * time.Millisecond)
	if err := c.Put(1, 1); err != nil {
		t.Fatalf("write past the liveness window: %v", err)
	}
	if got := s.CollectStats().PerShard[0].Repl.DegradedAcks; got != 1 {
		t.Fatalf("degraded acks = %d, want 1", got)
	}
	clk.Advance(100 * time.Millisecond)
	if err := c.Put(2, 2); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("write past the fencing window: %v, want ErrReadOnly", err)
	}
	if s.repl.lastPull.Load() != contact {
		t.Fatal("a cancelled park stamped replica contact")
	}
	checkParkLedger(t, s)
}

// TestPanicBetweenAppendAndPublishWakesPark: a worker that logs a write
// and dies before the drain's publish has told nobody; recovery publishes
// for it. The clock never moves, so a park left to its bound would never
// come back.
func TestPanicBetweenAppendAndPublishWakesPark(t *testing.T) {
	s, _, c, addr := clockedPrimary(t, 1, nil)
	_, pull := goPull(t, addr, 0, 0, 10000)
	waitFor(t, "pull parked", 5*time.Second, func() bool { return parkedPulls(s) == 1 })

	// Queue a PUT and then the panic behind a held worker, so one drain
	// takes both: append, apply, die.
	sh := s.shards[0]
	release := holdWorker(t, sh)
	putDone := make(chan error, 1)
	go func() { putDone <- c.Put(7, 70) }()
	waitFor(t, "put queued", 5*time.Second, func() bool { return len(sh.queue) == 1 })
	sh.queue <- &request{do: (*shard).kill, resp: make(chan Reply, 1)}
	release()

	rep := awaitPull(t, "pull parked across the panic", pull)
	if len(rep.Recs) != 1 || rep.Recs[0].Key != 7 {
		t.Fatalf("pull after recovery shipped %+v, want the one logged write", rep.Recs)
	}
	// The held ack was failed by the recovery: the client retries.
	if err := <-putDone; !errors.Is(err, ErrUnavailable) {
		t.Fatalf("put across the panic: %v, want ErrUnavailable", err)
	}
	if st := s.CollectStats().PerShard[0]; st.Panics != 1 || s.repl.wokeRecords.Load() != 1 {
		t.Fatalf("panics = %d, wakeups by records = %d", st.Panics, s.repl.wokeRecords.Load())
	}
	checkParkLedger(t, s)
}

// TestAckAheadOfPullReleasesBeforePark: REPLACK and the next pull travel
// as one pipelined write, and the primary serves them in that order — the
// held write is acknowledged while the pull behind the ack sits parked.
func TestAckAheadOfPullReleasesBeforePark(t *testing.T) {
	s, _, c, addr := clockedPrimary(t, 1, nil)
	rc, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	if _, _, err := rc.Pull(0, 0, 16); err != nil { // replica contact: writes are held from here
		t.Fatal(err)
	}
	putDone := make(chan error, 1)
	go func() { putDone <- c.Put(1, 10) }()
	waitFor(t, "write held", 5*time.Second, func() bool { return s.shards[0].waiter.count() == 1 })
	if _, recs, err := rc.Pull(0, 0, 16); err != nil || len(recs) != 1 {
		t.Fatalf("pull: %d records, %v", len(recs), err)
	}
	p := rc.Pipeline()
	p.ReplAck(0, 1)
	p.add(&Request{Op: OpReplicate, Shard: 0, Seq: 1, Limit: 16, TTLms: 10000})
	go p.Run() // blocks on the parked pull until the connection closes
	if err := <-putDone; err != nil {
		t.Fatalf("held write: %v", err)
	}
	waitFor(t, "pull parked behind the ack", 5*time.Second, func() bool { return parkedPulls(s) == 1 })
	if s.shards[0].waiter.count() != 0 {
		t.Fatal("a hold outlived the ack that rode ahead of the pull")
	}
}

// TestShutdownDoesNotWaitOutPark: with a pull parked for every shard — on
// a primary clock that never moves, so no park ends by itself — a replica's
// Close, a primary's Close and a primary's Abort each return inside the
// park a puller asks for — waiting one out would take the puller's I/O
// timeout, twice that, or for ever.
func TestShutdownDoesNotWaitOutPark(t *testing.T) {
	for _, tc := range []struct {
		name string
		stop func(p, r *Server) (survivor *Server)
	}{
		{"replica-close", func(p, r *Server) *Server { r.Close(); return p }},
		{"primary-close", func(p, r *Server) *Server { p.Close(); return r }},
		{"primary-abort", func(p, r *Server) *Server { p.Abort(); return r }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p, r, _, _, _ := clockedPair(t, 2)
			waitFor(t, "one parked pull per shard", 5*time.Second, func() bool { return parkedPulls(p) == 2 })
			start := time.Now()
			survivor := tc.stop(p, r)
			took := time.Since(start)
			defer survivor.Abort()
			if took > maxPullPark {
				t.Fatalf("shutdown took %v with pulls parked for up to %v", took, maxPullPark)
			}
			// Either way the primary's parks end with their connections.
			waitFor(t, "parks cancelled", 5*time.Second, func() bool { return p.repl.wokeClosed.Load() >= 2 })
			if got := p.repl.wokeDeadline.Load(); got != 0 {
				t.Fatalf("%d parks ended by deadline on a clock that never moved", got)
			}
		})
	}
}

// TestPromoteWithPullersParked: Promote, as the operator or the promotion
// timer calls it, flips the role and gets every puller out of its parked
// receive.
func TestPromoteWithPullersParked(t *testing.T) {
	p, r, _, _, raddr := clockedPair(t, 2)
	defer r.Abort()
	defer p.Abort()
	waitFor(t, "one parked pull per shard", 5*time.Second, func() bool { return parkedPulls(p) == 2 })
	if err := r.Promote(); err != nil {
		t.Fatal(err)
	}
	exited := make(chan struct{})
	go func() {
		r.repl.follower.wg.Wait()
		close(exited)
	}()
	select {
	case <-exited:
	case <-time.After(maxPullPark):
		t.Fatalf("pullers still running %v after Promote", maxPullPark)
	}
	if r.Role() != RolePrimary || r.CollectStats().Follower.Connected {
		t.Fatalf("after Promote: role %d, follower %+v", r.Role(), r.CollectStats().Follower)
	}
	rc, err := Dial(raddr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	if err := rc.Put(1, 1); err != nil {
		t.Fatalf("write on the promoted replica: %v", err)
	}
	waitFor(t, "old primary's parks cancelled", 5*time.Second, func() bool { return parkedPulls(p) == 0 })
	checkParkLedger(t, p)
}

// TestParksLeaveNothingBehind: a park per replicated write, 500 of them,
// and afterwards the process holds what it held before — no goroutine per
// finished park, no timer still armed on the clock for one.
func TestParksLeaveNothingBehind(t *testing.T) {
	p, r, clk, paddr, _ := clockedPair(t, 2)
	defer r.Abort()
	defer p.Abort()
	c, err := Dial(paddr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Put(0, 0); err != nil { // the connection's goroutines exist before the count
		t.Fatal(err)
	}
	// Armed at rest: the sweeper's tick, the watchdog's, and one park bound
	// per shard.
	waitFor(t, "one parked pull per shard", 5*time.Second, func() bool {
		return parkedPulls(p) == 2 && clk.armed() == 4
	})
	goroutines, armed := runtime.NumGoroutine(), clk.armed()
	for k := uint64(1); k <= 500; k++ {
		if err := c.Put(k, k); err != nil {
			t.Fatalf("put %d: %v", k, err)
		}
		if got := clk.armed(); got > armed {
			t.Fatalf("after %d writes the clock holds %d armed timers, %d before the load", k, got, armed)
		}
	}
	waitFor(t, "parks and goroutines back where they were", 5*time.Second, func() bool {
		return parkedPulls(p) == 2 && runtime.NumGoroutine() <= goroutines
	})
	if got := p.repl.wokeRecords.Load(); got < 250 {
		t.Fatalf("only %d parks woken by records over 500 replicated writes", got)
	}
	checkParkLedger(t, p)
}
