package server

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"testing"
	"time"
)

// keyForShard returns a key that ShardFor maps to the target shard.
func keyForShard(target, shards int) uint64 {
	for k := uint64(0); ; k++ {
		if ShardFor(k, shards) == target {
			return k
		}
	}
}

// waitShard polls one shard's stats until cond holds or the deadline
// passes.
func waitShard(t *testing.T, ts *testServer, shard int, what string, cond func(ShardStats) bool) ShardStats {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		st := ts.CollectStats().PerShard[shard]
		if cond(st) {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("shard %d never reached %s; stats %+v", shard, what, st)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestInjectPanicSalvagesAckedWrites is the durability distinction at the
// heart of the supervisor: a software crash (worker panic) must NOT lose
// acknowledged writes, even uncheckpointed ones, because the pool's memory
// outlives the goroutine — the supervisor fscks it and salvages state.
// (Power loss via InjectCrash legitimately rolls back to the checkpoint;
// TestAbortRollsBackToCheckpoint covers that contract.)
func TestInjectPanicSalvagesAckedWrites(t *testing.T) {
	// CheckpointEvery < 0: no periodic checkpoints, so surviving writes
	// prove salvage rather than checkpoint luck.
	ts := startServer(t, Config{Shards: 1, CheckpointEvery: -1})
	cl := dial(t, ts)

	const n = 300
	for k := uint64(0); k < n; k++ {
		if err := cl.Put(k, keyVal(k)); err != nil {
			t.Fatalf("put %d: %v", k, err)
		}
	}
	if err := ts.InjectPanic(0); err != nil {
		t.Fatal(err)
	}
	for k := uint64(0); k < n; k++ {
		v, ok, err := cl.Get(k)
		if err != nil {
			t.Fatalf("get %d after panic: %v", k, err)
		}
		if !ok || v != keyVal(k) {
			t.Fatalf("key %d after salvage: got (%d,%v), want %d — acked write lost", k, v, ok, keyVal(k))
		}
	}
	st := ts.CollectStats().PerShard[0]
	if st.Panics != 1 || st.Restarts != 1 || st.Salvages != 1 {
		t.Errorf("supervisor counters: panics=%d restarts=%d salvages=%d, want 1/1/1", st.Panics, st.Restarts, st.Salvages)
	}
	if st.Rollbacks != 0 {
		t.Errorf("salvage fell back to rollback %d times", st.Rollbacks)
	}
	if st.Crashes != 0 {
		t.Errorf("software crash recorded %d power-loss crashes", st.Crashes)
	}

	// The injected kill is nothing special: any control work that panics on
	// the worker is answered UNAVAILABLE by the supervisor, which restarts
	// the worker over the same salvaged state.
	rep, ok := ts.shards[0].call(nil, func(*shard) Reply { panic("control work blew up") })
	if !ok || rep.Status != StatusUnavailable {
		t.Fatalf("panicking control work answered (%d, %v), want UNAVAILABLE", rep.Status, ok)
	}
	waitShard(t, ts, 0, "a second restart", func(st ShardStats) bool { return st.Restarts == 2 && st.Breaker == "closed" })
	if v, ok, err := cl.Get(n - 1); err != nil || !ok || v != keyVal(n-1) {
		t.Fatalf("get after the second restart: (%d, %v, %v)", v, ok, err)
	}
}

// TestSupervisorRestartMidStream is the satellite concurrency test: shard
// 0's worker is repeatedly killed while client goroutines stream requests
// at every shard. In-flight requests on the surviving shards must succeed,
// acknowledged writes to the killed shard must survive its restarts, and
// the supervisor must restart it every time without a process restart.
func TestSupervisorRestartMidStream(t *testing.T) {
	const (
		shards     = 4
		kills      = 6
		keysPerGor = 32
	)
	ts := startServer(t, Config{Shards: shards, CheckpointEvery: -1, BreakerCooldown: 5 * time.Millisecond})

	keysFor := make([][]uint64, shards)
	for k := uint64(0); ; k++ {
		s := ShardFor(k, shards)
		if len(keysFor[s]) < keysPerGor {
			keysFor[s] = append(keysFor[s], k)
		}
		full := true
		for _, ks := range keysFor {
			if len(ks) < keysPerGor {
				full = false
			}
		}
		if full {
			break
		}
	}

	stop := make(chan struct{})
	errs := make([]error, shards)
	var wg sync.WaitGroup
	// Shards 1..3: plain clients; a crash of shard 0 must never surface
	// here.
	for s := 1; s < shards; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			cl, err := Dial(ts.addr)
			if err != nil {
				errs[s] = err
				return
			}
			defer cl.Close()
			for round := uint64(1); ; round++ {
				for _, k := range keysFor[s] {
					want := k ^ round
					if err := cl.Put(k, want); err != nil {
						errs[s] = fmt.Errorf("put %d: %w", k, err)
						return
					}
					v, ok, err := cl.Get(k)
					if err != nil {
						errs[s] = fmt.Errorf("get %d: %w", k, err)
						return
					}
					if !ok || v != want {
						errs[s] = fmt.Errorf("shard %d key %d: got (%d,%v), want %d", s, k, v, ok, want)
						return
					}
				}
				select {
				case <-stop:
					return
				default:
				}
			}
		}(s)
	}

	// Shard 0: a resilient client rides through the kills (UNAVAILABLE
	// while the supervisor repairs, then retry succeeds). acked records
	// every acknowledged write; all of them must survive.
	acked := make(map[uint64]uint64)
	wg.Add(1)
	go func() {
		defer wg.Done()
		rc, err := DialResilient(ts.addr, RetryPolicy{
			MaxAttempts: 12,
			BaseBackoff: time.Millisecond,
			MaxBackoff:  20 * time.Millisecond,
			Seed:        3,
		})
		if err != nil {
			errs[0] = err
			return
		}
		defer rc.Close()
		for round := uint64(1); ; round++ {
			for _, k := range keysFor[0] {
				want := round // monotonic per key: single writer
				if err := rc.Put(k, want); err != nil {
					errs[0] = fmt.Errorf("resilient put %d: %w", k, err)
					return
				}
				acked[k] = want
			}
			select {
			case <-stop:
				return
			default:
			}
		}
	}()

	for i := 0; i < kills; i++ {
		time.Sleep(5 * time.Millisecond)
		if err := ts.InjectPanic(0); err != nil {
			t.Fatalf("kill %d: %v", i, err)
		}
	}
	close(stop)
	wg.Wait()
	for s := 0; s < shards; s++ {
		if errs[s] != nil {
			t.Errorf("client for shard %d: %v", s, errs[s])
		}
	}

	// Every acknowledged write to the killed shard survived (values are
	// monotonic per key, so >= acked means no rollback).
	cl := dial(t, ts)
	for k, want := range acked {
		v, ok, err := cl.Get(k)
		if err != nil {
			t.Fatalf("verify get %d: %v", k, err)
		}
		if !ok || v < want {
			t.Errorf("key %d: got (%d,%v), want >= %d — acked write lost across restart", k, v, ok, want)
		}
	}

	st := ts.CollectStats()
	if got := st.PerShard[0].Panics; got != kills {
		t.Errorf("shard 0 panics = %d, want %d", got, kills)
	}
	if got := st.PerShard[0].Restarts; got != kills {
		t.Errorf("shard 0 restarts = %d, want %d", got, kills)
	}
	for s := 1; s < shards; s++ {
		if got := st.PerShard[s].Panics; got != 0 {
			t.Errorf("shard %d recorded %d panics; only shard 0 was killed", s, got)
		}
	}
}

// TestWatchdogDetectsWedgedShard wedges a worker mid-request and asserts
// the watchdog opens the breaker and marks the shard wedged while work is
// queued behind the sleep — then that the worker heals itself (state back
// to healthy, breaker closed) once it resumes.
func TestWatchdogDetectsWedgedShard(t *testing.T) {
	ts := startServer(t, Config{
		Shards:          1,
		CheckpointEvery: -1,
		WedgeTimeout:    40 * time.Millisecond,
		BreakerCooldown: 5 * time.Millisecond,
	})
	cl := dial(t, ts)
	if err := cl.Put(1, 1); err != nil {
		t.Fatal(err)
	}

	wedgeDone := make(chan error, 1)
	go func() { wedgeDone <- ts.InjectWedge(0, 400*time.Millisecond) }()
	time.Sleep(5 * time.Millisecond) // let the worker pick the wedge up

	// Queue work behind the sleeping worker so the watchdog sees a stuck
	// shard (stale heartbeat alone just means idle).
	putDone := make(chan error, 1)
	go func() {
		cl2, err := Dial(ts.addr)
		if err != nil {
			putDone <- err
			return
		}
		defer cl2.Close()
		putDone <- cl2.Put(2, 2)
	}()

	st := waitShard(t, ts, 0, "wedged", func(st ShardStats) bool { return st.Wedges >= 1 })
	if st.State != "wedged" {
		t.Errorf("state while wedged = %q, want wedged", st.State)
	}
	if st.Breaker != "open" && st.Breaker != "half-open" {
		t.Errorf("breaker while wedged = %q, want open", st.Breaker)
	}

	if err := <-wedgeDone; err != nil {
		t.Fatalf("wedge: %v", err)
	}
	if err := <-putDone; err != nil {
		t.Fatalf("queued put behind wedge: %v", err)
	}
	waitShard(t, ts, 0, "healed", func(st ShardStats) bool {
		return st.State == "healthy" && st.Breaker == "closed"
	})
}

// TestOverloadShedsExplicitly fills a depth-1 queue behind a wedged worker
// and asserts the next request is refused with an explicit SHED frame
// instead of blocking the connection.
func TestOverloadShedsExplicitly(t *testing.T) {
	ts := startServer(t, Config{
		Shards:          1,
		QueueDepth:      1,
		AdmitWait:       -1, // shed immediately on a full queue
		CheckpointEvery: -1,
		WedgeTimeout:    -1, // keep the watchdog out of this test
	})
	go ts.InjectWedge(0, 200*time.Millisecond)
	time.Sleep(5 * time.Millisecond)

	blocked := make(chan error, 1)
	go func() {
		cl, err := Dial(ts.addr)
		if err != nil {
			blocked <- err
			return
		}
		defer cl.Close()
		blocked <- cl.Put(1, 1) // fills the queue, served after the wedge
	}()
	time.Sleep(10 * time.Millisecond)

	cl := dial(t, ts)
	t0 := time.Now()
	err := cl.Put(2, 2)
	if !errors.Is(err, ErrShed) {
		t.Fatalf("put on full queue: err = %v, want ErrShed", err)
	}
	if !Retryable(err) {
		t.Error("ErrShed must be retryable")
	}
	if d := time.Since(t0); d > 100*time.Millisecond {
		t.Errorf("shed took %v; must fail fast, not wait out the wedge", d)
	}
	if err := <-blocked; err != nil {
		t.Fatalf("queued put: %v", err)
	}
	if st := ts.CollectStats().PerShard[0]; st.Sheds == 0 {
		t.Error("no sheds recorded")
	}
}

// TestDeadlineExpiresInQueue sends a request with a tiny TTL into a queue
// behind a wedged worker: the worker must drop it with StatusDeadline
// instead of executing it late.
func TestDeadlineExpiresInQueue(t *testing.T) {
	ts := startServer(t, Config{Shards: 1, CheckpointEvery: -1, WedgeTimeout: -1})
	go ts.InjectWedge(0, 150*time.Millisecond)
	time.Sleep(5 * time.Millisecond)

	cl := dial(t, ts)
	cl.SetTTL(10)
	err := cl.Put(7, 7)
	if !errors.Is(err, ErrDeadline) {
		t.Fatalf("put with 10ms TTL behind 150ms wedge: err = %v, want ErrDeadline", err)
	}
	if !Retryable(err) {
		t.Error("ErrDeadline must be retryable")
	}
	cl.SetTTL(0)
	if err := cl.Put(7, 7); err != nil {
		t.Fatalf("put without TTL after wedge: %v", err)
	}
	if st := ts.CollectStats().PerShard[0]; st.DeadlineDrops == 0 {
		t.Error("no deadline drops recorded")
	}
}

// TestClientTimeoutOnDeadPeer is the first satellite fix: a peer that
// accepts and never answers must fail the round trip at the configured
// I/O deadline instead of hanging forever.
func TestClientTimeoutOnDeadPeer(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			defer conn.Close() // accept, read nothing, answer nothing
		}
	}()

	cl, err := Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	cl.SetTimeout(30 * time.Millisecond)
	t0 := time.Now()
	_, _, err = cl.Get(1)
	if err == nil {
		t.Fatal("get against a dead peer returned nil")
	}
	if d := time.Since(t0); d > 2*time.Second {
		t.Fatalf("get took %v; deadline did not apply", d)
	}
	var ne net.Error
	if !errors.As(err, &ne) || !ne.Timeout() {
		t.Fatalf("err = %v, want a net timeout", err)
	}
	if !Retryable(err) {
		t.Error("timeout must be retryable")
	}
}

// TestOversizedFrameAnsweredThenDropped is the decoder-hardening
// satellite at the transport level: a length prefix beyond MaxFrame gets a
// clean BadRequest frame back (no huge allocation, no silent hangup),
// then the connection closes.
func TestOversizedFrameAnsweredThenDropped(t *testing.T) {
	ts := startServer(t, Config{Shards: 1})
	conn, err := net.Dial("tcp", ts.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(MaxFrame+1))
	if _, err := conn.Write(hdr[:]); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	body, err := ReadFrame(conn)
	if err != nil {
		t.Fatalf("expected an error frame, got %v", err)
	}
	if len(body) == 0 || body[0] != StatusBadRequest {
		t.Fatalf("error frame status = %v, want BadRequest", body)
	}
	if _, err := ReadFrame(conn); !errors.Is(err, io.EOF) {
		t.Fatalf("connection should be closed after the error frame; read err = %v", err)
	}
}

// TestScrubberFscksIdleShards lets the background scrubber run over idle
// shards and asserts scrubs are recorded; Scrub() is the synchronous form.
func TestScrubberFscksIdleShards(t *testing.T) {
	ts := startServer(t, Config{Shards: 2, ScrubEvery: 2 * time.Millisecond})
	cl := dial(t, ts)
	if err := cl.Put(1, 1); err != nil {
		t.Fatal(err)
	}
	waitShard(t, ts, 0, "scrubbed", func(st ShardStats) bool { return st.Scrubs >= 1 })

	before := ts.CollectStats().PerShard[1].Scrubs
	ts.Scrub()
	if after := ts.CollectStats().PerShard[1].Scrubs; after <= before {
		t.Errorf("synchronous Scrub did not run: %d -> %d", before, after)
	}
}
