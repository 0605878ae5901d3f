package sim

import (
	"errors"
	"io"
	"net"
	"syscall"
	"testing"
	"time"

	"nvref/internal/fault"
	"nvref/internal/server"
)

// echo listens as node on n and echoes whatever each accepted connection
// reads until its peer closes.
func echo(t *testing.T, n *Net, node string) net.Listener {
	t.Helper()
	l, err := n.Listen(node)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	go func() {
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			go func() {
				defer c.Close()
				buf := make([]byte, 4096)
				for {
					k, err := c.Read(buf)
					if err != nil {
						return
					}
					if _, err := c.Write(buf[:k]); err != nil {
						return
					}
				}
			}()
		}
	}()
	return l
}

func TestNetPartition(t *testing.T) {
	n := NewNet()
	if l := echo(t, n, "srv"); l.Addr().String() != "srv" {
		t.Fatalf("listener address = %q, want the node's name", l.Addr())
	}
	dial := n.Dialer("cli")
	c, err := dial("srv")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Write([]byte{1}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Read(make([]byte, 1)); err != nil {
		t.Fatal(err)
	}

	// Block severs the live conn and refuses new dials.
	n.Block("cli", "srv")
	if !n.Blocked("cli", "srv") {
		t.Fatal("link should report blocked")
	}
	if _, err := c.Write([]byte{1}); err == nil {
		t.Fatal("write over blocked link succeeded")
	}
	if _, err := c.Read(make([]byte, 1)); err != errLinkDown {
		t.Fatalf("read over blocked link: err = %v, want %v", err, errLinkDown)
	}
	if _, err := dial("srv"); err == nil {
		t.Fatal("dial over blocked link succeeded")
	}
	// Directed: the reverse direction is unaffected.
	if n.Blocked("srv", "cli") {
		t.Fatal("reverse link blocked by directed Block")
	}

	n.Heal("cli", "srv")
	c2, err := dial("srv")
	if err != nil {
		t.Fatalf("dial after heal: %v", err)
	}
	c2.Close()

	n.Partition("cli", "srv")
	if !n.Blocked("cli", "srv") || !n.Blocked("srv", "cli") {
		t.Fatal("partition should block both directions")
	}
	n.Heal("cli", "srv")
	if n.Blocked("cli", "srv") || n.Blocked("srv", "cli") {
		t.Fatal("heal should clear both directions")
	}
	n.Block("cli", "srv")
	n.HealAll()
	if n.Blocked("cli", "srv") {
		t.Fatal("heal-all should clear everything")
	}
	// A dial to a node that is not listening is refused.
	if _, err := dial("nobody"); !errors.Is(err, syscall.ECONNREFUSED) {
		t.Fatalf("dial to a node not listening: err = %v, want connection refused", err)
	}
}

// TestNetDrained: a cut link is drained only once the listening end has
// closed every connection dialed across it, and closing a listener resets
// its backlog, so the connections it never accepted drain too.
func TestNetDrained(t *testing.T) {
	n := NewNet()
	l, err := n.Listen("srv")
	if err != nil {
		t.Fatal(err)
	}
	c, err := n.Dialer("cli")("srv")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	served, err := l.Accept()
	if err != nil {
		t.Fatal(err)
	}
	if n.Drained("cli", "srv") {
		t.Fatal("an open connection reads as drained")
	}
	n.Block("cli", "srv")
	if n.Drained("cli", "srv") {
		t.Fatal("drained before the listening end closed")
	}
	served.Close()
	if !n.Drained("cli", "srv") {
		t.Fatal("not drained after the listening end closed")
	}
	// Dialed, never accepted: closing the listener resets it.
	n.HealAll()
	c2, err := n.Dialer("cli")("srv")
	if err != nil {
		t.Fatal(err)
	}
	if n.Drained("cli", "srv") {
		t.Fatal("an unaccepted connection reads as drained")
	}
	l.Close()
	if !n.Drained("cli", "srv") {
		t.Fatal("closing the listener did not reset its backlog")
	}
	if _, err := c2.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("read from a reset connection: err = %v, want EOF", err)
	}
}

// TestNetTransport pins the transport semantics the servers' recovery
// leans on: a closed listener refuses dials (else a follower "connects" to
// a crashed primary), a closed end's peer reads what was already written
// and then EOF (so a request sent before a cut is still served), and every
// transport error is one server.Retryable classifies as a network fault.
func TestNetTransport(t *testing.T) {
	n := NewNet()
	l, err := n.Listen("srv")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.Listen("srv"); !errors.Is(err, syscall.EADDRINUSE) {
		t.Fatalf("second listener under one name: err = %v, want address in use", err)
	}
	dial := n.Dialer("cli")
	c, err := dial("srv")
	if err != nil {
		t.Fatal(err)
	}
	served, err := l.Accept()
	if err != nil {
		t.Fatal(err)
	}
	l.Close()
	if _, err := l.Accept(); !errors.Is(err, net.ErrClosed) {
		t.Fatalf("accept on a closed listener: err = %v, want net.ErrClosed", err)
	}
	_, refused := dial("srv")
	if !errors.Is(refused, syscall.ECONNREFUSED) {
		t.Fatalf("dial to a closed listener: err = %v, want connection refused", refused)
	}

	// Each write arrives whole at the next read, and what the dialing end
	// wrote before it closed is still read, then EOF.
	for _, msg := range []string{"request", "sent before the close"} {
		if _, err := c.Write([]byte(msg)); err != nil {
			t.Fatal(err)
		}
	}
	c.Close()
	buf := make([]byte, 64)
	for _, want := range []string{"request", "sent before the close"} {
		if k, err := served.Read(buf); err != nil || string(buf[:k]) != want {
			t.Fatalf("served read = %q, %v; want %q", buf[:k], err, want)
		}
	}
	if _, err := served.Read(buf); err != io.EOF {
		t.Fatalf("served read after the peer closed: err = %v, want EOF", err)
	}
	_, closedRead := c.Read(buf)
	_, brokenWrite := served.Write([]byte("reply"))

	// A read past its deadline times out on the wall clock.
	if _, err := n.Listen("srv"); err != nil {
		t.Fatalf("listen after the old listener closed: %v", err)
	}
	c2, err := dial("srv")
	if err != nil {
		t.Fatal(err)
	}
	c2.SetReadDeadline(time.Now().Add(20 * time.Millisecond))
	_, timedOut := c2.Read(buf)
	if ne, ok := timedOut.(net.Error); !ok || !ne.Timeout() {
		t.Fatalf("read past its deadline: err = %v, want a timeout", timedOut)
	}
	n.Block("cli", "srv")
	_, cut := c2.Read(buf)

	for _, err := range []error{refused, closedRead, brokenWrite, timedOut, cut} {
		var oe *net.OpError
		var ne net.Error
		if !errors.As(err, &oe) && !errors.As(err, &ne) {
			t.Errorf("%v is neither a *net.OpError nor a net.Error", err)
		}
		if !server.Retryable(err) {
			t.Errorf("%v is not retryable", err)
		}
	}
}

// dialFaulty dials srv on a fresh network that echoes, with f injected.
func dialFaulty(t *testing.T, f *Faults) net.Conn {
	t.Helper()
	n := NewNet()
	echo(t, n, "srv")
	c, err := n.FaultyDialer("cli", f)("srv")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func faultSum(f *Faults) uint64 {
	drops, truncs, delays := f.Counts()
	return drops + truncs + delays
}

// TestFaultsPassThrough: with no scheduler nothing faults, and bytes pass
// unchanged.
func TestFaultsPassThrough(t *testing.T) {
	f := &Faults{Seed: 1}
	c := dialFaulty(t, f)
	msg := []byte("hello over a calm network")
	if _, err := c.Write(msg); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(msg))
	c.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := io.ReadFull(c, got); err != nil {
		t.Fatal(err)
	}
	if string(got) != string(msg) {
		t.Fatalf("echo got %q, want %q", got, msg)
	}
	if faultSum(f) != 0 {
		t.Fatal("faults fired with no scheduler armed")
	}
}

// TestFaultsEveryWriteSevers arms a fire-always scheduler on the write
// point and keeps writing until the connection dies: within a few writes a
// drop or truncation must sever it.
func TestFaultsEveryWriteSevers(t *testing.T) {
	f := &Faults{Sched: fault.NewPeriodic(pointWrite, 1), Seed: 42}
	c := dialFaulty(t, f)
	var sawError bool
	for i := 0; i < 64; i++ {
		if _, err := c.Write([]byte("payload payload payload")); err != nil {
			sawError = true
			break
		}
	}
	if !sawError {
		t.Fatal("64 always-faulting writes all succeeded; drop/truncate never fired")
	}
	if drops, truncs, _ := f.Counts(); drops+truncs == 0 {
		t.Fatal("connection errored without a drop or truncation")
	}
}

// TestFaultsReadSameSeed arms the read point: a scheduled read either
// delays (data still arrives) or severs the connection, and the same seed
// must give the same count of each class.
func TestFaultsReadSameSeed(t *testing.T) {
	counts := func(seed uint64) [3]uint64 {
		f := &Faults{Sched: fault.NewPeriodic(pointRead, 1), Seed: seed}
		c := dialFaulty(t, f)
		buf := make([]byte, 16)
		for i := 0; i < 32; i++ {
			if _, err := c.Write([]byte("0123456789abcdef")); err != nil {
				break
			}
			c.SetReadDeadline(time.Now().Add(time.Second))
			if _, err := c.Read(buf); err != nil {
				break
			}
		}
		drops, truncs, delays := f.Counts()
		return [3]uint64{drops, truncs, delays}
	}
	first := counts(7)
	if first == [3]uint64{} {
		t.Fatal("no read faults fired")
	}
	if again := counts(7); again != first {
		t.Fatalf("same seed diverged: (drops, truncs, delays) %v vs %v", first, again)
	}
}

// TestFaultsShareScheduler: the connections one Faults dials share its
// scheduler, so it fires across dials.
func TestFaultsShareScheduler(t *testing.T) {
	n := NewNet()
	echo(t, n, "srv")
	sched := fault.NewPeriodic("", 1)
	f := &Faults{Sched: sched, Seed: 9}
	dial := n.FaultyDialer("cli", f)
	for i := 0; i < 3; i++ {
		c, err := dial("srv")
		if err != nil {
			t.Fatal(err)
		}
		c.Write([]byte("x"))
		c.Close()
	}
	if sched.Fired() != 3 || faultSum(f) != 3 {
		t.Fatalf("three dials, one write each: scheduler fired %d times, %d faults counted; want 3",
			sched.Fired(), faultSum(f))
	}
}

// TestResilientClientThroughFlakyNetwork drives a resilient client across
// a network that drops, truncates, and delays frames: every operation must
// still succeed (via retry and re-dial), and the client must actually have
// exercised both. The same seed must fault the same frames again.
func TestResilientClientThroughFlakyNetwork(t *testing.T) {
	run := func() [3]uint64 {
		n := NewNet()
		l, err := n.Listen("srv")
		if err != nil {
			t.Fatal(err)
		}
		srv, err := server.New(server.Config{Shards: 2, CheckpointEvery: -1, PoolSize: 1 << 20})
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		go srv.Serve(l)
		sched := fault.NewPeriodic("", 7) // one fault per 7 conn I/O calls
		f := &Faults{Sched: sched, Seed: 5}
		rc, err := server.DialResilientFunc("srv", server.RetryPolicy{
			MaxAttempts: 12,
			BaseBackoff: time.Millisecond,
			MaxBackoff:  10 * time.Millisecond,
			Seed:        5,
		}, n.FaultyDialer("cli", f))
		if err != nil {
			t.Fatal(err)
		}
		defer rc.Close()

		const keys = 300
		val := func(k uint64) uint64 { return k*2654435761 + 1 }
		for k := uint64(0); k < keys; k++ {
			if err := rc.Put(k, val(k)); err != nil {
				t.Fatalf("put %d through flaky net: %v", k, err)
			}
		}
		for k := uint64(0); k < keys; k++ {
			v, ok, err := rc.Get(k)
			if err != nil {
				t.Fatalf("get %d through flaky net: %v", k, err)
			}
			if !ok || v != val(k) {
				t.Fatalf("key %d: got (%d,%v), want %d", k, v, ok, val(k))
			}
		}
		if sched.Fired() == 0 {
			t.Fatal("no network faults fired; the test proved nothing")
		}
		if rc.Retries() == 0 || rc.Redials() == 0 {
			t.Errorf("retries=%d redials=%d; flaky net should force both", rc.Retries(), rc.Redials())
		}
		drops, truncs, delays := f.Counts()
		return [3]uint64{drops, truncs, delays}
	}
	if first, again := run(), run(); first != again {
		t.Fatalf("same seed, different faults: (drops, truncs, delays) %v vs %v", first, again)
	}
}
