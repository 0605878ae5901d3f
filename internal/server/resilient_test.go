package server

import (
	"errors"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"nvref/internal/cluster"
)

// scriptedBatchDial returns a dialer whose connections reach an in-process
// server answering every BATCH all OK, except that the first BATCH it
// serves (across all connections) gets first as its second sub-reply's
// status. batches counts the BATCH frames served.
func scriptedBatchDial(t *testing.T, first byte, batches *atomic.Int32) func(string) (net.Conn, error) {
	return func(string) (net.Conn, error) {
		cli, srv := net.Pipe()
		go func() {
			defer srv.Close()
			for {
				body, err := ReadFrame(srv)
				if err != nil {
					return
				}
				req, err := DecodeRequest(body)
				if err != nil || req.Op != OpBatch {
					t.Errorf("scripted server got %+v, %v; want a BATCH", req, err)
					return
				}
				rep := &Reply{Sub: make([]Reply, len(req.Sub))}
				if batches.Add(1) == 1 {
					rep.Sub[1].Status = first
				}
				if err := WriteFrame(srv, AppendBatchReply(nil, req, rep)); err != nil {
					return
				}
			}
		}()
		return cli, nil
	}
}

// TestResilientBatchRetryRule pins ResilientClient.Batch's rule: a batch
// whose reply carries a SHED or UNAVAILABLE sub-reply is retried whole, and
// a sub-reply with a non-retryable status comes back without a retry.
func TestResilientBatchRetryRule(t *testing.T) {
	for _, tc := range []struct {
		name    string
		first   byte
		retries uint64
		want    byte // the second sub-reply's status as the caller sees it
	}{
		{"shed is retried", StatusShed, 1, StatusOK},
		{"unavailable is retried", StatusUnavailable, 1, StatusOK},
		{"bad request is returned", StatusBadRequest, 0, StatusBadRequest},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var batches atomic.Int32
			rc, err := DialResilient([]string{"scripted"}, RetryPolicy{MaxAttempts: 3, BaseBackoff: time.Microsecond},
				scriptedBatchDial(t, tc.first, &batches))
			if err != nil {
				t.Fatal(err)
			}
			defer rc.Close()
			reps, err := rc.Batch([]Request{{Op: OpPut, Key: 1, Value: 1}, {Op: OpPut, Key: 2, Value: 2}})
			if err != nil {
				t.Fatalf("batch: %v", err)
			}
			if got := rc.Retries(); got != tc.retries {
				t.Errorf("Retries() = %d, want %d", got, tc.retries)
			}
			if got := uint64(batches.Load()); got != tc.retries+1 {
				t.Errorf("server saw %d batches, want %d", got, tc.retries+1)
			}
			if len(reps) != 2 || reps[0].Status != StatusOK || reps[1].Status != tc.want {
				t.Fatalf("sub-replies = %+v, want [OK, status %d]", reps, tc.want)
			}
		})
	}
}

// scriptedDial returns a dialer whose connections reach an in-process
// server that answers each request with reply(addr, req) (a BATCH's with
// its sub-replies); a nil reply
// closes the connection once the request is read, with no answer. A nil
// reply function refuses every dial.
func scriptedDial(t *testing.T, reply func(addr string, req *Request) *Reply) func(string) (net.Conn, error) {
	return func(addr string) (net.Conn, error) {
		if reply == nil {
			return nil, errors.New("scripted: connection refused")
		}
		cli, srv := net.Pipe()
		go func() {
			defer srv.Close()
			for {
				body, err := ReadFrame(srv)
				if err != nil {
					return
				}
				req, err := DecodeRequest(body)
				if err != nil {
					t.Errorf("scripted server: %v", err)
					return
				}
				rep := reply(addr, req)
				if rep == nil {
					return
				}
				frame := AppendReply(nil, req.Op, rep)
				if req.Op == OpBatch {
					frame = AppendBatchReply(nil, req, rep)
				}
				if err := WriteFrame(srv, frame); err != nil {
					return
				}
			}
		}()
		return cli, nil
	}
}

// TestResilientIndeterminate pins ResilientClient's error contract: a
// failed operation wraps ErrIndeterminate exactly when some attempt may
// have applied it — its frame went out whole and no refusal came back, an
// UNAVAILABLE did, or a BATCH reply carried a failed sub-reply — and a
// ClusterClient keeps that across re-routes.
func TestResilientIndeterminate(t *testing.T) {
	policy := RetryPolicy{MaxAttempts: 3, BaseBackoff: time.Microsecond, MaxBackoff: time.Microsecond, Timeout: time.Second}
	status := func(s byte) func(string, *Request) *Reply {
		return func(string, *Request) *Reply { return &Reply{Status: s} }
	}
	// severFirst closes the connection on the first request it reads and
	// answers every later one with then.
	severFirst := func(then *Reply) func(string, *Request) *Reply {
		var n atomic.Int32
		return func(string, *Request) *Reply {
			if n.Add(1) == 1 {
				return nil
			}
			return then
		}
	}
	// hungUp's connections are closed at the far end before any write.
	hungUp := func(string) (net.Conn, error) {
		cli, srv := net.Pipe()
		srv.Close()
		return cli, nil
	}
	for _, tc := range []struct {
		name string
		dial func(string) (net.Conn, error)
		want bool
	}{
		{"every dial refused", scriptedDial(t, nil), false},
		{"write fails", hungUp, false},
		{"read-only on every attempt", scriptedDial(t, status(StatusReadOnly)), false},
		{"request read, no reply", scriptedDial(t, func(string, *Request) *Reply { return nil }), true},
		{"unavailable", scriptedDial(t, status(StatusUnavailable)), true},
		{"severed after the flush, then moved", scriptedDial(t, severFirst(&Reply{Status: StatusMoved, Epoch: 1, Addr: "b"})), true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rc, err := DialResilient([]string{"a", "b"}, policy, tc.dial)
			if err != nil {
				t.Fatal(err)
			}
			defer rc.Close()
			err = rc.Put(1, 1)
			if err == nil {
				t.Fatal("put succeeded against a script that never acks")
			}
			if got := errors.Is(err, ErrIndeterminate); got != tc.want {
				t.Fatalf("errors.Is(%v, ErrIndeterminate) = %v, want %v", err, got, tc.want)
			}
		})
	}

	// A BATCH whose second sub-reply is shed on every attempt: its first
	// sub-request ran each time.
	rc, err := DialResilient([]string{"a"}, policy, scriptedDial(t, func(_ string, req *Request) *Reply {
		rep := &Reply{Sub: make([]Reply, len(req.Sub))}
		rep.Sub[1].Status = StatusShed
		return rep
	}))
	if err != nil {
		t.Fatal(err)
	}
	_, err = rc.Batch([]Request{{Op: OpPut, Key: 1, Value: 1}, {Op: OpPut, Key: 2, Value: 2}})
	rc.Close()
	if !errors.Is(err, ErrShed) || !errors.Is(err, ErrIndeterminate) {
		t.Fatalf("batch with a shed sub-reply: err %v, want an indeterminate SHED", err)
	}

	// A cluster: a owns every slot at epoch 1 and b at epoch 2. a severs
	// the first PUT it reads, then redirects to b; b redirects every PUT.
	// The routing client moves to b's newer map, and its final MOVED is
	// definite — but the severed PUT on a may have landed.
	for _, sever := range []bool{true, false} {
		ma, _ := cluster.New(4, []string{"a", "b"})
		ma.Owner = []uint16{0, 0, 0, 0}
		mb, _ := cluster.New(4, []string{"a", "b"})
		mb.Epoch, mb.Owner = 2, []uint16{1, 1, 1, 1}
		moved := &Reply{Status: StatusMoved, Epoch: 2, Addr: "b"}
		aPut := func(string, *Request) *Reply { return moved }
		if sever {
			aPut = severFirst(moved)
		}
		var bPuts atomic.Int32
		dial := scriptedDial(t, func(addr string, req *Request) *Reply {
			switch {
			case req.Op == OpClusterMap && addr == "a":
				return &Reply{Blob: ma.Encode()}
			case req.Op == OpClusterMap:
				return &Reply{Blob: mb.Encode()}
			case addr == "a":
				return aPut(addr, req)
			}
			bPuts.Add(1)
			return moved
		})
		cc, err := DialCluster([]string{"a"}, policy, dial)
		if err != nil {
			t.Fatal(err)
		}
		err = cc.Put(1, 1)
		cc.Close()
		if !errors.Is(err, ErrMoved) || bPuts.Load() == 0 {
			t.Fatalf("sever=%v: err %v after %d PUTs on b; want a MOVED from b", sever, err, bPuts.Load())
		}
		if got := errors.Is(err, ErrIndeterminate); got != sever {
			t.Fatalf("sever=%v: errors.Is(%v, ErrIndeterminate) = %v", sever, err, got)
		}
	}
}

// TestClusterClientAttemptBudget pins ClusterClient to the one attempt loop:
// an owner that answers UNAVAILABLE to every PUT reads exactly MaxAttempts
// PUT frames for one Put, and a node that sheds its first SCAN is retried
// by Scan's loop pinned to that node.
func TestClusterClientAttemptBudget(t *testing.T) {
	policy := RetryPolicy{MaxAttempts: 3, BaseBackoff: time.Microsecond, MaxBackoff: time.Microsecond, Timeout: time.Second}
	m, _ := cluster.New(4, []string{"a", "b"})
	m.Owner = []uint16{1, 1, 1, 1}
	var bPuts, bScans atomic.Int32
	dial := scriptedDial(t, func(addr string, req *Request) *Reply {
		switch {
		case req.Op == OpClusterMap:
			return &Reply{Blob: m.Encode()}
		case addr != "b":
			t.Errorf("%s got op %d; every slot is b's", addr, req.Op)
			return nil
		case req.Op == OpPut:
			bPuts.Add(1)
			return &Reply{Status: StatusUnavailable}
		case bScans.Add(1) == 1:
			return &Reply{Status: StatusShed}
		}
		return &Reply{Pairs: []KV{{Key: 5, Value: 55}}}
	})
	cc, err := DialCluster([]string{"a"}, policy, dial)
	if err != nil {
		t.Fatal(err)
	}
	defer cc.Close()
	if err := cc.Put(1, 1); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("put: err %v, want UNAVAILABLE", err)
	}
	if got := bPuts.Load(); got != int32(policy.MaxAttempts) {
		t.Fatalf("b read %d PUT frames for one Put, want %d", got, policy.MaxAttempts)
	}
	pairs, err := cc.Scan(0, 10)
	if err != nil || len(pairs) != 1 || pairs[0] != (KV{Key: 5, Value: 55}) {
		t.Fatalf("scan after a shed: %v, %v", pairs, err)
	}
	if got := bScans.Load(); got != 2 {
		t.Fatalf("b read %d SCAN frames, want 2", got)
	}
}
