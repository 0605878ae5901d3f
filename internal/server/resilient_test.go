package server

import (
	"net"
	"sync/atomic"
	"testing"
	"time"
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
			rc, err := DialResilientFunc("scripted", RetryPolicy{MaxAttempts: 3, BaseBackoff: time.Microsecond},
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
