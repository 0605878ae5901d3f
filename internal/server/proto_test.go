package server

import (
	"bytes"
	"errors"
	"reflect"
	"strings"
	"testing"
)

func roundTripRequest(t *testing.T, req *Request) *Request {
	t.Helper()
	body, err := AppendRequest(nil, req)
	if err != nil {
		t.Fatalf("AppendRequest(%+v): %v", req, err)
	}
	got, err := DecodeRequest(body)
	if err != nil {
		t.Fatalf("DecodeRequest(%+v): %v", req, err)
	}
	return got
}

func TestRequestRoundTrip(t *testing.T) {
	reqs := []*Request{
		{Op: OpGet, Key: 42},
		{Op: OpPut, Key: 1, Value: 2},
		{Op: OpDelete, Key: ^uint64(0)},
		{Op: OpScan, Key: 7, Limit: 100},
		{Op: OpStats},
		{Op: OpCheckpoint},
		{Op: OpBatch, Sub: []Request{
			{Op: OpGet, Key: 1},
			{Op: OpPut, Key: 2, Value: 3},
			{Op: OpDelete, Key: 4},
			{Op: OpScan, Key: 5, Limit: 6},
		}},
	}
	for _, req := range reqs {
		got := roundTripRequest(t, req)
		if !reflect.DeepEqual(got, req) {
			t.Errorf("round trip: got %+v, want %+v", got, req)
		}
	}
}

func TestRequestEncodeErrors(t *testing.T) {
	cases := []*Request{
		{Op: 99},
		{Op: OpBatch, Sub: []Request{{Op: OpBatch}}},
		{Op: OpBatch, Sub: []Request{{Op: OpStats}}},
		{Op: OpBatch, Sub: []Request{{Op: OpCheckpoint}}},
		{Op: OpBatch, Sub: make([]Request, MaxBatch+1)},
	}
	for _, req := range cases {
		if _, err := AppendRequest(nil, req); !errors.Is(err, ErrProto) {
			t.Errorf("AppendRequest(%+v): got %v, want ErrProto", req, err)
		}
	}
}

func TestRequestDecodeErrors(t *testing.T) {
	valid, err := AppendRequest(nil, &Request{Op: OpPut, Key: 1, Value: 2})
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"empty":           {},
		"unknown op":      {99},
		"truncated key":   {OpGet, 1, 2, 3},
		"truncated value": valid[:9],
		"trailing bytes":  append(append([]byte{}, valid...), 0xFF),
		"scan limit":      mustAppend(t, &Request{Op: OpScan, Key: 1, Limit: MaxScanLimit + 1}),
		"batch count":     {OpBatch, 0xFF, 0xFF, 0xFF, 0xFF},
		"nested batch":    {OpBatch, 1, 0, 0, 0, OpBatch, 0, 0, 0, 0},
		"stats in batch":  {OpBatch, 1, 0, 0, 0, OpStats},
	}
	for name, body := range cases {
		if _, err := DecodeRequest(body); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}
}

// TestTruncationSaysWhere: a payload that runs out is refused with the byte
// offset at which it did, in a request and in a reply.
func TestTruncationSaysWhere(t *testing.T) {
	_, err := DecodeRequest([]byte{OpPut, 1, 0, 0, 0, 0, 0, 0, 0, 9, 9})
	if !errors.Is(err, ErrProto) || !strings.Contains(err.Error(), "at offset 9: need 8 bytes, 2 remain") {
		t.Errorf("truncated PUT value: %v", err)
	}
	_, err = DecodeReply(&Request{Op: OpScan}, []byte{StatusOK, 1, 0, 0, 0, 7})
	if !errors.Is(err, ErrProto) || !strings.Contains(err.Error(), "at offset 5") {
		t.Errorf("scan reply whose count outruns its bytes: %v", err)
	}
}

// mustAppend encodes without the op-level validation (scan limits are only
// enforced on decode) so decode-side checks can be exercised.
func mustAppend(t *testing.T, req *Request) []byte {
	t.Helper()
	body, err := AppendRequest(nil, req)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

func TestReplyRoundTrip(t *testing.T) {
	cases := []struct {
		req *Request
		rep *Reply
	}{
		{&Request{Op: OpGet, Key: 1}, &Reply{Status: StatusOK, Found: true, Value: 77}},
		{&Request{Op: OpGet, Key: 1}, &Reply{Status: StatusOK}},
		{&Request{Op: OpPut, Key: 1}, &Reply{Status: StatusOK}},
		{&Request{Op: OpDelete, Key: 1}, &Reply{Status: StatusOK, Found: true}},
		{&Request{Op: OpScan, Key: 1, Limit: 4}, &Reply{Status: StatusOK, Pairs: []KV{{1, 2}, {3, 4}}}},
		{&Request{Op: OpStats}, &Reply{Status: StatusOK, Blob: []byte(`{"shards":4}`)}},
		{&Request{Op: OpCheckpoint}, &Reply{Status: StatusOK}},
		{&Request{Op: OpGet, Key: 1}, &Reply{Status: StatusInternal}},
	}
	for _, tc := range cases {
		body := AppendReply(nil, tc.req.Op, tc.rep)
		got, err := DecodeReply(tc.req, body)
		if err != nil {
			t.Fatalf("DecodeReply(op %d): %v", tc.req.Op, err)
		}
		if !reflect.DeepEqual(got, tc.rep) {
			t.Errorf("op %d: got %+v, want %+v", tc.req.Op, got, tc.rep)
		}
	}
}

func TestBatchReplyRoundTrip(t *testing.T) {
	req := &Request{Op: OpBatch, Sub: []Request{
		{Op: OpGet, Key: 1},
		{Op: OpPut, Key: 2, Value: 3},
		{Op: OpScan, Key: 0, Limit: 2},
	}}
	rep := &Reply{Status: StatusOK, Sub: []Reply{
		{Status: StatusOK, Found: true, Value: 9},
		{Status: StatusOK},
		{Status: StatusOK, Pairs: []KV{{5, 6}}},
	}}
	body := AppendBatchReply(nil, req, rep)
	got, err := DecodeReply(req, body)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, rep) {
		t.Errorf("got %+v, want %+v", got, rep)
	}

	// A count mismatch against the request shape must be rejected.
	short := &Request{Op: OpBatch, Sub: req.Sub[:2]}
	if _, err := DecodeReply(short, body); err == nil {
		t.Error("batch count mismatch decoded without error")
	}
}

func TestReplyErr(t *testing.T) {
	if err := (&Reply{Status: StatusOK}).Err(); err != nil {
		t.Errorf("OK status: %v", err)
	}
	if err := (&Reply{Status: StatusBadRequest}).Err(); !errors.Is(err, ErrProto) {
		t.Errorf("bad request: got %v, want ErrProto", err)
	}
	if err := (&Reply{Status: StatusInternal}).Err(); err == nil {
		t.Error("internal status: nil error")
	}
}

func TestFrameIO(t *testing.T) {
	var buf bytes.Buffer
	body := []byte("hello frames")
	if err := WriteFrame(&buf, body); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, body) {
		t.Errorf("got %q, want %q", got, body)
	}

	if err := WriteFrame(&buf, make([]byte, MaxFrame+1)); !errors.Is(err, ErrProto) {
		t.Errorf("oversized write: got %v, want ErrProto", err)
	}
	var big bytes.Buffer
	big.Write([]byte{0xFF, 0xFF, 0xFF, 0xFF})
	if _, err := ReadFrame(&big); !errors.Is(err, ErrProto) {
		t.Errorf("oversized read: got %v, want ErrProto", err)
	}
	var trunc bytes.Buffer
	trunc.Write([]byte{8, 0, 0, 0, 1, 2})
	if _, err := ReadFrame(&trunc); err == nil {
		t.Error("truncated frame read without error")
	}
}

func TestShardFor(t *testing.T) {
	const n = 4
	counts := make([]int, n)
	for key := uint64(0); key < 10000; key++ {
		s := ShardFor(key, n)
		if s < 0 || s >= n {
			t.Fatalf("ShardFor(%d, %d) = %d out of range", key, n, s)
		}
		counts[s]++
	}
	// The mixer should spread dense keys roughly evenly.
	for i, c := range counts {
		if c < 2000 || c > 3000 {
			t.Errorf("shard %d got %d of 10000 dense keys; want near-uniform", i, c)
		}
	}
	if ShardFor(123, 1) != 0 {
		t.Error("single shard must receive every key")
	}
}
