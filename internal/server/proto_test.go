package server

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"nvref/internal/cluster"
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
		"scan limit":      le(OpScan, uint64(1), uint32(MaxScanLimit+1)),
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

// le builds a hand-written wire vector: a byte as is, a uint16, uint32 or
// uint64 little-endian, a []byte or string verbatim.
func le(parts ...any) []byte {
	var b []byte
	for _, p := range parts {
		switch v := p.(type) {
		case byte:
			b = append(b, v)
		case uint16:
			b = binary.LittleEndian.AppendUint16(b, v)
		case uint32:
			b = binary.LittleEndian.AppendUint32(b, v)
		case uint64:
			b = binary.LittleEndian.AppendUint64(b, v)
		case []byte:
			b = append(b, v...)
		case string:
			b = append(b, v...)
		default:
			panic(fmt.Sprintf("le: unsupported part %T", p))
		}
	}
	return b
}

// TestEncoderRejectsWhatDecoderRejects: one row per request rule, each
// refused by AppendRequest and, as hand-built bytes, by DecodeRequest — both
// with an ErrProto that names its byte offset.
func TestEncoderRejectsWhatDecoderRejects(t *testing.T) {
	gets := make([]Request, MaxBatch+1)
	var getsWire []byte
	for i := range gets {
		gets[i] = Request{Op: OpGet, Key: uint64(i)}
		getsWire = append(getsWire, le(OpGet, uint64(i))...)
	}
	longAddr := strings.Repeat("a", cluster.MaxNodeAddr+1)
	cases := []struct {
		name string
		req  Request
		wire []byte
	}{
		{"scan limit above MaxScanLimit", Request{Op: OpScan, Key: 1, Limit: MaxScanLimit + 1},
			le(OpScan, uint64(1), uint32(MaxScanLimit+1))},
		{"replicate max 0", Request{Op: OpReplicate, Shard: 1, Seq: 9},
			le(OpReplicate, uint32(1), uint64(9), uint32(0))},
		{"replicate max above MaxReplBatch", Request{Op: OpReplicate, Shard: 1, Seq: 9, Limit: MaxReplBatch + 1},
			le(OpReplicate, uint32(1), uint64(9), uint32(MaxReplBatch+1))},
		{"snapshot max 0", Request{Op: OpMigSnapshot, Shard: 1, Slot: 2, Key: 3},
			le(OpMigSnapshot, uint32(1), uint32(2), uint64(3), uint32(0))},
		{"snapshot max above MaxScanLimit", Request{Op: OpMigSnapshot, Shard: 1, Slot: 2, Key: 3, Limit: MaxScanLimit + 1},
			le(OpMigSnapshot, uint32(1), uint32(2), uint64(3), uint32(MaxScanLimit+1))},
		{"migration pull max 0", Request{Op: OpMigPull, Shard: 1, Slot: 2, Seq: 3},
			le(OpMigPull, uint32(1), uint32(2), uint64(3), uint32(0))},
		{"migration pull max above MaxReplBatch", Request{Op: OpMigPull, Shard: 1, Slot: 2, Seq: 3, Limit: MaxReplBatch + 1},
			le(OpMigPull, uint32(1), uint32(2), uint64(3), uint32(MaxReplBatch+1))},
		{"ttl above MaxTTLms", Request{Op: OpPut, Key: 1, Value: 2, TTLms: MaxTTLms + 1},
			le(OpDeadline, uint32(MaxTTLms+1), OpPut, uint64(1), uint64(2))},
		{"empty map image", Request{Op: OpMapUpdate},
			le(OpMapUpdate, uint32(0))},
		{"map image above MaxMapBytes", Request{Op: OpMapUpdate, Blob: make([]byte, MaxMapBytes+1)},
			le(OpMapUpdate, uint32(MaxMapBytes+1), make([]byte, MaxMapBytes+1))},
		{"empty fence address", Request{Op: OpMigFence, Slot: 2},
			le(OpMigFence, uint32(2), uint16(0))},
		{"fence address above MaxNodeAddr", Request{Op: OpMigFence, Slot: 2, Addr: longAddr},
			le(OpMigFence, uint32(2), uint16(len(longAddr)), longAddr)},
		{"MaxBatch+1 sub-requests", Request{Op: OpBatch, Sub: gets},
			le(OpBatch, uint32(MaxBatch+1), getsWire)},
		{"stats inside a batch", Request{Op: OpBatch, Sub: []Request{{Op: OpStats}}},
			le(OpBatch, uint32(1), OpStats)},
		{"envelope inside a batch", Request{Op: OpBatch, Sub: []Request{{Op: OpGet, Key: 1, TTLms: 5}}},
			le(OpBatch, uint32(1), OpDeadline, uint32(5), OpGet, uint64(1))},
		{"seq gate on PUT", Request{Op: OpPut, Key: 1, Value: 2, Gate: 5},
			le(OpSeqGate, uint64(5), OpPut, uint64(1), uint64(2))},
		{"sampled without a trace id", Request{Op: OpGet, Key: 1, Sampled: true},
			le(OpTrace, uint64(0), traceFlagSampled, OpGet, uint64(1))},
	}
	for _, tc := range cases {
		if _, err := AppendRequest(nil, &tc.req); !errors.Is(err, ErrProto) || !strings.Contains(err.Error(), "at offset") {
			t.Errorf("%s: AppendRequest: %v, want an ErrProto with its offset", tc.name, err)
		}
		if _, err := DecodeRequest(tc.wire); !errors.Is(err, ErrProto) || !strings.Contains(err.Error(), "at offset") {
			t.Errorf("%s: DecodeRequest: %v, want an ErrProto with its offset", tc.name, err)
		}
	}
}

// TestBatchDecodeAllocs: a BATCH's sub-requests and sub-replies decode in
// place, so decoding either side of a 64-op batch allocates the top-level
// struct and its Sub slice and nothing else.
func TestBatchDecodeAllocs(t *testing.T) {
	req := &Request{Op: OpBatch}
	rep := &Reply{Status: StatusOK}
	for i := uint64(0); i < 64; i++ {
		if i%2 == 0 {
			req.Sub = append(req.Sub, Request{Op: OpPut, Key: i, Value: i})
			rep.Sub = append(rep.Sub, Reply{Status: StatusOK, Shard: 1, Seq: i})
		} else {
			req.Sub = append(req.Sub, Request{Op: OpGet, Key: i})
			rep.Sub = append(rep.Sub, Reply{Status: StatusOK, Found: true, Value: i})
		}
	}
	reqBody, err := AppendRequest(nil, req)
	if err != nil {
		t.Fatal(err)
	}
	repBody := AppendBatchReply(nil, req, rep)
	if _, err := DecodeReply(req, repBody); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() { _, _ = DecodeRequest(reqBody) }); n > 2 {
		t.Errorf("DecodeRequest of a 64-op batch: %v allocations, want ≤ 2", n)
	}
	if n := testing.AllocsPerRun(100, func() { _, _ = DecodeReply(req, repBody) }); n > 2 {
		t.Errorf("DecodeReply of a 64-op batch reply: %v allocations, want ≤ 2", n)
	}
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
