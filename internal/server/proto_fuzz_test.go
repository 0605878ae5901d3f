package server

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"reflect"
	"testing"

	"nvref/internal/cluster"
	"nvref/internal/repl"
)

// fuzzSeeds are the valid frames (length prefix included) seeding the
// corpus — one per op, a deadline-enveloped request, and a batch.
func fuzzSeeds(f *testing.F) {
	reqs := []*Request{
		{Op: OpGet, Key: 42},
		{Op: OpPut, Key: 1, Value: 2},
		{Op: OpDelete, Key: ^uint64(0)},
		{Op: OpScan, Key: 7, Limit: 100},
		{Op: OpStats},
		{Op: OpCheckpoint},
		{Op: OpPut, Key: 9, Value: 10, TTLms: 250},
		{Op: OpGet, Key: 8, Gate: 12345},
		{Op: OpGet, Key: 8, TTLms: 20, Gate: 1},
		{Op: OpReplicate, Shard: 1, Seq: 5, Limit: 128},
		{Op: OpReplicate, Shard: 1, Seq: 5, Limit: 128, TTLms: 500}, // the long poll
		{Op: OpReplAck, Shard: 3, Seq: 999},
		{Op: OpBatch, TTLms: 50, Sub: []Request{
			{Op: OpGet, Key: 1},
			{Op: OpPut, Key: 2, Value: 3},
			{Op: OpScan, Key: 5, Limit: 6},
		}},
		{Op: OpGet, Key: 8, Trace: 0xDEADBEEF, Sampled: true},
		{Op: OpPut, Key: 1, Value: 2, Trace: 5},
		{Op: OpGet, Key: 8, TTLms: 20, Trace: 9, Sampled: true, Gate: 1},
		{Op: OpBatch, Trace: 3, Sampled: true, Sub: []Request{
			{Op: OpGet, Key: 1},
			{Op: OpPut, Key: 2, Value: 3},
		}},
		{Op: OpClusterMap},
		{Op: OpMapUpdate, Blob: fuzzMapImage()},
		{Op: OpMigSnapshot, Shard: 1, Slot: 3, Key: 42, Limit: 16},
		{Op: OpMigSnapshot, Slot: SlotAll, Limit: MaxScanLimit},
		{Op: OpMigPull, Shard: 1, Slot: 2, Seq: 7, Limit: 64},
		{Op: OpMigPull, Shard: 0, Slot: SlotAll, Seq: 0, Limit: MaxReplBatch},
		{Op: OpMigFence, Slot: 5, Addr: "127.0.0.1:9"},
	}
	for _, req := range reqs {
		body, err := AppendRequest(nil, req)
		if err != nil {
			f.Fatal(err)
		}
		var buf bytes.Buffer
		if err := WriteFrame(&buf, body); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	// Hostile seeds: oversized length prefix, huge batch count, huge scan
	// limit, truncated header.
	big := make([]byte, 4)
	binary.LittleEndian.PutUint32(big, MaxFrame+1)
	f.Add(big)
	f.Add([]byte{5, 0, 0, 0, OpBatch, 0xFF, 0xFF, 0xFF, 0xFF})
	f.Add([]byte{13, 0, 0, 0, OpScan, 1, 0, 0, 0, 0, 0, 0, 0, 0xFF, 0xFF, 0xFF, 0xFF})
	f.Add([]byte{1, 0})
	// Hostile trace envelopes: zero ID, unknown flags, truncated envelope,
	// and a trace inside a batch sub-request.
	f.Add([]byte{19, 0, 0, 0, OpTrace, 0, 0, 0, 0, 0, 0, 0, 0, 0, OpGet, 1, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{19, 0, 0, 0, OpTrace, 1, 0, 0, 0, 0, 0, 0, 0, 0xFF, OpGet, 1, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{4, 0, 0, 0, OpTrace, 1, 0, 0})
	f.Add([]byte{24, 0, 0, 0, OpBatch, 1, 0, 0, 0, OpTrace, 1, 0, 0, 0, 0, 0, 0, 0, 1, OpGet, 1, 0, 0, 0, 0, 0, 0, 0})
	// Hostile cluster seeds: map update claiming a 4 GiB image, fence with
	// an addr length past the body, snapshot with an oversized chunk limit,
	// and a cluster op smuggled into a batch.
	f.Add([]byte{5, 0, 0, 0, OpMapUpdate, 0xFF, 0xFF, 0xFF, 0xFF})
	f.Add([]byte{7, 0, 0, 0, OpMigFence, 5, 0, 0, 0, 0xFF, 0xFF})
	f.Add([]byte{21, 0, 0, 0, OpMigSnapshot, 1, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0xFF, 0xFF, 0xFF, 0xFF})
	f.Add([]byte{6, 0, 0, 0, OpBatch, 1, 0, 0, 0, OpClusterMap})
}

// fuzzMapImage is a small valid encoded cluster map for the corpus.
func fuzzMapImage() []byte {
	m, err := cluster.New(4, []string{"127.0.0.1:1", "127.0.0.1:2"})
	if err != nil {
		panic(err)
	}
	return m.Encode()
}

// FuzzDecodeFrame feeds arbitrary byte streams through the exact framing
// and decoding path handleConn runs: ReadFrame must bound every
// allocation, DecodeRequest must reject malformed payloads with ErrProto
// (never panic), and anything it accepts must re-encode and re-decode to
// the identical request (the codec is a bijection on valid frames).
func FuzzDecodeFrame(f *testing.F) {
	fuzzSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		body, err := ReadFrame(bytes.NewReader(data))
		if err != nil {
			return // short or oversized frame: rejected before allocation
		}
		if len(body) > MaxFrame {
			t.Fatalf("ReadFrame returned %d bytes, beyond MaxFrame", len(body))
		}
		req, err := DecodeRequest(body)
		if err != nil {
			if !errors.Is(err, ErrProto) {
				t.Fatalf("DecodeRequest rejected with non-protocol error %v", err)
			}
			return
		}
		enc, err := AppendRequest(nil, req)
		if err != nil {
			t.Fatalf("decoded request %+v does not re-encode: %v", req, err)
		}
		again, err := DecodeRequest(enc)
		if err != nil {
			t.Fatalf("re-encoded request %+v does not re-decode: %v", req, err)
		}
		if !reflect.DeepEqual(req, again) {
			t.Fatalf("round trip diverged: %+v vs %+v", req, again)
		}
	})
}

// replyFuzzReq maps a fuzzed op byte to the request shape DecodeReply
// parses against. Batch uses a fixed two-element shape so the reply's
// count field has something to disagree with. The high bit selects a
// traced request, so the fuzzer also drives the reply-echo decode path.
func replyFuzzReq(op byte) *Request {
	var trace uint64
	if op&0x80 != 0 {
		op &^= 0x80
		trace = 7
	}
	if op == OpBatch {
		return &Request{Op: OpBatch, Trace: trace, Sub: []Request{{Op: OpGet, Key: 1}, {Op: OpPut, Key: 2, Value: 3}}}
	}
	return &Request{Op: op, Limit: 16, Trace: trace}
}

// FuzzDecodeReply is FuzzDecodeFrame's mirror for the client half:
// arbitrary reply bodies against every request shape must be rejected
// with ErrProto (never panic, never over-allocate), and any accepted
// reply must survive an encode/decode round trip unchanged.
func FuzzDecodeReply(f *testing.F) {
	seedReps := []struct {
		op  byte
		rep Reply
	}{
		{OpGet, Reply{Status: StatusOK, Found: true, Value: 77}},
		{OpGet, Reply{Status: StatusOK}},
		{OpGet, Reply{Status: StatusLagging}},
		{OpPut, Reply{Status: StatusOK, Shard: 2, Seq: 41}},
		{OpPut, Reply{Status: StatusReadOnly}},
		{OpDelete, Reply{Status: StatusOK, Found: true, Shard: 1, Seq: 9}},
		{OpScan, Reply{Status: StatusOK, Pairs: []KV{{Key: 1, Value: 2}, {Key: 3, Value: 4}}}},
		{OpStats, Reply{Status: StatusOK, Blob: []byte(`{"shards":2}`)}},
		{OpCheckpoint, Reply{Status: StatusOK}},
		{OpReplAck, Reply{Status: StatusOK}},
		{OpReplicate, Reply{Status: StatusOK, Seq: 12, Value: 11, Recs: []repl.Record{
			{Seq: 11, Key: 5, Value: 6, Op: repl.RecPut},
			{Seq: 12, Key: 5, Op: repl.RecDelete},
		}}},
		{OpGet, Reply{Status: StatusShed}},
		{OpPut, Reply{Status: StatusInternal}},
		{OpGet, Reply{Status: StatusMoved, Epoch: 3, Addr: "127.0.0.1:7"}},
		{OpPut, Reply{Status: StatusMoved, Epoch: 1, Addr: "x"}},
		{OpMapUpdate, Reply{Status: StatusWrongEpoch}},
		{OpClusterMap, Reply{Status: StatusOK, Blob: fuzzMapImage()}},
		{OpMigSnapshot, Reply{Status: StatusOK, Found: true, Seq: 99, Pairs: []KV{{Key: 1, Value: 2}}}},
		{OpMigPull, Reply{Status: StatusOK, Found: true, Seq: 12, Value: 15, Recs: []repl.Record{
			{Seq: 11, Key: 5, Value: 6, Op: repl.RecPut},
		}}},
		{OpMigFence, Reply{Status: StatusOK, Seqs: []uint64{3, 9}}},
		{OpMigFence, Reply{Status: StatusUnavailable}},
	}
	for _, s := range seedReps {
		f.Add(s.op, AppendReply(nil, s.op, &s.rep))
	}
	batchRep := Reply{Status: StatusOK, Sub: []Reply{
		{Status: StatusOK, Found: true, Value: 10},
		{Status: StatusOK, Shard: 0, Seq: 3},
	}}
	f.Add(OpBatch, AppendBatchReply(nil, replyFuzzReq(OpBatch), &batchRep))
	// Traced shapes: the echo prefix on a value reply, an error reply, and
	// a batch (high bit of the op selects the traced request shape).
	tracedGet := Reply{Status: StatusOK, Found: true, Value: 5, Trace: 7}
	f.Add(OpGet|0x80, AppendReply(nil, OpGet, &tracedGet))
	tracedShed := Reply{Status: StatusShed, Trace: 7}
	f.Add(OpPut|0x80, AppendReply(nil, OpPut, &tracedShed))
	tracedBatch := Reply{Status: StatusOK, Trace: 7, Sub: []Reply{
		{Status: StatusOK, Found: true, Value: 10, Trace: 7},
		{Status: StatusOK, Seq: 3, Trace: 7},
	}}
	f.Add(OpBatch|0x80, AppendBatchReply(nil, replyFuzzReq(OpBatch|0x80), &tracedBatch))
	// Traced request whose reply lacks the echo: must be rejected.
	f.Add(OpGet|0x80, []byte{StatusOK, 1, 77, 0, 0, 0, 0, 0, 0, 0})
	// Hostile seeds: replicate reply claiming MaxReplBatch records with no
	// bytes, scan reply with a huge count, batch count mismatch.
	f.Add(OpReplicate, []byte{StatusOK, 9, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0xFF, 0xFF, 0, 0})
	f.Add(OpScan, []byte{StatusOK, 0xFF, 0xFF, 0xFF, 0xFF})
	f.Add(OpBatch, []byte{StatusOK, 7, 0, 0, 0})
	// Hostile cluster replies: MOVED with an addr length past the body, a
	// map image claiming 4 GiB, and a fence reply claiming 4 G watermarks.
	f.Add(OpGet, []byte{StatusMoved, 1, 0, 0, 0, 0, 0, 0, 0, 0xFF, 0xFF})
	f.Add(OpClusterMap, []byte{StatusOK, 0xFF, 0xFF, 0xFF, 0xFF})
	f.Add(OpMigFence, []byte{StatusOK, 0xFF, 0xFF, 0xFF, 0xFF})

	f.Fuzz(func(t *testing.T, op byte, data []byte) {
		req := replyFuzzReq(op)
		rep, err := DecodeReply(req, data)
		if err != nil {
			if !errors.Is(err, ErrProto) {
				t.Fatalf("DecodeReply rejected with non-protocol error %v", err)
			}
			return
		}
		if len(rep.Recs) > MaxReplBatch || len(rep.Pairs) > MaxScanLimit {
			t.Fatalf("decoded reply exceeds protocol bounds: %d recs, %d pairs", len(rep.Recs), len(rep.Pairs))
		}
		if len(rep.Seqs) > MaxFenceShards || len(rep.Blob) > MaxFrame {
			t.Fatalf("decoded reply exceeds protocol bounds: %d seqs, %d blob bytes", len(rep.Seqs), len(rep.Blob))
		}
		var enc []byte
		if req.Op == OpBatch {
			enc = AppendBatchReply(nil, req, rep)
		} else {
			enc = AppendReply(nil, req.Op, rep)
		}
		again, err := DecodeReply(req, enc)
		if err != nil {
			t.Fatalf("accepted reply %+v does not re-decode: %v", rep, err)
		}
		if !reflect.DeepEqual(rep, again) {
			t.Fatalf("reply round trip diverged: %+v vs %+v", rep, again)
		}
	})
}

// TestReplProtoRoundTrip pins the replication ops' wire rules: request and
// reply round trips, the seq-gate envelope's validation, and the bounds on
// pull sizes.
func TestReplProtoRoundTrip(t *testing.T) {
	for _, req := range []*Request{
		{Op: OpReplicate, Shard: 3, Seq: 77, Limit: MaxReplBatch},
		{Op: OpReplAck, Shard: 0, Seq: 1},
		{Op: OpGet, Key: 5, Gate: 99},
		{Op: OpGet, Key: 5, TTLms: 10, Gate: 99},
	} {
		if got := roundTripRequest(t, req); !reflect.DeepEqual(got, req) {
			t.Errorf("round trip: got %+v, want %+v", got, req)
		}
	}

	// Gate envelope rules: GET-only, nonzero, top-level only.
	if _, err := AppendRequest(nil, &Request{Op: OpPut, Key: 1, Gate: 5}); !errors.Is(err, ErrProto) {
		t.Errorf("gate on PUT: %v", err)
	}
	if _, err := AppendRequest(nil, &Request{Op: OpBatch, Sub: []Request{{Op: OpGet, Gate: 5}}}); !errors.Is(err, ErrProto) {
		t.Errorf("gate in batch: %v", err)
	}
	bad := map[string][]byte{
		"zero gate":    {OpSeqGate, 0, 0, 0, 0, 0, 0, 0, 0, OpGet, 1, 0, 0, 0, 0, 0, 0, 0},
		"gate on put":  {OpSeqGate, 5, 0, 0, 0, 0, 0, 0, 0, OpPut, 1, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0},
		"bare gate":    {OpSeqGate, 5, 0, 0, 0, 0, 0, 0, 0},
		"double gate":  {OpSeqGate, 5, 0, 0, 0, 0, 0, 0, 0, OpSeqGate, 5, 0, 0, 0, 0, 0, 0, 0, OpGet, 1, 0, 0, 0, 0, 0, 0, 0},
		"pull limit 0": {OpReplicate, 1, 0, 0, 0, 9, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0},
	}
	for name, body := range bad {
		if _, err := DecodeRequest(body); !errors.Is(err, ErrProto) {
			t.Errorf("%s: err = %v, want ErrProto", name, err)
		}
	}

	// Pull limit above MaxReplBatch on either side of the wire.
	if _, err := AppendRequest(nil, &Request{Op: OpReplicate, Limit: MaxReplBatch + 1}); !errors.Is(err, ErrProto) {
		t.Errorf("encode oversized pull: %v", err)
	}
	// Replication ops are forbidden inside batches.
	for _, op := range []byte{OpReplicate, OpReplAck} {
		if _, err := AppendRequest(nil, &Request{Op: OpBatch, Sub: []Request{{Op: op, Limit: 1}}}); !errors.Is(err, ErrProto) {
			t.Errorf("op %d in batch: %v", op, err)
		}
	}
}

// TestDeadlineEnvelope covers the envelope's decode rules directly: TTL
// round trip, zero/oversized TTL rejection, and envelope-inside-batch
// rejection.
func TestDeadlineEnvelope(t *testing.T) {
	got := roundTripRequest(t, &Request{Op: OpPut, Key: 3, Value: 4, TTLms: 1500})
	if got.TTLms != 1500 {
		t.Fatalf("TTL round trip: got %d, want 1500", got.TTLms)
	}

	bad := map[string][]byte{
		"zero ttl":      {OpDeadline, 0, 0, 0, 0, OpStats},
		"oversized ttl": {OpDeadline, 0xFF, 0xFF, 0xFF, 0xFF, OpStats},
		"bare envelope": {OpDeadline, 10, 0, 0, 0},
		"double envelope": {OpDeadline, 10, 0, 0, 0,
			OpDeadline, 10, 0, 0, 0, OpStats},
		"envelope in batch": {OpBatch, 1, 0, 0, 0, OpDeadline, 10, 0, 0, 0, OpGet, 0, 0, 0, 0, 0, 0, 0, 0},
	}
	for name, body := range bad {
		if _, err := DecodeRequest(body); !errors.Is(err, ErrProto) {
			t.Errorf("%s: err = %v, want ErrProto", name, err)
		}
	}
	if _, err := AppendRequest(nil, &Request{Op: OpPut, TTLms: MaxTTLms + 1}); !errors.Is(err, ErrProto) {
		t.Errorf("encode oversized ttl: err = %v, want ErrProto", err)
	}
	if _, err := AppendRequest(nil, &Request{Op: OpBatch, Sub: []Request{{Op: OpGet, TTLms: 5}}}); !errors.Is(err, ErrProto) {
		t.Errorf("encode ttl in batch: err = %v, want ErrProto", err)
	}
}

// TestDecodeBoundsCounts proves the decoder validates count prefixes
// against the remaining bytes before allocating: a tiny frame claiming the
// maximum counts must be rejected, not trusted.
func TestDecodeBoundsCounts(t *testing.T) {
	batch := []byte{OpBatch, 0, 4, 0, 0} // 1024 subs claimed, 0 bytes follow
	if _, err := DecodeRequest(batch); !errors.Is(err, ErrProto) {
		t.Errorf("undersized batch: err = %v, want ErrProto", err)
	}
	// Scan reply claiming MaxScanLimit pairs with an empty body.
	scanRep := []byte{StatusOK, 0, 16, 0, 0}
	if _, err := DecodeReply(&Request{Op: OpScan, Limit: 10}, scanRep); !errors.Is(err, ErrProto) {
		t.Errorf("undersized scan reply: err = %v, want ErrProto", err)
	}
}

// TestRetryable pins the retry classification: fail-fast statuses and
// transport failures (a closed pipe included: net.Pipe reports a peer
// hang-up from SetReadDeadline) retry; protocol and internal errors do not.
func TestRetryable(t *testing.T) {
	for _, err := range []error{ErrShed, ErrUnavailable, ErrDeadline, ErrLagging, ErrReadOnly, io.ErrClosedPipe} {
		if !Retryable(err) {
			t.Errorf("%v must be retryable", err)
		}
	}
	internal := (&Reply{Status: StatusInternal}).Err()
	for _, err := range []error{nil, ErrProto, internal} {
		if Retryable(err) {
			t.Errorf("%v must not be retryable", err)
		}
	}
	if !Retryable((&Reply{Status: StatusShed}).Err()) {
		t.Error("shed reply error must be retryable")
	}
}
