// Package server implements nvserved: a network-facing persistent
// key-value service over the simulated runtime. The keyspace is sharded
// across N independent engine shards; each shard owns its own rt.Context,
// pmem pool, and kvstore.Store, and a single worker goroutine consumes a
// bounded request queue — so the single-threaded simulation core stays
// correct with no locking on the hot path, and shards execute truly
// independently (the simulated machine is one core per shard).
//
// The wire protocol is length-prefixed binary frames over TCP:
//
//	frame    := u32 bodyLen | body            (little-endian, bodyLen ≤ MaxFrame)
//	request  := u8 op | payload
//	reply    := u8 status | payload
//
// Operations and payloads:
//
//	GET        key u64                     → found u8, value u64
//	PUT        key u64, value u64          → shard u32, seq u64
//	DELETE     key u64                     → found u8, shard u32, seq u64
//	SCAN       start u64, limit u32        → count u32, count×(key u64, value u64)
//	BATCH      count u32, count×sub-request → count u32, count×sub-reply
//	STATS      (empty)                     → len u32, JSON bytes
//	CHECKPOINT (empty)                     → (empty)
//	REPLICATE  shard u32, after u64, max u32 → last u64, base u64, count u32, count×record
//	REPLACK    shard u32, seq u64          → (empty)
//
// PUT and DELETE replies name the shard that served the write and the
// operation-log sequence number it assigned (both zero on a shard that
// keeps no log — a standalone server). REPLICATE and REPLACK are the
// replication tier's log-shipping pull and applied-durability ack
// (repl.go); a record is repl.RecordSize bytes (internal/repl).
//
// A request may be prefixed with a deadline envelope — `u8 OpDeadline |
// u32 ttl_ms` — giving the server a time budget: requests still queued
// when the budget expires are answered with StatusDeadline instead of
// executing. Any request may additionally carry a trace envelope — `u8
// OpTrace | u64 trace_id | u8 flags` — naming the request in the tracing
// plane; the reply to a traced request is prefixed with a trace echo —
// `u8 OpTrace | u64 trace_id` — before its status byte, on every
// sub-reply of a BATCH too, so pipelined and scattered work stays
// attributable. A GET may carry a seq-gate envelope — `u8 OpSeqGate |
// u64 seq` — the read-your-writes token checked against the shard's
// applied sequence. Envelopes are only legal at the top level of a
// frame, in the order deadline, trace, gate.
//
// Every reply, and every sub-reply of a BATCH, opens with one head, encoded
// in one place (appendReplyHead) — `[u8 OpTrace | u64 trace_id] | u8 status
// | [epoch u64 | u16 len | addr]`, the hint under StatusMoved only — and the
// op's payload follows on StatusOK alone. Two list shapes recur, each with
// one encoder and one decoder: pairs, `count u32 | count×(key u64, value
// u64)` (SCAN, MIG_SNAPSHOT), and records, `count u32 | count×record`
// (REPLICATE, MIG_PULL).
//
// Besides OK, BadRequest, and Internal, replies carry the overload and
// availability statuses of the self-healing tier: StatusShed (the shard's
// bounded queue refused admission), StatusUnavailable (the shard's
// circuit breaker is open — it is recovering or wedged), and
// StatusDeadline (the request's budget expired before execution). All
// three are explicit fail-fast frames: the server answers immediately
// rather than blocking the connection, and Retryable reports which
// errors a client may safely retry for these idempotent operations.
//
// Responses are returned in request order on each connection, so clients
// may pipeline: write many frames, then read as many replies.
package server

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"

	"nvref/internal/cluster"
	"nvref/internal/repl"
)

// Op codes of the wire protocol.
const (
	OpGet        byte = 1
	OpPut        byte = 2
	OpDelete     byte = 3
	OpScan       byte = 4
	OpBatch      byte = 5
	OpStats      byte = 6
	OpCheckpoint byte = 7
	// OpDeadline is the envelope prefix carrying a request time budget; it
	// wraps exactly one top-level request and never appears inside a batch.
	OpDeadline byte = 8
	// OpReplicate is the replication pull: a replica asks one shard's
	// primary for log records after a sequence number. Payload: shard u32,
	// after-seq u64, max u32. The reply carries the shard's newest sequence
	// number, the oldest one its log can still ship, and the raw records
	// (repl.go).
	OpReplicate byte = 9
	// OpReplAck is the replica's durability acknowledgment: every record of
	// the shard up to seq is applied and logged on the replica. Payload:
	// shard u32, seq u64. The primary releases held client write acks up to
	// seq and may truncate its log through it.
	OpReplAck byte = 10
	// OpSeqGate is the read-your-writes envelope: a GET stamped with the
	// writer's last acknowledged sequence number for the key's shard. A
	// shard whose applied sequence lags the token answers StatusLagging
	// instead of serving a stale read. Legal only at the top level, only on
	// GET, and only after any OpDeadline envelope.
	OpSeqGate byte = 11
	// OpTrace is the tracing envelope: a nonzero 8-byte trace ID plus a
	// flags byte (bit 0: sampled — the server records per-stage spans for
	// the request). Legal only at the top level, after any OpDeadline and
	// before any OpSeqGate envelope. The same byte prefixes a traced
	// request's reply (trace echo: `u8 OpTrace | u64 trace_id`, no flags),
	// including every sub-reply of a BATCH and every error-status reply.
	OpTrace byte = 12
	// OpClusterMap fetches the node's current cluster map. No payload; the
	// reply is `u32 len | map image` (internal/cluster encoding). A node
	// that has no map answers StatusBadRequest.
	OpClusterMap byte = 13
	// OpMapUpdate installs a cluster map of a strictly higher epoch.
	// Payload: `u32 len | map image`. An epoch at or below the node's
	// current map is StatusWrongEpoch; a malformed image is
	// StatusBadRequest. The reply has no payload.
	OpMapUpdate byte = 14
	// OpMigSnapshot is the migration/re-seed bulk read: scan one shard's
	// live pairs from a key cursor, optionally filtered to one cluster
	// slot. Payload: `shard u32 | slot u32 | cursor u64 | max u32` (slot
	// SlotAll disables the filter). Reply: `done u8 | next u64 | count u32
	// | count×(key u64, value u64)` — resume from next until done.
	OpMigSnapshot byte = 15
	// OpMigPull is the migration catch-up read: durable log records of one
	// shard after a sequence number, filtered to one cluster slot. Payload:
	// `shard u32 | slot u32 | after u64 | max u32`. Reply: `contiguous u8 |
	// through u64 | last u64 | count u32 | count×record` — through is the
	// highest sequence examined (the next pull's cursor; records of other
	// slots advance it without being shipped), last the shard's newest
	// logged sequence, and contiguous=0 means the log no longer retains
	// after+1 (the acceptor must restart from a snapshot).
	OpMigPull byte = 16
	// OpMigFence fences one cluster slot on its current owner: the donor
	// refuses every later data operation for the slot with StatusMoved
	// toward the acceptor address in the payload, and answers with its
	// per-shard log sequences at the fence point — the watermarks the
	// acceptor's final catch-up must reach before committing the handover.
	// Payload: `slot u32 | u16 len | acceptor addr`. Reply: `count u32 |
	// count×u64`.
	OpMigFence byte = 17
)

// SlotAll in OpMigSnapshot/OpMigPull's slot field disables slot
// filtering — the whole-shard transfer a replica re-seed uses.
const SlotAll = ^uint32(0)

// traceFlagSampled marks a traced request for span recording; all other
// flag bits are reserved and must be zero.
const traceFlagSampled byte = 1 << 0

// Reply status codes.
const (
	StatusOK         byte = 0
	StatusBadRequest byte = 1
	StatusInternal   byte = 2
	// StatusShed: the shard's bounded queue refused admission within the
	// admission wait — the server is overloaded. Retryable after backoff.
	StatusShed byte = 3
	// StatusUnavailable: the shard's circuit breaker is open (the shard is
	// recovering from a crash or wedged). Retryable after backoff.
	StatusUnavailable byte = 4
	// StatusDeadline: the request's deadline envelope expired before the
	// shard executed it; the operation was not applied.
	StatusDeadline byte = 5
	// StatusLagging: the request's seq-gate token is ahead of the shard's
	// applied sequence (a replica that has not caught up). Retryable: the
	// replica is pulling, or the client should redirect to the primary.
	StatusLagging byte = 6
	// StatusReadOnly: a write was sent to a replica. Retryable so a
	// failover client rotates to the next endpoint in its list.
	StatusReadOnly byte = 7
	// StatusMoved: the key's cluster slot is owned (or being taken over)
	// by another node. Uniquely among non-OK statuses it carries a payload
	// — `epoch u64 | u16 len | owner addr` — the redirect hint a
	// cluster-routing client refreshes its map from. Deliberately not
	// Retryable: blind retry on the same node cannot succeed.
	StatusMoved byte = 8
	// StatusWrongEpoch: an OpMapUpdate carried an epoch at or below the
	// node's current map. The sender's map is stale; refresh and redrive.
	StatusWrongEpoch byte = 9
)

// MaxFrame bounds a single frame body; anything larger is a protocol
// error and the connection is dropped.
const MaxFrame = 1 << 20

// MaxScanLimit bounds how many pairs one SCAN may return (keeps the reply
// under MaxFrame).
const MaxScanLimit = 4096

// MaxBatch bounds how many sub-requests one BATCH may carry.
const MaxBatch = 1024

// MaxReplBatch bounds how many log records one OpReplicate pull may
// request or return (128 KiB of records, comfortably inside MaxFrame).
const MaxReplBatch = 4096

// MaxTTLms bounds the deadline envelope's budget (one hour): anything
// larger is a malformed frame, not a deadline.
const MaxTTLms = 3600 * 1000

// MaxMapBytes bounds an encoded cluster map image on the wire (a
// maximal map under the cluster package's own bounds stays well inside).
const MaxMapBytes = 512 << 10

// MaxFenceShards bounds an OpMigFence reply's per-shard sequence count
// (a donor cannot have more watermarks than shards, and no deployment
// runs anywhere near this many).
const MaxFenceShards = 4096

// ErrProto reports a malformed frame or payload.
var ErrProto = errors.New("server: protocol error")

// Typed errors for the fail-fast statuses, so clients can pick a retry
// policy with errors.Is.
var (
	ErrShed        = errors.New("server: overloaded, request shed")
	ErrUnavailable = errors.New("server: shard unavailable")
	ErrDeadline    = errors.New("server: deadline exceeded")
	ErrLagging     = errors.New("server: replica lags the read's seq token")
	ErrReadOnly    = errors.New("server: replica is read-only")
	// ErrMoved matches any *MovedError with errors.Is; use errors.As to
	// reach the redirect hint.
	ErrMoved = errors.New("server: key's cluster slot moved")
	// ErrWrongEpoch reports a map install refused for carrying a stale
	// epoch.
	ErrWrongEpoch = errors.New("server: stale cluster map epoch")
)

// MovedError is the decoded StatusMoved redirect: the slot's owning (or
// fencing) node and the epoch of the map the refusing node held. It is
// deliberately not Retryable — the cluster-routing client must refresh
// its map and re-route rather than hammer the wrong node.
type MovedError struct {
	Epoch uint64
	Addr  string
}

func (e *MovedError) Error() string {
	return fmt.Sprintf("server: key's cluster slot moved to %q (epoch %d)", e.Addr, e.Epoch)
}

// Is makes errors.Is(err, ErrMoved) match.
func (e *MovedError) Is(target error) bool { return target == ErrMoved }

// Retryable reports whether err is worth retrying on the same or a fresh
// connection: the explicit fail-fast statuses (shed, unavailable,
// deadline — every protocol op is idempotent, so a deadline-expired write
// may be reissued) and transport-level failures. Protocol errors and
// internal errors are not retryable.
func Retryable(err error) bool {
	if err == nil {
		return false
	}
	if errors.Is(err, ErrShed) || errors.Is(err, ErrUnavailable) || errors.Is(err, ErrDeadline) ||
		errors.Is(err, ErrLagging) || errors.Is(err, ErrReadOnly) {
		return true
	}
	if errors.Is(err, ErrProto) || errors.Is(err, ErrMoved) || errors.Is(err, ErrWrongEpoch) {
		return false
	}
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
		return true
	}
	var ne net.Error
	if errors.As(err, &ne) {
		return true
	}
	var oe *net.OpError
	return errors.As(err, &oe)
}

// KV is one key/value pair in a SCAN reply.
type KV struct {
	Key   uint64 `json:"key"`
	Value uint64 `json:"value"`
}

// Request is one decoded operation.
type Request struct {
	Op    byte
	Key   uint64
	Value uint64
	Limit int       // SCAN pair limit; REPLICATE max records
	Sub   []Request // BATCH only; sub-requests may not themselves batch
	// TTLms, when nonzero, is the deadline envelope's time budget in
	// milliseconds. Only legal on a top-level request.
	TTLms uint32
	// Shard addresses the replication ops (REPLICATE, REPLACK).
	Shard uint32
	// Seq is the REPLICATE after-sequence or the REPLACK applied sequence.
	Seq uint64
	// Gate, when nonzero, is the seq-gate envelope's read-your-writes
	// token. Only legal on a top-level GET.
	Gate uint64
	// Trace, when nonzero, is the trace envelope's request ID; Sampled
	// asks the server to record per-stage spans for it. Only legal on a
	// top-level request (sub-requests inherit the batch's trace).
	Trace   uint64
	Sampled bool
	// Slot addresses the cluster migration ops (OpMigSnapshot, OpMigPull,
	// OpMigFence); SlotAll disables the slot filter on the first two.
	Slot uint32
	// Blob is an OpMapUpdate's encoded cluster map image.
	Blob []byte
	// Addr is an OpMigFence's acceptor address (where the donor redirects
	// fenced-slot traffic).
	Addr string
}

// Reply is one decoded response.
type Reply struct {
	Status byte
	Found  bool
	Value  uint64
	Pairs  []KV
	Sub    []Reply
	Blob   []byte // STATS JSON; OpClusterMap's encoded map image
	// Shard and Seq report which shard served a write and the sequence
	// number it assigned (zero when the shard keeps no operation log). On a
	// REPLICATE reply, Seq is the shard's newest logged sequence and Value
	// the oldest one its log still retains (the next to be logged when it
	// retains none): a puller whose cursor is below Value-1 was truncated
	// past.
	Shard uint32
	Seq   uint64
	// Recs are a REPLICATE reply's shipped log records.
	Recs []repl.Record
	// Trace, when nonzero, is the trace echo: the request's trace ID,
	// carried back on the reply (and on every sub-reply of a BATCH) so a
	// pipelining client can attribute each frame.
	Trace uint64
	// Epoch and Addr are a StatusMoved reply's redirect hint: the refusing
	// node's map epoch and the slot's owner (or in-flight acceptor).
	Epoch uint64
	Addr  string
	// Seqs are an OpMigFence reply's per-shard fence-point sequences.
	Seqs []uint64
}

// Err converts a non-OK status into an error (nil when Status is OK).
func (r *Reply) Err() error {
	switch r.Status {
	case StatusOK:
		return nil
	case StatusBadRequest:
		return fmt.Errorf("%w: bad request", ErrProto)
	case StatusShed:
		return ErrShed
	case StatusUnavailable:
		return ErrUnavailable
	case StatusDeadline:
		return ErrDeadline
	case StatusLagging:
		return ErrLagging
	case StatusReadOnly:
		return ErrReadOnly
	case StatusMoved:
		return &MovedError{Epoch: r.Epoch, Addr: r.Addr}
	case StatusWrongEpoch:
		return ErrWrongEpoch
	default:
		return fmt.Errorf("server: internal error (status %d)", r.Status)
	}
}

// ---- Frame I/O -----------------------------------------------------------

// WriteFrame writes one length-prefixed frame.
func WriteFrame(w io.Writer, body []byte) error {
	if len(body) > MaxFrame {
		return fmt.Errorf("%w: frame body %d bytes exceeds %d", ErrProto, len(body), MaxFrame)
	}
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(len(body)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(body)
	return err
}

// ReadFrame reads one length-prefixed frame body.
func ReadFrame(r io.Reader) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[:])
	if n > MaxFrame {
		return nil, fmt.Errorf("%w: frame body %d bytes exceeds %d", ErrProto, n, MaxFrame)
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(r, body); err != nil {
		return nil, err
	}
	return body, nil
}

// ---- Request encoding ----------------------------------------------------

// AppendRequest appends the wire form of req to buf, emitting the
// deadline envelope first when the request carries a time budget, then the
// trace envelope when it carries a trace ID, then the seq-gate envelope
// when it carries a read-your-writes token.
func AppendRequest(buf []byte, req *Request) ([]byte, error) {
	if req.TTLms > 0 {
		if req.TTLms > MaxTTLms {
			return nil, fmt.Errorf("%w: ttl %dms exceeds %dms", ErrProto, req.TTLms, MaxTTLms)
		}
		buf = append(buf, OpDeadline)
		buf = binary.LittleEndian.AppendUint32(buf, req.TTLms)
	}
	if req.Trace != 0 {
		buf = append(buf, OpTrace)
		buf = binary.LittleEndian.AppendUint64(buf, req.Trace)
		var flags byte
		if req.Sampled {
			flags |= traceFlagSampled
		}
		buf = append(buf, flags)
	} else if req.Sampled {
		return nil, fmt.Errorf("%w: sampled flag without a trace id", ErrProto)
	}
	if req.Gate > 0 {
		if req.Op != OpGet {
			return nil, fmt.Errorf("%w: seq gate on op %d (GET only)", ErrProto, req.Op)
		}
		buf = append(buf, OpSeqGate)
		buf = binary.LittleEndian.AppendUint64(buf, req.Gate)
	}
	return appendRequestBody(buf, req)
}

// appendRequestBody appends the envelope-free wire form of req.
func appendRequestBody(buf []byte, req *Request) ([]byte, error) {
	buf = append(buf, req.Op)
	switch req.Op {
	case OpGet, OpDelete:
		buf = binary.LittleEndian.AppendUint64(buf, req.Key)
	case OpPut:
		buf = binary.LittleEndian.AppendUint64(buf, req.Key)
		buf = binary.LittleEndian.AppendUint64(buf, req.Value)
	case OpScan:
		buf = binary.LittleEndian.AppendUint64(buf, req.Key)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(req.Limit))
	case OpBatch:
		if len(req.Sub) > MaxBatch {
			return nil, fmt.Errorf("%w: batch of %d exceeds %d", ErrProto, len(req.Sub), MaxBatch)
		}
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(req.Sub)))
		for i := range req.Sub {
			sub := &req.Sub[i]
			if sub.Op == OpBatch || sub.Op == OpStats || sub.Op == OpCheckpoint ||
				sub.Op == OpReplicate || sub.Op == OpReplAck || clusterOp(sub.Op) {
				return nil, fmt.Errorf("%w: op %d may not appear inside a batch", ErrProto, sub.Op)
			}
			if sub.TTLms != 0 {
				return nil, fmt.Errorf("%w: deadline envelope inside a batch", ErrProto)
			}
			if sub.Gate != 0 {
				return nil, fmt.Errorf("%w: seq-gate envelope inside a batch", ErrProto)
			}
			if sub.Trace != 0 || sub.Sampled {
				return nil, fmt.Errorf("%w: trace envelope inside a batch", ErrProto)
			}
			var err error
			if buf, err = appendRequestBody(buf, sub); err != nil {
				return nil, err
			}
		}
	case OpReplicate:
		if req.Limit < 1 || req.Limit > MaxReplBatch {
			return nil, fmt.Errorf("%w: replicate max %d outside [1, %d]", ErrProto, req.Limit, MaxReplBatch)
		}
		buf = binary.LittleEndian.AppendUint32(buf, req.Shard)
		buf = binary.LittleEndian.AppendUint64(buf, req.Seq)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(req.Limit))
	case OpReplAck:
		buf = binary.LittleEndian.AppendUint32(buf, req.Shard)
		buf = binary.LittleEndian.AppendUint64(buf, req.Seq)
	case OpClusterMap:
		// No payload.
	case OpMapUpdate:
		if len(req.Blob) == 0 || len(req.Blob) > MaxMapBytes {
			return nil, fmt.Errorf("%w: map image of %d bytes outside (0, %d]", ErrProto, len(req.Blob), MaxMapBytes)
		}
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(req.Blob)))
		buf = append(buf, req.Blob...)
	case OpMigSnapshot, OpMigPull:
		bound, cur := MaxScanLimit, req.Key
		if req.Op == OpMigPull {
			bound, cur = MaxReplBatch, req.Seq
		}
		if req.Limit < 1 || req.Limit > bound {
			return nil, fmt.Errorf("%w: migration max %d outside [1, %d]", ErrProto, req.Limit, bound)
		}
		buf = binary.LittleEndian.AppendUint32(buf, req.Shard)
		buf = binary.LittleEndian.AppendUint32(buf, req.Slot)
		buf = binary.LittleEndian.AppendUint64(buf, cur)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(req.Limit))
	case OpMigFence:
		if len(req.Addr) == 0 || len(req.Addr) > cluster.MaxNodeAddr {
			return nil, fmt.Errorf("%w: fence address of %d bytes outside (0, %d]", ErrProto, len(req.Addr), cluster.MaxNodeAddr)
		}
		buf = binary.LittleEndian.AppendUint32(buf, req.Slot)
		buf = binary.LittleEndian.AppendUint16(buf, uint16(len(req.Addr)))
		buf = append(buf, req.Addr...)
	case OpStats, OpCheckpoint:
		// No payload.
	default:
		return nil, fmt.Errorf("%w: unknown op %d", ErrProto, req.Op)
	}
	return buf, nil
}

// clusterOp reports whether op belongs to the cluster control plane —
// none may appear inside a batch.
func clusterOp(op byte) bool {
	return op == OpClusterMap || op == OpMapUpdate ||
		op == OpMigSnapshot || op == OpMigPull || op == OpMigFence
}

// cursor is a bounds-checked little-endian reader over a frame body.
type cursor struct {
	b   []byte
	off int
}

// need is the codec's one bounds check: nil when n more bytes remain,
// otherwise an ErrProto that says where in the body the payload ran out.
func (c *cursor) need(n int) error {
	if n < 0 || n > c.remaining() {
		return c.truncated(n)
	}
	return nil
}

// truncated is need's failure, out of line so that need itself inlines.
//
//go:noinline
func (c *cursor) truncated(n int) error {
	return fmt.Errorf("%w: truncated payload at offset %d: need %d bytes, %d remain", ErrProto, c.off, n, c.remaining())
}

func (c *cursor) u8() (byte, error) {
	if err := c.need(1); err != nil {
		return 0, err
	}
	v := c.b[c.off]
	c.off++
	return v, nil
}

func (c *cursor) u16() (uint16, error) {
	if err := c.need(2); err != nil {
		return 0, err
	}
	v := binary.LittleEndian.Uint16(c.b[c.off:])
	c.off += 2
	return v, nil
}

func (c *cursor) u32() (uint32, error) {
	if err := c.need(4); err != nil {
		return 0, err
	}
	v := binary.LittleEndian.Uint32(c.b[c.off:])
	c.off += 4
	return v, nil
}

func (c *cursor) u64() (uint64, error) {
	if err := c.need(8); err != nil {
		return 0, err
	}
	v := binary.LittleEndian.Uint64(c.b[c.off:])
	c.off += 8
	return v, nil
}

func (c *cursor) bytes(n int) ([]byte, error) {
	if err := c.need(n); err != nil {
		return nil, err
	}
	v := c.b[c.off : c.off+n]
	c.off += n
	return v, nil
}

// flag reads a u8 boolean (any nonzero byte is true).
func (c *cursor) flag() (bool, error) {
	v, err := c.u8()
	return v != 0, err
}

// remaining returns how many undecoded bytes the cursor still holds.
func (c *cursor) remaining() int { return len(c.b) - c.off }

// count reads a list's u32 count prefix and validates it before the caller
// allocates anything: against the protocol bound first, then against the
// bytes that remain (each element is at least elemSize bytes), so a tiny
// frame claiming a huge count never earns a huge make().
func (c *cursor) count(max, elemSize int, what string) (int, error) {
	n, err := c.u32()
	if err != nil {
		return 0, err
	}
	if n > uint32(max) {
		return 0, fmt.Errorf("%w: %s of %d exceeds %d", ErrProto, what, n, max)
	}
	if int(n)*elemSize > c.remaining() {
		return 0, fmt.Errorf("%w: %s count %d exceeds %d remaining bytes at offset %d", ErrProto, what, n, c.remaining(), c.off)
	}
	return int(n), nil
}

// pairs decodes the pair list SCAN and MIG_SNAPSHOT replies share:
// `count u32 | count×(key u64, value u64)`.
func (c *cursor) pairs(what string) ([]KV, error) {
	n, err := c.count(MaxScanLimit, 16, what)
	if err != nil {
		return nil, err
	}
	pairs := make([]KV, n)
	for i := range pairs {
		if pairs[i].Key, err = c.u64(); err != nil {
			return nil, err
		}
		if pairs[i].Value, err = c.u64(); err != nil {
			return nil, err
		}
	}
	return pairs, nil
}

// records decodes the record list REPLICATE and MIG_PULL replies share:
// `count u32 | count×record` (nil when empty).
func (c *cursor) records(what string) ([]repl.Record, error) {
	n, err := c.count(MaxReplBatch, repl.RecordSize, what)
	if err != nil || n == 0 {
		return nil, err
	}
	recs := make([]repl.Record, n)
	for i := range recs {
		b, err := c.bytes(repl.RecordSize)
		if err != nil {
			return nil, err
		}
		if recs[i], err = repl.DecodeRecord(b); err != nil {
			return nil, fmt.Errorf("%w: record %d: %v", ErrProto, i, err)
		}
	}
	return recs, nil
}

// DecodeRequest parses one request frame body, unwrapping the optional
// top-level envelopes (deadline first, then trace, then seq-gate) into
// Request.TTLms, Request.Trace/Sampled, and Request.Gate.
func DecodeRequest(body []byte) (*Request, error) {
	c := &cursor{b: body}
	var ttl uint32
	if len(body) > 0 && body[0] == OpDeadline {
		c.off = 1
		var err error
		if ttl, err = c.u32(); err != nil {
			return nil, err
		}
		if ttl == 0 || ttl > MaxTTLms {
			return nil, fmt.Errorf("%w: ttl %dms outside (0, %d]", ErrProto, ttl, MaxTTLms)
		}
	}
	var trace uint64
	var sampled bool
	if c.off < len(body) && body[c.off] == OpTrace {
		c.off++
		var err error
		if trace, err = c.u64(); err != nil {
			return nil, err
		}
		if trace == 0 {
			return nil, fmt.Errorf("%w: zero trace id", ErrProto)
		}
		flags, err := c.u8()
		if err != nil {
			return nil, err
		}
		if flags&^traceFlagSampled != 0 {
			return nil, fmt.Errorf("%w: unknown trace flags %#x", ErrProto, flags)
		}
		sampled = flags&traceFlagSampled != 0
	}
	var gate uint64
	if c.off < len(body) && body[c.off] == OpSeqGate {
		c.off++
		var err error
		if gate, err = c.u64(); err != nil {
			return nil, err
		}
		if gate == 0 {
			return nil, fmt.Errorf("%w: zero seq-gate token", ErrProto)
		}
	}
	req, err := decodeRequest(c, true)
	if err != nil {
		return nil, err
	}
	if c.off != len(body) {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrProto, len(body)-c.off)
	}
	if gate != 0 && req.Op != OpGet {
		return nil, fmt.Errorf("%w: seq gate on op %d (GET only)", ErrProto, req.Op)
	}
	req.TTLms = ttl
	req.Gate = gate
	req.Trace = trace
	req.Sampled = sampled
	return req, nil
}

func decodeRequest(c *cursor, allowBatch bool) (*Request, error) {
	op, err := c.u8()
	if err != nil {
		return nil, err
	}
	req := &Request{Op: op}
	switch op {
	case OpGet, OpDelete:
		if req.Key, err = c.u64(); err != nil {
			return nil, err
		}
	case OpPut:
		if req.Key, err = c.u64(); err != nil {
			return nil, err
		}
		if req.Value, err = c.u64(); err != nil {
			return nil, err
		}
	case OpScan:
		if req.Key, err = c.u64(); err != nil {
			return nil, err
		}
		limit, err := c.u32()
		if err != nil {
			return nil, err
		}
		if limit > MaxScanLimit {
			return nil, fmt.Errorf("%w: scan limit %d exceeds %d", ErrProto, limit, MaxScanLimit)
		}
		req.Limit = int(limit)
	case OpBatch:
		if !allowBatch {
			return nil, fmt.Errorf("%w: nested batch", ErrProto)
		}
		n, err := c.count(MaxBatch, 1, "batch") // a sub-request is at least its op byte
		if err != nil {
			return nil, err
		}
		req.Sub = make([]Request, n)
		for i := range req.Sub {
			sub, err := decodeRequest(c, false)
			if err != nil {
				return nil, err
			}
			if sub.Op == OpStats || sub.Op == OpCheckpoint ||
				sub.Op == OpReplicate || sub.Op == OpReplAck || clusterOp(sub.Op) {
				return nil, fmt.Errorf("%w: op %d may not appear inside a batch", ErrProto, sub.Op)
			}
			req.Sub[i] = *sub
		}
	case OpReplicate, OpReplAck:
		if req.Shard, err = c.u32(); err != nil {
			return nil, err
		}
		if req.Seq, err = c.u64(); err != nil {
			return nil, err
		}
		if op == OpReplAck {
			break
		}
		max, err := c.u32()
		if err != nil {
			return nil, err
		}
		if max < 1 || max > MaxReplBatch {
			return nil, fmt.Errorf("%w: replicate max %d outside [1, %d]", ErrProto, max, MaxReplBatch)
		}
		req.Limit = int(max)
	case OpClusterMap:
		// No payload.
	case OpMapUpdate:
		n, err := c.u32()
		if err != nil {
			return nil, err
		}
		if n == 0 || n > MaxMapBytes {
			return nil, fmt.Errorf("%w: map image of %d bytes outside (0, %d]", ErrProto, n, MaxMapBytes)
		}
		blob, err := c.bytes(int(n))
		if err != nil {
			return nil, err
		}
		req.Blob = append([]byte(nil), blob...)
	case OpMigSnapshot, OpMigPull:
		if req.Shard, err = c.u32(); err != nil {
			return nil, err
		}
		if req.Slot, err = c.u32(); err != nil {
			return nil, err
		}
		cur, err := c.u64()
		if err != nil {
			return nil, err
		}
		max, err := c.u32()
		if err != nil {
			return nil, err
		}
		bound := uint32(MaxScanLimit)
		if op == OpMigPull {
			bound = MaxReplBatch
			req.Seq = cur
		} else {
			req.Key = cur
		}
		if max < 1 || max > bound {
			return nil, fmt.Errorf("%w: migration max %d outside [1, %d]", ErrProto, max, bound)
		}
		req.Limit = int(max)
	case OpMigFence:
		if req.Slot, err = c.u32(); err != nil {
			return nil, err
		}
		n, err := c.u16()
		if err != nil {
			return nil, err
		}
		if n == 0 || int(n) > cluster.MaxNodeAddr {
			return nil, fmt.Errorf("%w: fence address of %d bytes outside (0, %d]", ErrProto, n, cluster.MaxNodeAddr)
		}
		addr, err := c.bytes(int(n))
		if err != nil {
			return nil, err
		}
		req.Addr = string(addr)
	case OpStats, OpCheckpoint:
		// No payload.
	default:
		return nil, fmt.Errorf("%w: unknown op %d", ErrProto, op)
	}
	return req, nil
}

// ---- Reply encoding ------------------------------------------------------

// appendReplyHead appends what every reply and batch sub-reply opens with,
// whatever its op: the trace echo when rep carries a trace ID, the status
// byte, and under StatusMoved — the one non-OK status with a payload — the
// redirect hint. It reports whether the op's own payload follows (StatusOK).
func appendReplyHead(buf []byte, rep *Reply) ([]byte, bool) {
	if rep.Trace != 0 {
		buf = append(buf, OpTrace)
		buf = binary.LittleEndian.AppendUint64(buf, rep.Trace)
	}
	buf = append(buf, rep.Status)
	if rep.Status == StatusMoved {
		buf = binary.LittleEndian.AppendUint64(buf, rep.Epoch)
		buf = binary.LittleEndian.AppendUint16(buf, uint16(len(rep.Addr)))
		buf = append(buf, rep.Addr...)
	}
	return buf, rep.Status == StatusOK
}

func appendPairs(buf []byte, pairs []KV) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(pairs)))
	for _, kv := range pairs {
		buf = binary.LittleEndian.AppendUint64(buf, kv.Key)
		buf = binary.LittleEndian.AppendUint64(buf, kv.Value)
	}
	return buf
}

func appendRecords(buf []byte, recs []repl.Record) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(recs)))
	for _, r := range recs {
		buf = repl.AppendRecord(buf, r)
	}
	return buf
}

// AppendReply appends the wire form of rep (for operation op) to buf: the
// reply head, then — on StatusOK — the op's payload.
func AppendReply(buf []byte, op byte, rep *Reply) []byte {
	buf, ok := appendReplyHead(buf, rep)
	if !ok {
		return buf
	}
	switch op {
	case OpGet:
		buf = append(buf, boolByte(rep.Found))
		buf = binary.LittleEndian.AppendUint64(buf, rep.Value)
	case OpPut:
		buf = binary.LittleEndian.AppendUint32(buf, rep.Shard)
		buf = binary.LittleEndian.AppendUint64(buf, rep.Seq)
	case OpDelete:
		buf = append(buf, boolByte(rep.Found))
		buf = binary.LittleEndian.AppendUint32(buf, rep.Shard)
		buf = binary.LittleEndian.AppendUint64(buf, rep.Seq)
	case OpReplicate:
		buf = binary.LittleEndian.AppendUint64(buf, rep.Seq)
		buf = binary.LittleEndian.AppendUint64(buf, rep.Value)
		buf = appendRecords(buf, rep.Recs)
	case OpScan:
		buf = appendPairs(buf, rep.Pairs)
	case OpStats, OpClusterMap:
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(rep.Blob)))
		buf = append(buf, rep.Blob...)
	case OpMigSnapshot:
		buf = append(buf, boolByte(rep.Found))
		buf = binary.LittleEndian.AppendUint64(buf, rep.Seq)
		buf = appendPairs(buf, rep.Pairs)
	case OpMigPull:
		buf = append(buf, boolByte(rep.Found))
		buf = binary.LittleEndian.AppendUint64(buf, rep.Seq)
		buf = binary.LittleEndian.AppendUint64(buf, rep.Value)
		buf = appendRecords(buf, rep.Recs)
	case OpMigFence:
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(rep.Seqs)))
		for _, s := range rep.Seqs {
			buf = binary.LittleEndian.AppendUint64(buf, s)
		}
	case OpCheckpoint, OpReplAck, OpMapUpdate:
		// No payload.
	}
	return buf
}

// AppendBatchReply encodes a BATCH reply; sub-reply payloads depend on the
// sub-request ops, so the request travels along. The outer reply and every
// sub-reply open with the same head (AppendReply's), each carrying its own
// trace echo.
func AppendBatchReply(buf []byte, req *Request, rep *Reply) []byte {
	buf, ok := appendReplyHead(buf, rep)
	if !ok {
		return buf
	}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(rep.Sub)))
	for i := range rep.Sub {
		buf = AppendReply(buf, req.Sub[i].Op, &rep.Sub[i])
	}
	return buf
}

// DecodeReply parses a reply frame body for a request of the given shape.
// When the request carried a trace ID, every reply (and batch sub-reply)
// must open with the trace echo.
func DecodeReply(req *Request, body []byte) (*Reply, error) {
	c := &cursor{b: body}
	rep, err := decodeReply(c, req, req.Trace != 0)
	if err != nil {
		return nil, err
	}
	if c.off != len(body) {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrProto, len(body)-c.off)
	}
	return rep, nil
}

func decodeReply(c *cursor, req *Request, traced bool) (*Reply, error) {
	var trace uint64
	if traced {
		op, err := c.u8()
		if err != nil {
			return nil, err
		}
		if op != OpTrace {
			return nil, fmt.Errorf("%w: traced request's reply lacks the trace echo", ErrProto)
		}
		if trace, err = c.u64(); err != nil {
			return nil, err
		}
		if trace == 0 {
			return nil, fmt.Errorf("%w: zero trace id in reply echo", ErrProto)
		}
	}
	status, err := c.u8()
	if err != nil {
		return nil, err
	}
	rep := &Reply{Status: status, Trace: trace}
	if status == StatusMoved {
		if rep.Epoch, err = c.u64(); err != nil {
			return nil, err
		}
		n, err := c.u16()
		if err != nil {
			return nil, err
		}
		if int(n) > cluster.MaxNodeAddr {
			return nil, fmt.Errorf("%w: moved address of %d bytes exceeds %d", ErrProto, n, cluster.MaxNodeAddr)
		}
		addr, err := c.bytes(int(n))
		if err != nil {
			return nil, err
		}
		rep.Addr = string(addr)
		return rep, nil
	}
	if status != StatusOK {
		return rep, nil
	}
	switch req.Op {
	case OpGet:
		if rep.Found, err = c.flag(); err != nil {
			return nil, err
		}
		if rep.Value, err = c.u64(); err != nil {
			return nil, err
		}
	case OpPut:
		if rep.Shard, err = c.u32(); err != nil {
			return nil, err
		}
		if rep.Seq, err = c.u64(); err != nil {
			return nil, err
		}
	case OpDelete:
		if rep.Found, err = c.flag(); err != nil {
			return nil, err
		}
		if rep.Shard, err = c.u32(); err != nil {
			return nil, err
		}
		if rep.Seq, err = c.u64(); err != nil {
			return nil, err
		}
	case OpReplicate:
		if rep.Seq, err = c.u64(); err != nil {
			return nil, err
		}
		if rep.Value, err = c.u64(); err != nil {
			return nil, err
		}
		if rep.Recs, err = c.records("replicate reply"); err != nil {
			return nil, err
		}
	case OpScan:
		if rep.Pairs, err = c.pairs("scan reply"); err != nil {
			return nil, err
		}
	case OpBatch:
		n, err := c.u32()
		if err != nil {
			return nil, err
		}
		if int(n) != len(req.Sub) {
			return nil, fmt.Errorf("%w: batch reply has %d entries, request had %d", ErrProto, n, len(req.Sub))
		}
		rep.Sub = make([]Reply, n)
		for i := range rep.Sub {
			sub, err := decodeReply(c, &req.Sub[i], traced)
			if err != nil {
				return nil, err
			}
			rep.Sub[i] = *sub
		}
	case OpStats, OpClusterMap:
		n, err := c.u32()
		if err != nil {
			return nil, err
		}
		if req.Op == OpClusterMap && n > MaxMapBytes {
			return nil, fmt.Errorf("%w: map image of %d bytes exceeds %d", ErrProto, n, MaxMapBytes)
		}
		blob, err := c.bytes(int(n))
		if err != nil {
			return nil, err
		}
		rep.Blob = append([]byte(nil), blob...)
	case OpMigSnapshot:
		if rep.Found, err = c.flag(); err != nil {
			return nil, err
		}
		if rep.Seq, err = c.u64(); err != nil {
			return nil, err
		}
		if rep.Pairs, err = c.pairs("snapshot reply"); err != nil {
			return nil, err
		}
	case OpMigPull:
		if rep.Found, err = c.flag(); err != nil {
			return nil, err
		}
		if rep.Seq, err = c.u64(); err != nil {
			return nil, err
		}
		if rep.Value, err = c.u64(); err != nil {
			return nil, err
		}
		if rep.Recs, err = c.records("migration pull reply"); err != nil {
			return nil, err
		}
	case OpMigFence:
		n, err := c.count(MaxFenceShards, 8, "fence reply")
		if err != nil {
			return nil, err
		}
		rep.Seqs = make([]uint64, n)
		for i := range rep.Seqs {
			if rep.Seqs[i], err = c.u64(); err != nil {
				return nil, err
			}
		}
	case OpCheckpoint, OpReplAck, OpMapUpdate:
		// No payload.
	}
	return rep, nil
}

func boolByte(b bool) byte {
	if b {
		return 1
	}
	return 0
}

// ---- Sharding ------------------------------------------------------------

// ShardFor maps a key to one of n shards with a splitmix64-style mixer, so
// adjacent keys spread across shards and zipfian hot keys land on
// independently chosen shards.
func ShardFor(key uint64, n int) int {
	z := key + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return int(z % uint64(n))
}
