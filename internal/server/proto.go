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
// Every reply, and every sub-reply of a BATCH, opens with one head —
// `[u8 OpTrace | u64 trace_id] | u8 status | [epoch u64 | u16 len | addr]`,
// the hint under StatusMoved only — and the op's payload follows on StatusOK
// alone. Two list shapes recur: pairs, `count u32 | count×(key u64, value
// u64)` (SCAN, MIG_SNAPSHOT), and records, `count u32 | count×record`
// (REPLICATE, MIG_PULL).
//
// Each shape above is written once, as a walk over a codec (wire) that
// encodes or decodes as it is told: the encoder and the decoder are the same
// code, so they cannot disagree about a byte. Every bound and shape check
// runs in both directions — AppendRequest refuses with ErrProto what
// DecodeRequest would refuse — and every ErrProto names the byte offset at
// which the walk failed.
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
// deliberately not Retryable: ResilientClient.send moves its route on
// toward Addr (a map refresh, a re-route) rather than re-ask that node.
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
	if statusError(err) {
		return true
	}
	if errors.Is(err, ErrProto) || errors.Is(err, ErrMoved) || errors.Is(err, ErrWrongEpoch) {
		return false
	}
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, io.ErrClosedPipe) {
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

// ---- The codec -----------------------------------------------------------

// wire walks one message in either direction: it encodes when dec is false,
// appending to b, and decodes when dec is true, reading b from off. Every
// primitive takes a pointer to its field — encoding reads it, decoding
// writes it — so each message shape has exactly one walk (request, body,
// reply) that is both its encoder and its decoder, and every bound and
// shape check written in a walk runs in both directions. The first failure
// sticks: a decode reads nothing after it, an encode keeps appending, so a
// reply built out of bounds goes out as built and its decoder refuses it.
type wire struct {
	dec bool
	b   []byte
	off int // decoding: the read position; encoding: where the message starts in b
	err error
}

// pos is the byte offset, within the message, that the walk has reached.
func (w *wire) pos() int {
	if w.dec {
		return w.off
	}
	return len(w.b) - w.off
}

// fail records the walk's first failure at the offset reached. Call it only
// once a check has failed — `if !ok { w.fail(...) }` — so that a passing
// check boxes no arguments.
func (w *wire) fail(format string, args ...any) {
	if w.err == nil {
		w.err = fmt.Errorf("%w: %s at offset %d", ErrProto, fmt.Sprintf(format, args...), w.pos())
	}
}

// take is the decoder's one bounds check: the next n bytes, or nil once the
// walk has failed or fewer than n remain.
func (w *wire) take(n int) []byte {
	if w.err != nil {
		return nil
	}
	if n > len(w.b)-w.off {
		w.err = fmt.Errorf("%w: truncated payload at offset %d: need %d bytes, %d remain", ErrProto, w.off, n, len(w.b)-w.off)
		return nil
	}
	w.off += n
	return w.b[w.off-n : w.off]
}

// end finishes a decode: the walk's failure, or one for bytes left over.
func (w *wire) end() error {
	if w.err == nil && w.off != len(w.b) {
		w.fail("%d trailing bytes", len(w.b)-w.off)
	}
	return w.err
}

func (w *wire) u8(v *byte) {
	if !w.dec {
		w.b = append(w.b, *v)
	} else if b := w.take(1); b != nil {
		*v = b[0]
	}
}

func (w *wire) u32(v *uint32) {
	if !w.dec {
		w.b = binary.LittleEndian.AppendUint32(w.b, *v)
	} else if b := w.take(4); b != nil {
		*v = binary.LittleEndian.Uint32(b)
	}
}

func (w *wire) u64(v *uint64) {
	if !w.dec {
		w.b = binary.LittleEndian.AppendUint64(w.b, *v)
	} else if b := w.take(8); b != nil {
		*v = binary.LittleEndian.Uint64(b)
	}
}

// flag walks a u8 boolean; any nonzero byte decodes as true.
func (w *wire) flag(v *bool) {
	var b byte
	if *v {
		b = 1
	}
	w.u8(&b)
	if w.dec {
		*v = b != 0
	}
}

// within checks that n lies in [lo, hi].
func (w *wire) within(n, lo, hi int, what string) {
	if n < lo || n > hi {
		w.fail("%s %d outside [%d, %d]", what, n, lo, hi)
	}
}

// n32 walks an int — a limit, a count or a length — as a u32 in [lo, hi].
func (w *wire) n32(v *int, lo, hi int, what string) {
	u := uint32(*v)
	w.u32(&u)
	if w.dec {
		*v = int(u)
	}
	w.within(*v, lo, hi, what)
}

// count walks a list's u32 count of n elements, at most max. Decoding, it
// also checks the count against the bytes that remain (each element takes
// at least elem), so a tiny frame claiming a huge count never earns a huge
// make(); it returns the count to allocate, 0 once the walk has failed.
func (w *wire) count(n, max, elem int, what string) int {
	w.n32(&n, 0, max, what)
	if w.dec && n*elem > len(w.b)-w.off {
		w.fail("%s count %d exceeds %d remaining bytes", what, n, len(w.b)-w.off)
	}
	if w.err != nil {
		return 0
	}
	return n
}

// blob walks `u32 len | len bytes`, len in [lo, hi]; a decoded blob is a
// copy (nil when empty).
func (w *wire) blob(v *[]byte, lo, hi int, what string) {
	n := len(*v)
	w.n32(&n, lo, hi, what)
	if !w.dec {
		w.b = append(w.b, *v...)
	} else {
		*v = append([]byte(nil), w.take(n)...)
	}
}

// str walks `u16 len | len bytes`, len in [lo, hi].
func (w *wire) str(v *string, lo, hi int, what string) {
	n := len(*v)
	if !w.dec {
		w.b = binary.LittleEndian.AppendUint16(w.b, uint16(n))
	} else if b := w.take(2); b != nil {
		n = int(binary.LittleEndian.Uint16(b))
	}
	w.within(n, lo, hi, what)
	if !w.dec {
		w.b = append(w.b, *v...)
	} else {
		*v = string(w.take(n))
	}
}

// envelope walks an optional envelope's op byte and reports whether the
// envelope is there: encoding, when the request carries its field (has);
// decoding, when the body continues with op.
func (w *wire) envelope(op byte, has bool) bool {
	if !w.dec {
		if has {
			w.b = append(w.b, op)
		}
		return has
	}
	if w.err != nil || w.off == len(w.b) || w.b[w.off] != op {
		return false
	}
	w.off++
	return true
}

// pairs walks the pair list SCAN and MIG_SNAPSHOT replies share:
// `count u32 | count×(key u64, value u64)`.
func (w *wire) pairs(v *[]KV) {
	n := w.count(len(*v), MaxScanLimit, 16, "pair list")
	if w.dec {
		*v = make([]KV, n)
	}
	for i := range *v {
		w.u64(&(*v)[i].Key)
		w.u64(&(*v)[i].Value)
	}
}

// records walks the record list REPLICATE and MIG_PULL replies share:
// `count u32 | count×record` (nil when empty).
func (w *wire) records(v *[]repl.Record) {
	n := w.count(len(*v), MaxReplBatch, repl.RecordSize, "record list")
	if w.dec && n > 0 {
		*v = make([]repl.Record, n)
	}
	for i := range *v {
		if !w.dec {
			w.b = repl.AppendRecord(w.b, (*v)[i])
		} else if b := w.take(repl.RecordSize); b != nil {
			var err error
			if (*v)[i], err = repl.DecodeRecord(b); err != nil {
				w.fail("record %d: %v", i, err)
			}
		}
	}
}

// request walks a top-level request: the deadline, trace and seq-gate
// envelopes, each when present and in that order, then the body.
func (w *wire) request(req *Request) {
	if w.envelope(OpDeadline, req.TTLms != 0) {
		w.u32(&req.TTLms)
		if req.TTLms == 0 || req.TTLms > MaxTTLms {
			w.fail("ttl %dms outside (0, %d]", req.TTLms, MaxTTLms)
		}
	}
	if w.envelope(OpTrace, req.Trace != 0) {
		w.u64(&req.Trace)
		if req.Trace == 0 {
			w.fail("zero trace id")
		}
		var flags byte
		if req.Sampled {
			flags = traceFlagSampled
		}
		w.u8(&flags)
		if flags&^traceFlagSampled != 0 {
			w.fail("unknown trace flags %#x", flags)
		}
		if w.dec {
			req.Sampled = flags == traceFlagSampled
		}
	} else if req.Sampled {
		w.fail("sampled flag without a trace id")
	}
	if w.envelope(OpSeqGate, req.Gate != 0) {
		w.u64(&req.Gate)
		if req.Gate == 0 {
			w.fail("zero seq-gate token")
		}
	}
	w.body(req, true)
	if req.Gate != 0 && req.Op != OpGet {
		w.fail("seq gate on op %d (GET only)", req.Op)
	}
}

// body walks a request without its envelopes. Inside a batch (top false)
// only GET, PUT, DELETE and SCAN — ops 1 to 4 — may appear, and without
// envelopes: a sub-request inherits its batch's.
func (w *wire) body(req *Request, top bool) {
	w.u8(&req.Op)
	if !top && (req.Op < OpGet || req.Op > OpScan) {
		w.fail("op %d may not appear inside a batch", req.Op)
	}
	if !top && (req.TTLms != 0 || req.Trace != 0 || req.Sampled || req.Gate != 0) {
		w.fail("envelope inside a batch")
	}
	switch req.Op {
	case OpPut:
		w.u64(&req.Key)
		w.u64(&req.Value)
	case OpGet, OpDelete:
		w.u64(&req.Key)
	case OpScan:
		w.u64(&req.Key)
		w.n32(&req.Limit, 0, MaxScanLimit, "scan limit")
	case OpBatch:
		n := w.count(len(req.Sub), MaxBatch, 1, "batch") // a sub-request is at least its op byte
		if w.dec {
			req.Sub = make([]Request, n)
		}
		for i := range req.Sub {
			w.body(&req.Sub[i], false)
		}
	case OpReplicate, OpReplAck:
		w.u32(&req.Shard)
		w.u64(&req.Seq)
		if req.Op == OpReplicate {
			w.n32(&req.Limit, 1, MaxReplBatch, "replicate max")
		}
	case OpMapUpdate:
		w.blob(&req.Blob, 1, MaxMapBytes, "map image length")
	case OpMigSnapshot:
		w.u32(&req.Shard)
		w.u32(&req.Slot)
		w.u64(&req.Key)
		w.n32(&req.Limit, 1, MaxScanLimit, "migration max")
	case OpMigPull:
		w.u32(&req.Shard)
		w.u32(&req.Slot)
		w.u64(&req.Seq)
		w.n32(&req.Limit, 1, MaxReplBatch, "migration max")
	case OpMigFence:
		w.u32(&req.Slot)
		w.str(&req.Addr, 1, cluster.MaxNodeAddr, "fence address length")
	case OpStats, OpCheckpoint, OpClusterMap:
		// No payload.
	default:
		w.fail("unknown op %d", req.Op)
	}
}

// reply walks one reply, or one sub-reply of a BATCH, to req: the trace
// echo, the status, under StatusMoved — the one non-OK status with a
// payload — the redirect hint, and under StatusOK the op's payload. The echo
// is there, decoding, when the top-level request was traced; encoding, when
// rep carries a trace ID.
func (w *wire) reply(rep *Reply, req *Request, traced bool) {
	if !w.dec {
		traced = rep.Trace != 0
	}
	if traced {
		echo := OpTrace
		w.u8(&echo)
		if echo != OpTrace {
			w.fail("traced request's reply lacks the trace echo")
		}
		w.u64(&rep.Trace)
		if rep.Trace == 0 {
			w.fail("zero trace id in reply echo")
		}
	}
	w.u8(&rep.Status)
	if rep.Status == StatusMoved {
		w.u64(&rep.Epoch)
		w.str(&rep.Addr, 0, cluster.MaxNodeAddr, "moved address length")
	}
	if rep.Status != StatusOK {
		return
	}
	switch req.Op {
	case OpGet:
		w.flag(&rep.Found)
		w.u64(&rep.Value)
	case OpDelete:
		w.flag(&rep.Found)
		fallthrough
	case OpPut:
		w.u32(&rep.Shard)
		w.u64(&rep.Seq)
	case OpMigSnapshot:
		w.flag(&rep.Found)
		w.u64(&rep.Seq)
		fallthrough
	case OpScan:
		w.pairs(&rep.Pairs)
	case OpMigPull:
		w.flag(&rep.Found)
		fallthrough
	case OpReplicate:
		w.u64(&rep.Seq)
		w.u64(&rep.Value)
		w.records(&rep.Recs)
	case OpBatch:
		n := len(rep.Sub)
		w.n32(&n, len(req.Sub), len(req.Sub), "batch reply entries")
		if w.err != nil {
			return // the sub-replies do not line up with the sub-requests
		}
		if w.dec {
			rep.Sub = make([]Reply, n)
		}
		for i := range rep.Sub {
			w.reply(&rep.Sub[i], &req.Sub[i], traced)
		}
	case OpStats:
		w.blob(&rep.Blob, 0, MaxFrame, "stats length")
	case OpClusterMap:
		w.blob(&rep.Blob, 0, MaxMapBytes, "map image length")
	case OpMigFence:
		n := w.count(len(rep.Seqs), MaxFenceShards, 8, "fence reply")
		if w.dec {
			rep.Seqs = make([]uint64, n)
		}
		for i := range rep.Seqs {
			w.u64(&rep.Seqs[i])
		}
	case OpCheckpoint, OpReplAck, OpMapUpdate:
		// No payload.
	}
}

// AppendRequest appends the wire form of req to buf. A request its decoder
// would refuse is refused here, with ErrProto.
func AppendRequest(buf []byte, req *Request) ([]byte, error) {
	w := wire{b: buf, off: len(buf)}
	w.request(req)
	if w.err != nil {
		return nil, w.err
	}
	return w.b, nil
}

// DecodeRequest parses one request frame body, unwrapping the optional
// top-level envelopes into Request.TTLms, Request.Trace/Sampled and
// Request.Gate.
func DecodeRequest(body []byte) (*Request, error) {
	w := wire{dec: true, b: body}
	req := new(Request)
	w.request(req)
	if err := w.end(); err != nil {
		return nil, err
	}
	return req, nil
}

// AppendReply appends the wire form of rep, the reply to an op, to buf.
func AppendReply(buf []byte, op byte, rep *Reply) []byte {
	return AppendBatchReply(buf, &Request{Op: op}, rep)
}

// AppendBatchReply appends the wire form of rep, the reply to req, to buf:
// the payloads of a BATCH's sub-replies follow its sub-requests' ops, so
// the request travels along. A reply out of bounds goes out as built (there
// is no error to return), and its decoder refuses it.
func AppendBatchReply(buf []byte, req *Request, rep *Reply) []byte {
	w := wire{b: buf, off: len(buf)}
	w.reply(rep, req, false)
	return w.b
}

// DecodeReply parses a reply frame body for a request of the given shape.
// When the request carried a trace ID, every reply (and batch sub-reply)
// must open with the trace echo.
func DecodeReply(req *Request, body []byte) (*Reply, error) {
	w := wire{dec: true, b: body}
	rep := new(Reply)
	w.reply(rep, req, req.Trace != 0)
	if err := w.end(); err != nil {
		return nil, err
	}
	return rep, nil
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
