package server

import (
	"bufio"
	"encoding/json"
	"net"
	"time"

	"nvref/internal/cluster"
	"nvref/internal/obs"
	"nvref/internal/repl"
)

// Client is a synchronous nvserved client over one TCP connection. It is
// not safe for concurrent use; open one Client per goroutine (as the
// closed-loop load generator does), or use Pipeline to keep many requests
// in flight on a single connection.
//
// By default every network operation carries an I/O deadline (DefaultTimeout)
// so a dead peer fails the call instead of hanging it forever; tune it with
// SetTimeout. For fail-fast behavior on the server side too, SetTTL attaches
// a deadline envelope to every request.
type Client struct {
	calls
	conn    net.Conn
	br      *bufio.Reader
	bw      *bufio.Writer
	buf     []byte
	timeout time.Duration
	ttl     uint32
	sampler *traceSampler
	spans   *obs.SpanRecorder
}

// DefaultTimeout is the I/O deadline applied to each send and receive
// unless SetTimeout overrides it.
const DefaultTimeout = 30 * time.Second

// Dial connects to an nvserved instance.
func Dial(addr string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return NewClient(conn), nil
}

// NewClient wraps an established connection (use it to interpose fault
// injectors or custom transports).
func NewClient(conn net.Conn) *Client {
	c := &Client{
		conn:    conn,
		br:      bufio.NewReader(conn),
		bw:      bufio.NewWriter(conn),
		timeout: DefaultTimeout,
	}
	c.calls = calls{c.roundTrip}
	return c
}

// SetTimeout sets the per-operation I/O deadline (0 disables deadlines —
// the pre-resilience behavior of blocking forever on a dead peer).
func (c *Client) SetTimeout(d time.Duration) { c.timeout = d }

// SetTTL attaches a deadline envelope of ttlMS milliseconds to every
// subsequent request (0 removes it): the server answers StatusDeadline
// instead of executing an operation still queued past its budget.
func (c *Client) SetTTL(ttlMS uint32) { c.ttl = ttlMS }

// SetTraceSample makes the client attach a sampled trace envelope to
// roughly rate (in (0, 1]) of subsequent requests that do not already
// carry one; rate <= 0 disables client-side sampling. The seed spreads
// trace IDs across clients so concurrent workers never collide.
func (c *Client) SetTraceSample(rate float64, seed uint64) {
	c.sampler = newTraceSampler(rate, seed)
}

// SetSpanRecorder attaches a recorder for client_send spans of sampled
// requests (nil disables client-side span recording; the envelope is
// still sent, so server-side spans keep their trace ID).
func (c *Client) SetSpanRecorder(r *obs.SpanRecorder) { c.spans = r }

// Close closes the connection.
func (c *Client) Close() error { return c.conn.Close() }

// write is the client's one send path: it stamps req with the client's
// deadline envelope and sampled trace, encodes it into the reusable buffer,
// and frames it into the connection's write buffer. A sampled request's
// client_send span covers exactly that; the flush, which a pipeline shares
// between requests, is the caller's.
func (c *Client) write(req *Request) error {
	if c.ttl > 0 && req.TTLms == 0 {
		req.TTLms = c.ttl
	}
	if req.Trace == 0 && c.sampler != nil {
		if id, ok := c.sampler.next(); ok {
			req.Trace, req.Sampled = id, true
		}
	}
	var start time.Time
	traced := req.Sampled && c.spans != nil
	if traced {
		start = time.Now()
	}
	body, err := AppendRequest(c.buf[:0], req)
	if err != nil {
		return err
	}
	c.buf = body[:0]
	if c.timeout > 0 {
		if err := c.conn.SetWriteDeadline(time.Now().Add(c.timeout)); err != nil {
			return err
		}
	}
	if err := WriteFrame(c.bw, body); err != nil {
		return err
	}
	if traced {
		c.spans.RecordTimed(req.Trace, StageClientSend, -1, opName(req.Op), req.Key, start, time.Since(start))
	}
	return nil
}

func (c *Client) recv(req *Request) (*Reply, error) {
	if c.timeout > 0 {
		if err := c.conn.SetReadDeadline(time.Now().Add(c.timeout)); err != nil {
			return nil, err
		}
	}
	body, err := ReadFrame(c.br)
	if err != nil {
		return nil, err
	}
	rep, err := DecodeReply(req, body)
	if err != nil {
		return nil, err
	}
	return rep, rep.Err()
}

func (c *Client) roundTrip(req *Request) (*Reply, error) {
	if err := c.write(req); err != nil {
		return nil, err
	}
	if err := c.bw.Flush(); err != nil {
		return nil, err
	}
	return c.recv(req)
}

// Do sends an arbitrary request and waits for its reply — the escape
// hatch for callers that need full control of the envelope fields (an
// explicit trace ID, a gate plus a deadline, a hand-built batch).
func (c *Client) Do(req *Request) (*Reply, error) { return c.roundTrip(req) }

// calls is the typed client API, written once over a send function: Client
// sends on its connection, ResilientClient and ClusterClient through the one
// attempt loop, ResilientClient.send, along their routes.
type calls struct {
	send func(*Request) (*Reply, error)
}

// Get reads a key.
func (c calls) Get(key uint64) (uint64, bool, error) { return c.GetAt(key, 0) }

// GetAt reads a key with a read-your-writes token: a server whose applied
// sequence for the key's shard is behind gate answers ErrLagging instead
// of a stale value. gate 0 is a plain Get.
func (c calls) GetAt(key, gate uint64) (uint64, bool, error) {
	rep, err := c.send(&Request{Op: OpGet, Key: key, Gate: gate})
	if err != nil {
		return 0, false, err
	}
	return rep.Value, rep.Found, nil
}

// Put inserts or updates a key. PUT is idempotent, so a retry after an
// ambiguous transport failure is safe: re-applying the same (key, value)
// converges to the same state.
func (c calls) Put(key, value uint64) error {
	_, _, err := c.PutSeq(key, value)
	return err
}

// PutSeq is Put returning the serving shard and the operation-log
// sequence number it assigned (both zero on a standalone server) — the
// read-your-writes token a client stamps later GETs with.
func (c calls) PutSeq(key, value uint64) (shard uint32, seq uint64, err error) {
	rep, err := c.send(&Request{Op: OpPut, Key: key, Value: value})
	if err != nil {
		return 0, 0, err
	}
	return rep.Shard, rep.Seq, nil
}

// Delete removes a key, reporting whether it was present. Behind a retry
// loop, found reports presence on the attempt that succeeded — after a
// retry that raced an earlier ambiguous attempt it may be false even though
// this call performed the delete.
func (c calls) Delete(key uint64) (bool, error) {
	rep, err := c.send(&Request{Op: OpDelete, Key: key})
	if err != nil {
		return false, err
	}
	return rep.Found, nil
}

// Scan reads up to limit pairs in ascending key order starting at the
// smallest key >= start, merged across every shard.
func (c calls) Scan(start uint64, limit int) ([]KV, error) {
	rep, err := c.send(&Request{Op: OpScan, Key: start, Limit: limit})
	if err != nil {
		return nil, err
	}
	return rep.Pairs, nil
}

// Batch executes the sub-requests as one frame; the server scatters them
// to their shards and gathers replies back into request order.
func (c calls) Batch(sub []Request) ([]Reply, error) {
	rep, err := c.send(&Request{Op: OpBatch, Sub: sub})
	if err != nil {
		return nil, err
	}
	return rep.Sub, nil
}

// Stats fetches the server's statistics document.
func (c calls) Stats() (*Stats, error) {
	rep, err := c.send(&Request{Op: OpStats})
	if err != nil {
		return nil, err
	}
	var st Stats
	if err := json.Unmarshal(rep.Blob, &st); err != nil {
		return nil, err
	}
	return &st, nil
}

// Checkpoint forces a synchronous durability barrier on every shard.
func (c calls) Checkpoint() error {
	_, err := c.send(&Request{Op: OpCheckpoint})
	return err
}

// ClusterMap fetches the node's current cluster map image (decode with
// cluster.Decode). A node with no map answers ErrBadRequest-class status.
func (c calls) ClusterMap() ([]byte, error) {
	rep, err := c.send(&Request{Op: OpClusterMap})
	if err != nil {
		return nil, err
	}
	return rep.Blob, nil
}

// Pull fetches up to max operation-log records of one shard after
// sequence number `after`, plus the shard's newest logged sequence — the
// log-shipping read a follower drives.
func (c *Client) Pull(shard uint32, after uint64, max int) (last uint64, recs []repl.Record, err error) {
	rep, err := c.roundTrip(&Request{Op: OpReplicate, Shard: shard, Seq: after, Limit: max})
	if err != nil {
		return 0, nil, err
	}
	return rep.Seq, rep.Recs, nil
}

// ReplAck tells a primary that every record of the shard up to seq is
// applied and logged on this replica; the primary releases held write
// acks and may truncate its log through seq.
func (c *Client) ReplAck(shard uint32, seq uint64) error {
	_, err := c.roundTrip(&Request{Op: OpReplAck, Shard: shard, Seq: seq})
	return err
}

// MapUpdate installs a cluster map on the node; a map at or below the
// node's current epoch answers ErrWrongEpoch.
func (c *Client) MapUpdate(m *cluster.Map) error {
	_, err := c.roundTrip(&Request{Op: OpMapUpdate, Blob: m.Encode()})
	return err
}

// MigSnapshot reads one bulk-transfer chunk: up to max live pairs of the
// shard from the key cursor, filtered to the cluster slot (SlotAll: no
// filter). done means the shard is exhausted; otherwise resume from next.
func (c *Client) MigSnapshot(shard, slot uint32, cursor uint64, max int) (done bool, next uint64, pairs []KV, err error) {
	rep, err := c.roundTrip(&Request{Op: OpMigSnapshot, Shard: shard, Slot: slot, Key: cursor, Limit: max})
	if err != nil {
		return false, 0, nil, err
	}
	return rep.Found, rep.Seq, rep.Pairs, nil
}

// MigPull reads up to max durable log records of the shard after the
// cursor, filtered to the cluster slot. through is the highest sequence
// examined (the next cursor), last the shard's newest logged sequence;
// contiguous=false means the log truncated past the cursor and the
// caller must restart from a snapshot.
func (c *Client) MigPull(shard, slot uint32, after uint64, max int) (contiguous bool, through, last uint64, recs []repl.Record, err error) {
	rep, err := c.roundTrip(&Request{Op: OpMigPull, Shard: shard, Slot: slot, Seq: after, Limit: max})
	if err != nil {
		return false, 0, 0, nil, err
	}
	return rep.Found, rep.Seq, rep.Value, rep.Recs, nil
}

// MigFence fences one cluster slot on its owner toward the acceptor
// address and returns the per-shard fence sequences the final catch-up
// must reach.
func (c *Client) MigFence(slot uint32, acceptor string) ([]uint64, error) {
	rep, err := c.roundTrip(&Request{Op: OpMigFence, Slot: slot, Addr: acceptor})
	if err != nil {
		return nil, err
	}
	return rep.Seqs, nil
}

// Pipeline queues requests without waiting for replies; Run flushes them
// as a burst of frames and reads the replies in order. This exercises the
// protocol's pipelining: many requests in flight on one connection.
type Pipeline struct {
	c    *Client
	reqs []*Request
	err  error
}

// Pipeline starts an empty pipeline on the connection.
func (c *Client) Pipeline() *Pipeline { return &Pipeline{c: c} }

func (p *Pipeline) add(req *Request) {
	if p.err != nil {
		return
	}
	if p.err = p.c.write(req); p.err == nil {
		p.reqs = append(p.reqs, req)
	}
}

// Get queues a GET.
func (p *Pipeline) Get(key uint64) { p.add(&Request{Op: OpGet, Key: key}) }

// Put queues a PUT.
func (p *Pipeline) Put(key, value uint64) { p.add(&Request{Op: OpPut, Key: key, Value: value}) }

// Delete queues a DELETE.
func (p *Pipeline) Delete(key uint64) { p.add(&Request{Op: OpDelete, Key: key}) }

// Scan queues a SCAN.
func (p *Pipeline) Scan(start uint64, limit int) {
	p.add(&Request{Op: OpScan, Key: start, Limit: limit})
}

// Pull queues a replication pull. Without a deadline envelope it is
// answered at once, records or none; the follower's own pulls carry one
// and park on the primary (see follower.serveConn).
func (p *Pipeline) Pull(shard uint32, after uint64, max int) {
	p.add(&Request{Op: OpReplicate, Shard: shard, Seq: after, Limit: max})
}

// ReplAck queues a replication acknowledgment.
func (p *Pipeline) ReplAck(shard uint32, seq uint64) {
	p.add(&Request{Op: OpReplAck, Shard: shard, Seq: seq})
}

// Run flushes the queued frames and collects every reply, in order.
func (p *Pipeline) Run() ([]Reply, error) {
	if p.err != nil {
		return nil, p.err
	}
	if p.c.timeout > 0 {
		if err := p.c.conn.SetWriteDeadline(time.Now().Add(p.c.timeout)); err != nil {
			return nil, err
		}
	}
	if err := p.c.bw.Flush(); err != nil {
		return nil, err
	}
	out := make([]Reply, 0, len(p.reqs))
	for _, req := range p.reqs {
		rep, err := p.c.recv(req)
		if err != nil {
			return nil, err
		}
		out = append(out, *rep)
	}
	p.reqs = p.reqs[:0]
	return out, nil
}
