package server

import (
	"errors"
	"fmt"
	"net"
	"sync/atomic"
	"time"

	"nvref/internal/fault"
)

// RetryPolicy parameterizes ResilientClient: how many attempts an
// operation gets, how backoff grows between them, and the deadlines each
// attempt carries.
type RetryPolicy struct {
	// MaxAttempts is the total number of attempts per operation, the first
	// included (default 8).
	MaxAttempts int
	// BaseBackoff is the backoff before the first retry; it doubles per
	// retry (default 2ms).
	BaseBackoff time.Duration
	// MaxBackoff caps the grown backoff (default 250ms).
	MaxBackoff time.Duration
	// Timeout is the per-attempt I/O deadline on the underlying
	// connection (default 2s).
	Timeout time.Duration
	// Seed drives the backoff jitter deterministically (default 1).
	Seed uint64
}

func (p *RetryPolicy) fillDefaults() {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 8
	}
	if p.BaseBackoff <= 0 {
		p.BaseBackoff = 2 * time.Millisecond
	}
	if p.MaxBackoff <= 0 {
		p.MaxBackoff = 250 * time.Millisecond
	}
	if p.Timeout <= 0 {
		p.Timeout = 2 * time.Second
	}
	if p.Seed == 0 {
		p.Seed = 1
	}
}

// backoff returns the sleep before retry number retry (1-based):
// exponential growth capped at MaxBackoff, with equal jitter (half fixed,
// half uniform) so synchronized clients spread out instead of retrying in
// lockstep.
func (p *RetryPolicy) backoff(retry int, rng *fault.Rand) time.Duration {
	d := p.BaseBackoff << uint(retry-1)
	if d <= 0 || d > p.MaxBackoff {
		d = p.MaxBackoff
	}
	half := d / 2
	if half <= 0 {
		return d
	}
	return half + time.Duration(rng.Intn(int(half)))
}

// ResilientClient wraps Client with the client half of the self-healing
// tier: per-attempt I/O deadlines, retry with exponential backoff and
// jitter for the retryable failures (shed, unavailable, deadline, and
// transport errors — every protocol operation is idempotent), and
// automatic re-dial when the connection itself breaks. Given several
// endpoints (DialResilientList) it also fails over: a dead, unavailable,
// or read-only endpoint rotates the client to the next one, which is how
// writers find the promoted replica after a primary dies. Like Client it
// is not safe for concurrent use; open one per goroutine.
type ResilientClient struct {
	calls
	addrs    []string
	cur      int
	policy   RetryPolicy
	dialConn func(addr string) (net.Conn, error)
	c        *Client
	rng      *fault.Rand

	// Read-your-writes state: the newest write sequence seen per shard,
	// stamped onto GetRYW reads, and the shard count learned lazily.
	tokens     map[uint32]uint64
	shardCount int

	retries   atomic.Uint64
	redials   atomic.Uint64
	failovers atomic.Uint64
}

// DialResilient connects a ResilientClient to an nvserved instance. The
// initial dial is itself retried under the policy.
func DialResilient(addr string, policy RetryPolicy) (*ResilientClient, error) {
	return DialResilientFunc(addr, policy, func(addr string) (net.Conn, error) {
		return net.Dial("tcp", addr)
	})
}

// DialResilientFunc is DialResilient with a custom transport, such as the
// simulator's fault-injecting sim.Net.FaultyDialer.
func DialResilientFunc(addr string, policy RetryPolicy, dialConn func(addr string) (net.Conn, error)) (*ResilientClient, error) {
	return DialResilientList([]string{addr}, policy, dialConn)
}

// DialResilientList is DialResilientFunc over a failover list: operations
// use the current endpoint and rotate to the next on dial failure,
// transport failure, or an endpoint that answers UNAVAILABLE, READONLY,
// or LAGGING. A nil dialConn uses plain TCP.
func DialResilientList(addrs []string, policy RetryPolicy, dialConn func(addr string) (net.Conn, error)) (*ResilientClient, error) {
	if len(addrs) == 0 {
		return nil, errors.New("server: no endpoints")
	}
	if dialConn == nil {
		dialConn = func(addr string) (net.Conn, error) { return net.Dial("tcp", addr) }
	}
	policy.fillDefaults()
	r := &ResilientClient{
		addrs:    addrs,
		policy:   policy,
		dialConn: dialConn,
		rng:      fault.NewRand(policy.Seed),
		tokens:   make(map[uint32]uint64),
	}
	r.calls = calls{r.send}
	if _, err := r.client(); err != nil {
		// With one endpoint, failing fast surfaces config errors; with a
		// failover list, the first operation's retry loop keeps rotating.
		if len(addrs) == 1 {
			return nil, err
		}
		r.rotate()
	}
	return r, nil
}

// Retries returns how many operation attempts were retried.
func (r *ResilientClient) Retries() uint64 { return r.retries.Load() }

// Redials returns how many replacement connections were dialed (the first
// dial excluded).
func (r *ResilientClient) Redials() uint64 { return r.redials.Load() }

// Failovers returns how many times the client rotated to another
// endpoint in its list.
func (r *ResilientClient) Failovers() uint64 { return r.failovers.Load() }

// rotate advances to the next endpoint (a no-op with a single one).
func (r *ResilientClient) rotate() {
	if len(r.addrs) < 2 {
		return
	}
	r.dropConn()
	r.cur = (r.cur + 1) % len(r.addrs)
	r.failovers.Add(1)
}

// Close closes the current connection, if any.
func (r *ResilientClient) Close() error {
	if r.c == nil {
		return nil
	}
	err := r.c.Close()
	r.c = nil
	return err
}

func (r *ResilientClient) client() (*Client, error) {
	if r.c != nil {
		return r.c, nil
	}
	conn, err := r.dialConn(r.addrs[r.cur])
	if err != nil {
		return nil, err
	}
	c := NewClient(conn)
	c.SetTimeout(r.policy.Timeout)
	r.c = c
	return c, nil
}

// dropConn discards the connection after a transport-level failure; the
// next attempt re-dials. Status errors (shed/unavailable/deadline) keep
// the connection: a full reply frame was read, so the stream is in sync.
func (r *ResilientClient) dropConn() {
	if r.c != nil {
		_ = r.c.Close()
		r.c = nil
		r.redials.Add(1)
	}
}

// statusError reports whether err is one of the explicit fail-fast reply
// statuses (as opposed to a transport failure).
func statusError(err error) bool {
	return errors.Is(err, ErrShed) || errors.Is(err, ErrUnavailable) || errors.Is(err, ErrDeadline) ||
		errors.Is(err, ErrLagging) || errors.Is(err, ErrReadOnly)
}

// rotateError reports whether err means this endpoint is the wrong one to
// keep talking to: dead-ish (unavailable), demoted/replica (read-only),
// or behind the client's writes (lagging).
func rotateError(err error) bool {
	return errors.Is(err, ErrUnavailable) || errors.Is(err, ErrReadOnly) || errors.Is(err, ErrLagging)
}

// ErrIndeterminate marks a failed operation that may nonetheless have taken
// effect: an attempt of it reached a server that may have applied it before
// the failure hid the outcome. A ResilientClient or ClusterClient error that
// does not wrap it is a definite failure — no attempt was applied. This is
// the pending operation of durable linearizability: one a failure cut short
// may or may not be in the history.
var ErrIndeterminate = errors.New("server: outcome indeterminate")

// refused reports a reply that names why the server did not run the
// request: it answered before touching the data path. UNAVAILABLE is not
// among them, because a primary also answers it for a write it applied but
// could not confirm on its replica.
func refused(err error) bool {
	return errors.Is(err, ErrShed) || errors.Is(err, ErrDeadline) || errors.Is(err, ErrLagging) ||
		errors.Is(err, ErrReadOnly) || errors.Is(err, ErrMoved) || errors.Is(err, ErrWrongEpoch) ||
		errors.Is(err, ErrProto)
}

// indeterminate wraps err in ErrIndeterminate when some attempt may have
// taken effect and err does not already say so.
func indeterminate(maybe bool, err error) error {
	if !maybe || errors.Is(err, ErrIndeterminate) {
		return err
	}
	return fmt.Errorf("%w: %w", ErrIndeterminate, err)
}

// send runs req under the retry policy, rotating endpoints on failures that
// implicate the endpoint rather than the request. A batch whose reply
// carries a retryable sub-reply status is retried whole (sub-requests are
// idempotent, so re-running already-applied ones is safe). Every attempt
// sends a fresh copy of req, so the envelopes one stamps are not the next's.
//
// A failed send wraps ErrIndeterminate when any attempt may have applied
// req: its frame went out whole and the reply, if one came, was not a
// refusal — or it was a BATCH reply, whose other sub-requests ran. A failed
// dial or a failed write is a definite refusal: a Write errs only when it
// wrote less than asked, so no whole frame reached the server.
func (r *ResilientClient) send(req *Request) (*Reply, error) {
	var last error
	maybe := false
	for attempt := 1; attempt <= r.policy.MaxAttempts; attempt++ {
		if attempt > 1 {
			r.retries.Add(1)
			time.Sleep(r.policy.backoff(attempt-1, r.rng))
		}
		c, err := r.client()
		if err != nil {
			last = err // dial failures are always retryable
			r.rotate()
			continue
		}
		// Client.roundTrip's steps, apart: the error must tell whether the
		// frame went out whole.
		try := *req
		sent := false
		if err = c.write(&try); err == nil {
			err = c.bw.Flush()
		}
		var rep *Reply
		if err == nil {
			sent = true
			rep, err = c.recv(&try)
		}
		// From here an error is a BATCH sub-reply's: the other sub-requests ran.
		replied := err == nil
		for i := 0; err == nil && i < len(rep.Sub); i++ {
			if se := rep.Sub[i].Err(); Retryable(se) {
				err = se
			}
		}
		if err == nil {
			return rep, nil
		}
		last = err
		maybe = maybe || replied || sent && !refused(err)
		if !Retryable(err) {
			return nil, indeterminate(maybe, err)
		}
		if !statusError(err) {
			r.dropConn()
			r.rotate()
		} else if rotateError(err) {
			r.rotate()
		}
	}
	return nil, indeterminate(maybe, fmt.Errorf("server: giving up after %d attempts: %w", r.policy.MaxAttempts, last))
}

// PutRYW is Put keeping the read-your-writes token: the write's assigned
// sequence is remembered for its shard, and GetRYW stamps reads with it
// so a lagging replica refuses to serve older state.
func (r *ResilientClient) PutRYW(key, value uint64) (shard uint32, seq uint64, err error) {
	shard, seq, err = r.PutSeq(key, value)
	if err == nil && seq > r.tokens[shard] {
		r.tokens[shard] = seq
	}
	return shard, seq, err
}

// GetRYW reads a key gated on the newest write token this client holds
// for the key's shard: a replica that has not applied that far answers
// LAGGING, which rotates the client toward an endpoint that has.
func (r *ResilientClient) GetRYW(key uint64) (uint64, bool, error) {
	return r.GetAt(key, r.gateFor(key))
}

// gateFor picks the token for key's shard. The shard count (needed to map
// key → shard) is learned lazily from STATS; until it is known, the
// maximum token across shards is used — over-conservative but still a
// correct read-your-writes bound.
func (r *ResilientClient) gateFor(key uint64) uint64 {
	if len(r.tokens) == 0 {
		return 0
	}
	if r.shardCount == 0 {
		if st, err := r.Stats(); err == nil && st.Shards > 0 {
			r.shardCount = st.Shards
		}
	}
	if r.shardCount > 0 {
		return r.tokens[uint32(ShardFor(key, r.shardCount))]
	}
	var max uint64
	for _, seq := range r.tokens {
		if seq > max {
			max = seq
		}
	}
	return max
}
