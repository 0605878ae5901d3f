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
// endpoints it also fails over: a dead, unavailable, or read-only endpoint
// rotates the client to the next one, which is how writers find the
// promoted replica after a primary dies. Its send is also ClusterClient's
// attempt loop: a route names each attempt's endpoint — the failover list
// here, a slot's owner under ClusterClient. Like Client it is not safe for
// concurrent use; open one per goroutine.
type ResilientClient struct {
	calls
	policy   RetryPolicy
	dialConn func(addr string) (net.Conn, error)
	conns    map[string]*Client
	rng      *fault.Rand

	retries   atomic.Uint64
	redials   atomic.Uint64
	failovers atomic.Uint64
}

// route picks the endpoint of each attempt of ResilientClient.send: target
// names it for req, and moveOn tells the route that the endpoint failed the
// attempt — with a MOVED redirect's address as hint, "" otherwise.
type route interface {
	target(req *Request) string
	moveOn(hint string)
}

// failover is the endpoint-list route: the current endpoint until it fails,
// then the next one.
type failover struct {
	r     *ResilientClient
	addrs []string
	cur   int
}

func (f *failover) target(*Request) string { return f.addrs[f.cur] }

// moveOn drops the current endpoint's connection and rotates to the next
// (a no-op with a single endpoint).
func (f *failover) moveOn(string) {
	if len(f.addrs) < 2 {
		return
	}
	f.r.dropConn(f.addrs[f.cur])
	f.cur = (f.cur + 1) % len(f.addrs)
	f.r.failovers.Add(1)
}

// pinned is the one-node route: every attempt goes to the same address.
type pinned string

func (p pinned) target(*Request) string { return string(p) }
func (pinned) moveOn(string)            {}

// DialResilient connects a ResilientClient to an nvserved endpoint list:
// operations use the current endpoint and rotate to the next on dial
// failure, transport failure, or an endpoint that answers UNAVAILABLE,
// READONLY, LAGGING or MOVED. dial, when non-nil, replaces the TCP dialer
// (the simulator passes its sim.Net.FaultyDialer). A single endpoint fails
// fast on its first dial; with a list, the first operation's retry loop
// keeps rotating.
func DialResilient(addrs []string, policy RetryPolicy, dial func(addr string) (net.Conn, error)) (*ResilientClient, error) {
	if len(addrs) == 0 {
		return nil, errors.New("server: no endpoints")
	}
	r := newResilient(policy, dial)
	f := &failover{r: r, addrs: addrs}
	r.calls = r.via(f)
	if _, err := r.client(addrs[0]); err != nil {
		if len(addrs) == 1 {
			return nil, err
		}
		f.moveOn("")
	}
	return r, nil
}

// newResilient returns a ResilientClient with no connection and no typed
// calls yet: the caller binds them to its route with via.
func newResilient(policy RetryPolicy, dial func(addr string) (net.Conn, error)) *ResilientClient {
	if dial == nil {
		dial = func(addr string) (net.Conn, error) { return net.Dial("tcp", addr) }
	}
	policy.fillDefaults()
	return &ResilientClient{
		policy:   policy,
		dialConn: dial,
		conns:    make(map[string]*Client),
		rng:      fault.NewRand(policy.Seed),
	}
}

// via returns the typed calls, each sent through the attempt loop along rt.
func (r *ResilientClient) via(rt route) calls {
	return calls{func(req *Request) (*Reply, error) { return r.send(rt, req) }}
}

// Retries returns how many operation attempts were retried.
func (r *ResilientClient) Retries() uint64 { return r.retries.Load() }

// Redials returns how many replacement connections were dialed (the first
// dial excluded).
func (r *ResilientClient) Redials() uint64 { return r.redials.Load() }

// Failovers returns how many times the client rotated to another
// endpoint in its list.
func (r *ResilientClient) Failovers() uint64 { return r.failovers.Load() }

// Close closes every open connection.
func (r *ResilientClient) Close() error {
	var first error
	for addr, c := range r.conns {
		if err := c.Close(); err != nil && first == nil {
			first = err
		}
		delete(r.conns, addr)
	}
	return first
}

// client returns (dialing lazily) the connection to addr.
func (r *ResilientClient) client(addr string) (*Client, error) {
	if c := r.conns[addr]; c != nil {
		return c, nil
	}
	conn, err := r.dialConn(addr)
	if err != nil {
		return nil, err
	}
	c := NewClient(conn)
	c.SetTimeout(r.policy.Timeout)
	r.conns[addr] = c
	return c, nil
}

// dropConn discards addr's connection after a transport-level failure; the
// next attempt there re-dials. Status errors (shed/unavailable/deadline)
// keep the connection: a full reply frame was read, so the stream is in
// sync.
func (r *ResilientClient) dropConn(addr string) {
	if c := r.conns[addr]; c != nil {
		_ = c.Close()
		delete(r.conns, addr)
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

// send runs req under the retry policy, each attempt against the endpoint
// rt names. Failures that implicate the endpoint rather than the request —
// a failed dial, a transport error, UNAVAILABLE, READONLY, LAGGING, and a
// MOVED redirect — move rt on before the next attempt. A batch whose reply
// carries a retryable sub-reply status is retried whole (sub-requests are
// idempotent, so re-running already-applied ones is safe). Every attempt
// sends a fresh copy of req, so the envelopes one stamps are not the next's.
//
// A failed send wraps ErrIndeterminate when any attempt may have applied
// req: its frame went out whole and the reply, if one came, was not a
// refusal — or it was a BATCH reply, whose other sub-requests ran. A failed
// dial or a failed write is a definite refusal: a Write errs only when it
// wrote less than asked, so no whole frame reached the server.
func (r *ResilientClient) send(rt route, req *Request) (*Reply, error) {
	var last error
	maybe := false
	for attempt := 1; attempt <= r.policy.MaxAttempts; attempt++ {
		if attempt > 1 {
			r.retries.Add(1)
			time.Sleep(r.policy.backoff(attempt-1, r.rng))
		}
		addr := rt.target(req)
		c, err := r.client(addr)
		if err != nil {
			last = err // dial failures are always retryable
			rt.moveOn("")
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
		var mv *MovedError
		switch {
		case errors.As(err, &mv):
			rt.moveOn(mv.Addr)
		case !Retryable(err):
			return nil, indeterminate(maybe, err)
		case !statusError(err):
			r.dropConn(addr)
			rt.moveOn("")
		case rotateError(err):
			rt.moveOn("")
		}
	}
	return nil, indeterminate(maybe, fmt.Errorf("server: giving up after %d attempts: %w", r.policy.MaxAttempts, last))
}
