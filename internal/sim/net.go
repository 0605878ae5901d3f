package sim

import (
	"bytes"
	"io"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"nvref/internal/fault"
)

// Net is the simulator's network: an in-process transport between named
// nodes, so the server's wire path runs unchanged while the simulator owns
// every connection. A node listens under its name, and the name is its
// address. A connection is a pair of buffered ends in memory: every Write
// arrives whole at the peer's next Read, so how a reply splits into reads —
// and with it which frame a scheduled fault hits — is the same in every run.
// Writes never block; reads honour wall-clock deadlines, as the client sets
// them.
//
// Blocking is directed: Block("a","b") severs the connections dialed from a
// to b and refuses new ones, while leaving b→a dials alone, which is how the
// asymmetric (one-way) partition schedules are built. A full partition
// blocks both directions.
//
// Net also holds the listening end of every connection: Drained reports
// when the listener has closed its end of each connection dialed across an
// edge, which is when every request sent across it has been served.
type Net struct {
	mu        sync.Mutex
	listeners map[string]*listener
	// blocked holds directed edges "from\x00to".
	blocked map[string]bool
	// conns maps the dialing end of every connection to the edge it was
	// dialed across, until its listening end closes: Block severs them,
	// Drained waits for them to go.
	conns map[*conn]string
}

// NewNet returns a network with no node listening.
func NewNet() *Net {
	return &Net{
		listeners: make(map[string]*listener),
		blocked:   make(map[string]bool),
		conns:     make(map[*conn]string),
	}
}

func edgeKey(from, to string) string { return from + "\x00" + to }

// backlog bounds the connections a listener holds unaccepted; a dial past
// it is refused, as a kernel's would be. A node accepts as fast as it is
// dialed, so 64 is never reached: a run has a few dozen connections in all.
const backlog = 64

// Listen opens node's listener; dials to node reach it until it closes.
func (n *Net) Listen(node string) (net.Listener, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.listeners[node] != nil {
		return nil, opError("listen", node, syscall.EADDRINUSE)
	}
	l := &listener{n: n, node: node, backlog: make(chan *conn, backlog)}
	n.listeners[node] = l
	return l, nil
}

// Drained reports whether the listening end of every connection dialed
// from→to has closed — every request sent across the edge was served.
func (n *Net) Drained(from, to string) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	edge := edgeKey(from, to)
	for _, key := range n.conns {
		if key == edge {
			return false
		}
	}
	return true
}

// Block cuts the directed link from→to: live connections dialed across
// it are closed and new dials fail until a heal.
func (n *Net) Block(from, to string) {
	n.mu.Lock()
	edge := edgeKey(from, to)
	n.blocked[edge] = true
	var sever []*conn
	for c, key := range n.conns {
		if key == edge {
			sever = append(sever, c)
		}
	}
	n.mu.Unlock()
	for _, c := range sever {
		c.Close()
	}
}

// Partition cuts both directions between a and b.
func (n *Net) Partition(a, b string) {
	n.Block(a, b)
	n.Block(b, a)
}

// Heal restores both directions between a and b.
func (n *Net) Heal(a, b string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.blocked, edgeKey(a, b))
	delete(n.blocked, edgeKey(b, a))
}

// HealAll clears every blocked link.
func (n *Net) HealAll() {
	n.mu.Lock()
	n.blocked = make(map[string]bool)
	n.mu.Unlock()
}

// Blocked reports whether the directed link from→to is currently cut.
func (n *Net) Blocked(from, to string) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.blocked[edgeKey(from, to)]
}

// Dialer returns the dial function of node from: the address it dials is
// a node's name. It has the signature the server's replication and cluster
// planes accept for dial injection.
func (n *Net) Dialer(from string) func(addr string) (net.Conn, error) {
	return n.FaultyDialer(from, nil)
}

// FaultyDialer is Dialer with f's faults injected on the dialing end of
// every connection; nil f injects none.
func (n *Net) FaultyDialer(from string, f *Faults) func(addr string) (net.Conn, error) {
	return func(to string) (net.Conn, error) {
		n.mu.Lock()
		defer n.mu.Unlock()
		key := edgeKey(from, to)
		if n.blocked[key] {
			return nil, opError("dial", to, errLinkDown)
		}
		l := n.listeners[to]
		if l == nil {
			return nil, opError("dial", to, syscall.ECONNREFUSED)
		}
		p := &pipe{wake: [2]chan struct{}{make(chan struct{}), make(chan struct{})}}
		d := &conn{p: p, n: n, local: addr(from), remote: addr(to)}
		d.dialer = d
		select {
		case l.backlog <- &conn{p: p, end: 1, n: n, local: addr(to), remote: addr(from), dialer: d}:
		default:
			return nil, opError("dial", to, syscall.ECONNREFUSED)
		}
		if f != nil && f.Sched != nil {
			d.faults, d.rng = f, fault.NewRand((f.Seed+0x9e3779b97f4a7c15*f.dials.Add(1))|1)
		}
		n.conns[d] = key
		return d, nil
	}
}

type linkDownError struct{}

func (linkDownError) Error() string   { return "sim: link down" }
func (linkDownError) Timeout() bool   { return false }
func (linkDownError) Temporary() bool { return true }

var errLinkDown = linkDownError{}

func opError(op, node string, err error) error {
	return &net.OpError{Op: op, Net: "sim", Addr: addr(node), Err: err}
}

// addr is a node's name as a net.Addr.
type addr string

func (a addr) Network() string { return "sim" }
func (a addr) String() string  { return string(a) }

// listener is a node's listening end.
type listener struct {
	n       *Net
	node    string
	backlog chan *conn // closed with the listener
}

func (l *listener) Accept() (net.Conn, error) {
	if c, ok := <-l.backlog; ok {
		return c, nil
	}
	return nil, opError("accept", l.node, net.ErrClosed)
}

// Close stops the node listening and resets its backlog: a connection
// dialed but never accepted reads EOF, and its edge drains.
func (l *listener) Close() error {
	l.n.mu.Lock()
	if l.n.listeners[l.node] != l {
		l.n.mu.Unlock()
		return opError("close", l.node, net.ErrClosed)
	}
	delete(l.n.listeners, l.node)
	close(l.backlog)
	l.n.mu.Unlock()
	for c := range l.backlog {
		c.Close()
	}
	return nil
}

func (l *listener) Addr() net.Addr { return addr(l.node) }

// pipe is the state one connection's two ends share: end 0 dialed, end 1
// was accepted.
type pipe struct {
	mu     sync.Mutex
	wake   [2]chan struct{} // closed and replaced when an end's read may proceed
	queued [2][][]byte      // writes on their way to each end, oldest first
	closed [2]bool
	dl     [2]time.Time // each end's read deadline
}

// wakeUp wakes the reads blocked on end.
func (p *pipe) wakeUp(end int) {
	close(p.wake[end])
	p.wake[end] = make(chan struct{})
}

// conn is one end of a connection.
type conn struct {
	p             *pipe
	end           int
	n             *Net
	local, remote addr
	dialer        *conn // the connection's dialing end
	// The dialing end's share of a Faults: nil injects none. p.mu guards
	// rng.
	faults *Faults
	rng    *fault.Rand
}

func (c *conn) Read(b []byte) (int, error) {
	if c.cut() {
		return 0, errLinkDown
	}
	c.inject(pointRead, nil) // a severed c fails the read below
	p := c.p
	p.mu.Lock()
	defer p.mu.Unlock()
	for {
		q, dl := p.queued[c.end], p.dl[c.end]
		switch {
		case p.closed[c.end]:
			return 0, opError("read", string(c.remote), net.ErrClosed)
		case len(q) > 0:
			n := copy(b, q[0])
			if q[0] = q[0][n:]; len(q[0]) == 0 {
				p.queued[c.end] = q[1:]
			}
			return n, nil
		case p.closed[1-c.end]:
			return 0, io.EOF
		case !dl.IsZero() && !time.Now().Before(dl):
			return 0, opError("read", string(c.remote), os.ErrDeadlineExceeded)
		}
		wake := p.wake[c.end]
		p.mu.Unlock()
		if dl.IsZero() {
			<-wake
		} else {
			t := time.NewTimer(time.Until(dl))
			select {
			case <-wake:
			case <-t.C:
			}
			t.Stop()
		}
		p.mu.Lock()
	}
}

func (c *conn) Write(b []byte) (int, error) {
	if c.cut() {
		return 0, errLinkDown
	}
	if n, severed := c.inject(pointWrite, b); severed {
		return n, opError("write", string(c.remote), net.ErrClosed)
	}
	return c.write(b)
}

func (c *conn) write(b []byte) (int, error) {
	p := c.p
	p.mu.Lock()
	defer p.mu.Unlock()
	switch {
	case p.closed[c.end]:
		return 0, opError("write", string(c.remote), net.ErrClosed)
	case p.closed[1-c.end]:
		return 0, opError("write", string(c.remote), syscall.EPIPE)
	case len(b) == 0:
		return 0, nil
	}
	p.queued[1-c.end] = append(p.queued[1-c.end], bytes.Clone(b))
	p.wakeUp(1 - c.end)
	return len(b), nil
}

// Close closes this end: what it had not read is dropped, and the peer
// reads what this end wrote, then EOF. Closing a listening end tells Net
// its connection is served.
func (c *conn) Close() error {
	p := c.p
	p.mu.Lock()
	if p.closed[c.end] {
		p.mu.Unlock()
		return opError("close", string(c.remote), net.ErrClosed)
	}
	p.closed[c.end], p.queued[c.end] = true, nil
	p.wakeUp(0)
	p.wakeUp(1)
	p.mu.Unlock()
	if c.end == 1 {
		c.n.mu.Lock()
		delete(c.n.conns, c.dialer)
		c.n.mu.Unlock()
	}
	return nil
}

// cut reports whether c dialed across a link that is now blocked.
func (c *conn) cut() bool { return c.end == 0 && c.n.Blocked(string(c.local), string(c.remote)) }

func (c *conn) LocalAddr() net.Addr  { return c.local }
func (c *conn) RemoteAddr() net.Addr { return c.remote }

func (c *conn) SetDeadline(t time.Time) error { return c.SetReadDeadline(t) }

func (c *conn) SetReadDeadline(t time.Time) error {
	c.p.mu.Lock()
	defer c.p.mu.Unlock()
	c.p.dl[c.end] = t
	c.p.wakeUp(c.end)
	return nil
}

// SetWriteDeadline has nothing to bound: a write never blocks.
func (c *conn) SetWriteDeadline(time.Time) error { return nil }

// Crash-point labels a Faults scheduler is asked at. Reads and writes are
// separate points so a schedule can fault only one direction.
const (
	pointRead  = "sim.conn.read"
	pointWrite = "sim.conn.write"
)

// maxDelay bounds an injected delay.
const maxDelay = 2 * time.Millisecond

// Faults is seeded network fault injection on the dialing end of every
// connection a FaultyDialer makes: a scheduled Read or Write drops the
// connection, truncates it (a write delivers a prefix first), or delays it
// on Clock. Sched decides when a fault fires and the seed decides which one,
// so a (schedule, seed) pair faults the same frames in every run. The
// connections share the scheduler, so faults are scheduled across re-dials,
// but each draws its own stream from the seed.
type Faults struct {
	// Sched decides which Read and Write calls fault; nil never faults.
	Sched fault.Scheduler
	// Seed drives which fault class fires and where a truncation cuts.
	Seed uint64
	// Clock serves the injected delays; nil is the wall clock.
	Clock fault.Clock

	dials                 atomic.Uint64
	drops, truncs, delays atomic.Uint64
}

// Counts returns how many drops, truncations and delays have fired.
func (f *Faults) Counts() (drops, truncs, delays uint64) {
	return f.drops.Load(), f.truncs.Load(), f.delays.Load()
}

// inject fires a scheduled fault on c at point, b being a write's bytes. A
// drop or a truncation closes c, after a truncated write delivers a prefix
// of b; it returns that prefix's length and true. A delay sleeps and
// returns false.
func (c *conn) inject(point string, b []byte) (int, bool) {
	f := c.faults
	if f == nil || !f.Sched.Hit(point) {
		return 0, false
	}
	c.p.mu.Lock()
	class, cut, delay := c.rng.Intn(3), 0, time.Duration(0)
	switch {
	case class == 1 && len(b) > 0:
		cut = c.rng.Intn(len(b))
	case class == 2:
		delay = time.Duration(c.rng.Intn(int(maxDelay))) + time.Microsecond
	}
	c.p.mu.Unlock()
	switch class {
	case 0:
		f.drops.Add(1)
	case 1:
		f.truncs.Add(1)
		if cut > 0 {
			cut, _ = c.write(b[:cut])
		}
	default:
		f.delays.Add(1)
		fault.OrWall(f.Clock).Sleep(delay)
		return 0, false
	}
	c.Close()
	return cut, true
}
