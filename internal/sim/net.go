package sim

import (
	"net"
	"strings"
	"sync"
)

// Net is the simulator's partitionable network. Nodes still talk over
// real loopback TCP (so the server's wire path is exercised unchanged),
// but every dial in the simulation goes through Net.Dialer, which maps
// the target address back to a node name and consults a directed
// link-blocking table. Blocking a link severs the live connections that
// were dialed across it and makes new dials fail with a refused-style
// error, which is exactly what the retry/fencing machinery sees during
// a real partition.
//
// Blocking is directed: Block("a","b") stops traffic on connections
// dialed from a to b while leaving b→a dials alone, which is how the
// asymmetric (one-way) partition schedules are built. A full partition
// blocks both directions.
//
// Nodes listen through Net.Listen, so Net also sees the listening end of
// every connection: Drained reports when the listener has closed its end
// of each connection dialed across an edge, which is when every request
// sent across it has been served.
type Net struct {
	mu    sync.Mutex
	addrs map[string]string // node name -> listen address
	nodes map[string]string // listen address -> node name
	// blocked holds directed edges "from\x00to".
	blocked map[string]bool
	// conns holds every connection dialed across a directed edge until
	// its listening end closes: Block severs the dialing ends, Drained
	// waits for the listening ones.
	conns map[string]map[*simConn]bool
	// dialed finds a dialed connection by its address pair, which its
	// listening end sees mirrored (connID). A local port alone is not
	// enough: the kernel reuses one for a dial elsewhere while the
	// listening end of its last connection may still be open.
	dialed map[string]*simConn
}

// NewNet returns an empty network registry.
func NewNet() *Net {
	return &Net{
		addrs:   make(map[string]string),
		nodes:   make(map[string]string),
		blocked: make(map[string]bool),
		conns:   make(map[string]map[*simConn]bool),
		dialed:  make(map[string]*simConn),
	}
}

func edgeKey(from, to string) string { return from + "\x00" + to }

// Register binds a node name to its listen address. Re-registering after
// a crash/restart (same name, possibly new address) replaces the old
// binding and forgets the connections dialed to the old incarnation: a
// crashed server served all it ever will before its shutdown returned.
func (n *Net) Register(node, addr string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if old, ok := n.addrs[node]; ok {
		delete(n.nodes, old)
	}
	n.addrs[node] = addr
	n.nodes[addr] = node
	for key, set := range n.conns {
		if strings.HasSuffix(key, "\x00"+node) {
			for c := range set {
				delete(n.dialed, c.id)
			}
			delete(n.conns, key)
		}
	}
}

// Listen binds node's listener on addr ("127.0.0.1:0" picks a port) and
// registers the bound address under node.
func (n *Net) Listen(node, addr string) (net.Listener, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	n.Register(node, l.Addr().String())
	return &simListener{Listener: l, net: n}, nil
}

// Drained reports whether the listening end of every connection dialed
// from→to has closed — every request sent across the edge was served.
func (n *Net) Drained(from, to string) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return len(n.conns[edgeKey(from, to)]) == 0
}

// Addr returns the registered listen address for a node.
func (n *Net) Addr(node string) string {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.addrs[node]
}

// Block cuts the directed link from→to: live connections dialed across
// it are closed and new dials fail until Unblock.
func (n *Net) Block(from, to string) {
	n.mu.Lock()
	key := edgeKey(from, to)
	n.blocked[key] = true
	var sever []*simConn
	for c := range n.conns[key] {
		sever = append(sever, c)
	}
	n.mu.Unlock()
	for _, c := range sever {
		c.Conn.Close()
	}
}

// Unblock restores the directed link from→to.
func (n *Net) Unblock(from, to string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.blocked, edgeKey(from, to))
}

// Partition cuts both directions between a and b.
func (n *Net) Partition(a, b string) {
	n.Block(a, b)
	n.Block(b, a)
}

// Heal restores both directions between a and b.
func (n *Net) Heal(a, b string) {
	n.Unblock(a, b)
	n.Unblock(b, a)
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

// Dialer returns a dial function that attributes outbound connections to
// the named node and enforces link blocking. It has the same signature
// the server's replication and cluster planes accept for dial injection.
func (n *Net) Dialer(from string) func(addr string) (net.Conn, error) {
	return func(addr string) (net.Conn, error) {
		n.mu.Lock()
		to, known := n.nodes[addr]
		key := edgeKey(from, to)
		cut := known && n.blocked[key]
		n.mu.Unlock()
		if cut {
			return nil, &net.OpError{Op: "dial", Net: "tcp",
				Addr: &net.TCPAddr{}, Err: errLinkDown}
		}
		raw, err := net.Dial("tcp", addr)
		if err != nil {
			return nil, err
		}
		if !known {
			return raw, nil
		}
		c := &simConn{Conn: raw, net: n, key: key, id: connID(raw.LocalAddr(), raw.RemoteAddr())}
		n.mu.Lock()
		set := n.conns[key]
		if set == nil {
			set = make(map[*simConn]bool)
			n.conns[key] = set
		}
		set[c] = true
		n.dialed[c.id] = c
		n.mu.Unlock()
		return c, nil
	}
}

type linkDownError struct{}

func (linkDownError) Error() string   { return "sim: link down" }
func (linkDownError) Timeout() bool   { return false }
func (linkDownError) Temporary() bool { return true }

var errLinkDown = linkDownError{}

// simConn wraps a real TCP connection with a link-state check so a
// Block issued after the handshake still kills in-flight traffic.
type simConn struct {
	net.Conn
	net *Net
	key string
	id  string // connID, dialing end first
}

// connID names a connection by its dialing and listening addresses.
func connID(dialing, listening net.Addr) string {
	return dialing.String() + ">" + listening.String()
}

func (c *simConn) Read(p []byte) (int, error) {
	if c.cut() {
		return 0, errLinkDown
	}
	return c.Conn.Read(p)
}

func (c *simConn) Write(p []byte) (int, error) {
	if c.cut() {
		return 0, errLinkDown
	}
	return c.Conn.Write(p)
}

func (c *simConn) cut() bool {
	c.net.mu.Lock()
	defer c.net.mu.Unlock()
	return c.net.blocked[c.key]
}

// simListener hands out the listening end of each connection wrapped, so
// its Close tells Net the connection is served.
type simListener struct {
	net.Listener
	net *Net
}

func (l *simListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &servedConn{Conn: c, net: l.net, id: connID(c.RemoteAddr(), c.LocalAddr())}, nil
}

// servedConn is the listening end of a connection.
type servedConn struct {
	net.Conn
	net *Net
	id  string // connID, dialing end first
}

// Close forgets the connection's dialing end. One closed before its dialer
// recorded it (a node shutting down as the dial lands) stays recorded until
// the node re-registers; Drained is asked only of live nodes' edges.
func (c *servedConn) Close() error {
	n := c.net
	n.mu.Lock()
	if d := n.dialed[c.id]; d != nil {
		delete(n.dialed, c.id)
		delete(n.conns[d.key], d)
	}
	n.mu.Unlock()
	return c.Conn.Close()
}
