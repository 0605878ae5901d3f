package server

import (
	"errors"
	"fmt"
	"net"
	"sort"
	"sync/atomic"
	"time"

	"nvref/internal/cluster"
	"nvref/internal/fault"
)

// ClusterClient is the cluster-routing client: it caches a cluster map,
// routes each key to its slot's owner through a per-node ResilientClient
// (which handles transport retries, redials, and backoff), and treats
// StatusMoved as a routing signal — refresh the map and re-route — rather
// than a failure. During a migration's fence window a slot's writes
// bounce MOVED between donor and acceptor; the routing loop rides that
// out with backoff until the handover commits and a refresh observes the
// new epoch. Like Client it is not safe for concurrent use; open one per
// goroutine.
type ClusterClient struct {
	seeds  []string
	policy RetryPolicy
	dial   func(addr string) (net.Conn, error)
	m      *cluster.Map
	nodes  map[string]*ResilientClient
	rng    *fault.Rand
	calls  calls // the typed calls, sent through the routing loop

	movedSeen  atomic.Uint64 // MOVED redirects taken
	refreshes  atomic.Uint64 // map refresh rounds run
	mapLoads   atomic.Uint64 // strictly newer maps adopted
	mapFetches atomic.Uint64 // map images fetched over the wire
}

// DialCluster builds a routing client from any reachable seed node's map.
// dial, when non-nil, replaces the TCP dialer (the simulator passes its
// sim.Net.FaultyDialer); it is shared by every per-node connection.
func DialCluster(seeds []string, policy RetryPolicy, dial func(addr string) (net.Conn, error)) (*ClusterClient, error) {
	if len(seeds) == 0 {
		return nil, errors.New("server: no cluster seeds")
	}
	policy.fillDefaults()
	cc := &ClusterClient{
		seeds:  seeds,
		policy: policy,
		dial:   clusterDial(dial),
		nodes:  make(map[string]*ResilientClient),
		rng:    fault.NewRand(policy.Seed),
	}
	cc.calls = calls{cc.send}
	if err := cc.refresh(""); err != nil {
		return nil, err
	}
	return cc, nil
}

// Map returns the client's cached cluster map.
func (cc *ClusterClient) Map() *cluster.Map { return cc.m }

// MovedSeen returns how many MOVED redirects the client followed.
func (cc *ClusterClient) MovedSeen() uint64 { return cc.movedSeen.Load() }

// MapRefreshes returns how many map refresh rounds ran.
func (cc *ClusterClient) MapRefreshes() uint64 { return cc.refreshes.Load() }

// MapLoads returns how many strictly newer maps the client adopted.
func (cc *ClusterClient) MapLoads() uint64 { return cc.mapLoads.Load() }

// Close closes every per-node connection.
func (cc *ClusterClient) Close() error {
	var first error
	for _, rc := range cc.nodes {
		if err := rc.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// node returns (dialing lazily) the resilient client for one node.
func (cc *ClusterClient) node(addr string) (*ResilientClient, error) {
	if rc := cc.nodes[addr]; rc != nil {
		return rc, nil
	}
	rc, err := DialResilientFunc(addr, cc.policy, cc.dial)
	if err != nil {
		return nil, err
	}
	cc.nodes[addr] = rc
	return rc, nil
}

// refresh fetches map images — from the redirect hint first, then every
// node of the cached map, then the seeds — and adopts the newest epoch
// seen. It succeeds if the client ends up holding any map at all.
func (cc *ClusterClient) refresh(hint string) error {
	cc.refreshes.Add(1)
	tried := make(map[string]bool)
	fetch := func(addr string) {
		if addr == "" || tried[addr] {
			return
		}
		tried[addr] = true
		rc, err := cc.node(addr)
		if err != nil {
			return
		}
		img, err := rc.ClusterMap()
		if err != nil {
			return
		}
		cc.mapFetches.Add(1)
		m, err := cluster.Decode(img)
		if err != nil {
			return
		}
		if cc.m == nil || m.Epoch > cc.m.Epoch {
			cc.m = m
			cc.mapLoads.Add(1)
		}
	}
	fetch(hint)
	if cc.m != nil {
		for _, addr := range cc.m.Nodes {
			// Stop early once something newer than the hint turned up; the
			// point is progress, not a census.
			if hint != "" && cc.mapLoads.Load() > 0 && tried[hint] && len(tried) > 1 {
				break
			}
			fetch(addr)
		}
	}
	for _, addr := range cc.seeds {
		if cc.m != nil {
			break
		}
		fetch(addr)
	}
	if cc.m == nil {
		return errors.New("server: no seed served a cluster map")
	}
	return nil
}

// send runs req against the owner of req.Key's slot, following MOVED
// redirects with map refreshes and backoff up to the policy's attempts. Its
// error wraps ErrIndeterminate when any node-level send's did: a write one
// owner may have applied stays pending however the routing ends.
func (cc *ClusterClient) send(req *Request) (*Reply, error) {
	var last error
	maybe := false
	for attempt := 1; attempt <= cc.policy.MaxAttempts; attempt++ {
		if attempt > 1 {
			time.Sleep(cc.policy.backoff(attempt-1, cc.rng))
		}
		if cc.m == nil {
			if err := cc.refresh(""); err != nil {
				last = err
				continue
			}
		}
		owner := cc.m.OwnerOf(cluster.SlotFor(req.Key, cc.m.Slots))
		rc, err := cc.node(owner)
		if err != nil {
			last = err
			_ = cc.refresh("")
			continue
		}
		rep, err := rc.send(req)
		if err == nil {
			return rep, nil
		}
		last = err
		maybe = maybe || errors.Is(err, ErrIndeterminate)
		var mv *MovedError
		if errors.As(err, &mv) {
			// The routing signal: refresh toward the hint and re-route.
			// During a fence window both sides answer MOVED; backoff
			// rides it out until the handover commits.
			cc.movedSeen.Add(1)
			_ = cc.refresh(mv.Addr)
			continue
		}
		if !Retryable(err) {
			return nil, indeterminate(maybe, err)
		}
		// The node-level client exhausted its own retries; the node may
		// be gone for good, so refresh before routing again.
		_ = cc.refresh("")
	}
	return nil, indeterminate(maybe, fmt.Errorf("server: giving up after %d routing attempts: %w", cc.policy.MaxAttempts, last))
}

// Get reads a key from its slot's owner.
func (cc *ClusterClient) Get(key uint64) (uint64, bool, error) { return cc.calls.Get(key) }

// Put writes a key on its slot's owner.
func (cc *ClusterClient) Put(key, value uint64) error { return cc.calls.Put(key, value) }

// Delete removes a key on its slot's owner.
func (cc *ClusterClient) Delete(key uint64) (bool, error) { return cc.calls.Delete(key) }

// Scan reads up to limit pairs in ascending key order across the whole
// cluster: every node is scanned (keys are hash-placed, so any node may
// hold part of the range) and each pair is kept only if the cached map
// assigns its slot to the node that served it — migrated keys awaiting
// the donor's purge would otherwise surface twice.
func (cc *ClusterClient) Scan(start uint64, limit int) ([]KV, error) {
	if cc.m == nil {
		if err := cc.refresh(""); err != nil {
			return nil, err
		}
	}
	m := cc.m
	merged := make(map[uint64]uint64)
	for _, addr := range m.Nodes {
		if m.Owned(addr) == 0 {
			continue
		}
		rc, err := cc.node(addr)
		if err != nil {
			return nil, err
		}
		pairs, err := rc.Scan(start, limit)
		if err != nil {
			return nil, err
		}
		for _, kv := range pairs {
			if m.OwnerOf(cluster.SlotFor(kv.Key, m.Slots)) == addr {
				merged[kv.Key] = kv.Value
			}
		}
	}
	out := make([]KV, 0, len(merged))
	for k, v := range merged {
		out = append(out, KV{Key: k, Value: v})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	if len(out) > limit {
		out = out[:limit]
	}
	return out, nil
}
