package server

import (
	"errors"
	"net"
	"sort"
	"sync/atomic"

	"nvref/internal/cluster"
)

// ClusterClient is the cluster-routing client: it caches a cluster map and
// is the route of one ResilientClient, whose attempt loop sends each
// request to its key's slot owner (handling retries, redials and backoff)
// and moves on by refreshing the map. A StatusMoved reply is a routing
// signal — refresh toward its hint and re-route — rather than a failure.
// During a migration's fence window a slot's writes bounce MOVED between
// donor and acceptor; the loop rides that out with backoff until the
// handover commits and a refresh observes the new epoch. Like Client it is
// not safe for concurrent use; open one per goroutine.
type ClusterClient struct {
	seeds []string
	m     *cluster.Map
	rc    *ResilientClient // the attempt loop, routed by this client

	movedSeen atomic.Uint64 // MOVED redirects taken
	refreshes atomic.Uint64 // map refresh rounds run
	mapLoads  atomic.Uint64 // strictly newer maps adopted
}

// DialCluster builds a routing client from any reachable seed node's map.
// dial, when non-nil, replaces the TCP dialer (the simulator passes its
// sim.Net.FaultyDialer); it is shared by every per-node connection.
func DialCluster(seeds []string, policy RetryPolicy, dial func(addr string) (net.Conn, error)) (*ClusterClient, error) {
	if len(seeds) == 0 {
		return nil, errors.New("server: no cluster seeds")
	}
	cc := &ClusterClient{seeds: seeds, rc: newResilient(policy, dial)}
	cc.rc.calls = cc.rc.via(cc)
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
func (cc *ClusterClient) Close() error { return cc.rc.Close() }

// target routes req to the owner of its key's slot in the cached map.
func (cc *ClusterClient) target(req *Request) string {
	return cc.m.OwnerOf(cluster.SlotFor(req.Key, cc.m.Slots))
}

// moveOn refreshes the map after the owner failed an attempt: toward the
// redirect's node after a MOVED (the only failure with a hint), over the
// whole map otherwise — the node may be gone for good.
func (cc *ClusterClient) moveOn(hint string) {
	if hint != "" {
		cc.movedSeen.Add(1)
	}
	_ = cc.refresh(hint)
}

// refresh fetches map images — from the redirect hint first, then every
// node of the cached map, then the seeds — and adopts the newest epoch
// seen. Each node gets one attempt over the shared connections. It
// succeeds if the client ends up holding any map at all.
func (cc *ClusterClient) refresh(hint string) error {
	cc.refreshes.Add(1)
	tried := make(map[string]bool)
	fetch := func(addr string) {
		if addr == "" || tried[addr] {
			return
		}
		tried[addr] = true
		c, err := cc.rc.client(addr)
		if err != nil {
			return
		}
		img, err := c.ClusterMap()
		if err != nil {
			if !statusError(err) {
				cc.rc.dropConn(addr)
			}
			return
		}
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

// Get reads a key from its slot's owner.
func (cc *ClusterClient) Get(key uint64) (uint64, bool, error) { return cc.rc.Get(key) }

// Put writes a key on its slot's owner.
func (cc *ClusterClient) Put(key, value uint64) error { return cc.rc.Put(key, value) }

// Delete removes a key on its slot's owner.
func (cc *ClusterClient) Delete(key uint64) (bool, error) { return cc.rc.Delete(key) }

// Scan reads up to limit pairs in ascending key order across the whole
// cluster: every node is scanned, each through the attempt loop pinned to
// it (keys are hash-placed, so any node may hold part of the range), and
// each pair is kept only if the cached map assigns its slot to the node
// that served it — migrated keys awaiting the donor's purge would
// otherwise surface twice.
func (cc *ClusterClient) Scan(start uint64, limit int) ([]KV, error) {
	m := cc.m
	merged := make(map[uint64]uint64)
	for _, addr := range m.Nodes {
		if m.Owned(addr) == 0 {
			continue
		}
		pairs, err := cc.rc.via(pinned(addr)).Scan(start, limit)
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
