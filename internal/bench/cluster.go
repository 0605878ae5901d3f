// The cluster experiment proves the cluster tier's core promise: a node
// can join mid-stream under closed-loop YCSB load over a flaky network,
// pull at least one slot to itself via live migration, and the cluster
// loses zero acknowledged writes while the fenced donor applies zero
// stale-epoch writes. Clients route only through cluster maps and MOVED
// redirects — nobody tells them about the new node.
//
// Zero-loss detection is the harness's oracle (harness.go), swept through
// a fresh routing client against the final map. Zero-stale-write detection
// is server-side: every committed handover audits the donor's logs for
// post-fence writes to the migrated slot, and the sum of those counters
// across the cluster must be zero.
package bench

import (
	"fmt"
	"io"
	"net"

	"nvref/internal/cluster"
	"nvref/internal/rt"
	"nvref/internal/server"
)

// ClusterSpec parameterizes the cluster experiment.
type ClusterSpec struct {
	LoadSpec
	// Nodes is the initial cluster size; one more node joins mid-stream.
	Nodes int
	// Slots is the cluster map's slot count.
	Slots int
	// JoinAtFrac is the fraction of operations after which the extra node
	// joins and rebalances (0.3 = once 30% of the stream completed).
	JoinAtFrac float64
}

// ClusterSpecFor returns the standard experiment sizes.
func ClusterSpecFor(quick bool) ClusterSpec {
	s := ClusterSpec{
		LoadSpec: LoadSpec{
			Records:         4000,
			Operations:      24000,
			Clients:         4,
			Shards:          2,
			Mode:            rt.HW,
			PoolSize:        4 << 20,
			CheckpointEvery: 4000,
			NetFaultEvery:   300,
			Seed:            23,
		},
		Nodes:      3,
		Slots:      64,
		JoinAtFrac: 0.3,
	}
	if quick {
		s.Records, s.Operations = 1500, 10000
	}
	return s
}

// ClusterResult is the experiment document. The client-side fields cover
// the full run (flaky network, node joining mid-stream); the sweep ran
// against the final map.
type ClusterResult struct {
	LoadResult
	Nodes int `json:"nodes"`
	Slots int `json:"slots"`

	OpsPerSec    float64 `json:"ops_per_sec"`
	P50us        float64 `json:"p50_us"`
	P99us        float64 `json:"p99_us"`
	MovedSeen    uint64  `json:"moved_seen"`
	MapRefreshes uint64  `json:"map_refreshes"`
	MapLoads     uint64  `json:"map_loads"`

	// The join: epochs before and after, and what the migration moved.
	EpochBefore      uint64 `json:"epoch_before"`
	EpochAfter       uint64 `json:"epoch_after"`
	SlotsMigrated    int    `json:"slots_migrated"`
	JoinerSlots      int    `json:"joiner_slots"`
	RecordsIngested  uint64 `json:"records_ingested"`
	KeysPurged       uint64 `json:"keys_purged"`
	StaleEpochWrites uint64 `json:"stale_epoch_writes"`
	FencedSlotsLeft  int    `json:"fenced_slots_left"`
}

// Pass applies the acceptance gates: real traffic moved over a really
// faulty network, at least one slot migrated to the joiner live, clients
// followed redirects on their own, the fenced donor applied zero
// stale-epoch writes, no fence was left dangling, and no acknowledged
// write was lost.
func (r *ClusterResult) Pass() bool {
	return r.OpsOK > 0 && r.NetFaults > 0 &&
		r.SlotsMigrated >= 1 && r.JoinerSlots >= 1 &&
		r.EpochAfter > r.EpochBefore &&
		r.MapRefreshes > 0 &&
		r.StaleEpochWrites == 0 && r.FencedSlotsLeft == 0 &&
		r.AckedKeys > 0 &&
		r.LostWrites == 0 && r.MissingKeys == 0
}

// startClusterNode serves one in-process node on l. The listener is bound
// before the server exists so the advertised address can go into the
// bootstrap map; a nil map starts a node that knows nothing yet (the
// joiner).
func startClusterNode(spec LoadSpec, l net.Listener, m *cluster.Map) (*server.Server, error) {
	cfg := spec.config()
	cfg.ClusterSelf = l.Addr().String()
	cfg.ClusterMap = m
	srv, err := server.New(cfg)
	if err != nil {
		l.Close()
		return nil, err
	}
	go srv.Serve(l)
	return srv, nil
}

// RunCluster executes the experiment against in-process nodes on
// loopback listeners.
func RunCluster(spec ClusterSpec) (*ClusterResult, error) {
	res := &ClusterResult{Nodes: spec.Nodes, Slots: spec.Slots}

	// Bind every initial node's listener first: the bootstrap map needs
	// the real addresses.
	addrs := make([]string, spec.Nodes)
	listeners := make([]net.Listener, spec.Nodes)
	for i := range addrs {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		listeners[i] = l
		addrs[i] = l.Addr().String()
	}
	bootstrap, err := cluster.New(spec.Slots, addrs)
	if err != nil {
		return nil, err
	}
	nodes := make([]*server.Server, 0, spec.Nodes+1)
	defer func() {
		for _, n := range nodes {
			n.Abort()
		}
	}()
	for _, l := range listeners {
		n, err := startClusterNode(spec.LoadSpec, l, bootstrap)
		if err != nil {
			return nil, err
		}
		nodes = append(nodes, n)
	}
	res.EpochBefore = bootstrap.Epoch

	h := newAcceptance(spec.LoadSpec)
	loader, err := server.DialCluster(addrs, h.loaderPolicy(), nil)
	if err != nil {
		return nil, err
	}
	if err := h.load(loader); err != nil {
		return nil, fmt.Errorf("cluster: %w", err)
	}

	// The joiner: on the op that completes the configured fraction of the
	// stream, bring up one more node with no map at all, have it join off
	// a seed, and rebalance — pulling slots to itself by live migration
	// while the writers keep hammering those same slots (hence the
	// goroutine: the triggering client must not stall for the migration).
	join := func() error {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		n, err := startClusterNode(spec.LoadSpec, l, nil)
		if err != nil {
			return err
		}
		nodes = append(nodes, n)
		if err := n.JoinCluster(addrs[0], nil); err != nil {
			return fmt.Errorf("cluster: join: %w", err)
		}
		res.SlotsMigrated, err = n.Rebalance(nil)
		if err != nil {
			return fmt.Errorf("cluster: rebalance (%d slots in): %w", res.SlotsMigrated, err)
		}
		return nil
	}
	joinErr := make(chan error, 1)
	h.at(spec.JoinAtFrac, func() {
		go func() { joinErr <- join() }()
	})

	// Closed-loop clients routing by cluster map through the flaky
	// network. Nobody hands them the joiner's address: they have to find
	// it through MOVED redirects and map refreshes.
	clients := make([]*server.ClusterClient, spec.Clients)
	if err := h.drive(func(ci int) (kv, error) {
		cl, err := server.DialCluster(addrs, h.policy(ci), h.dialer(ci))
		clients[ci] = cl
		return cl, err
	}); err != nil {
		return nil, fmt.Errorf("cluster: %w", err)
	}
	if err := <-joinErr; err != nil {
		return nil, err
	}
	for _, cl := range clients {
		res.MovedSeen += cl.MovedSeen()
		res.MapRefreshes += cl.MapRefreshes()
		res.MapLoads += cl.MapLoads()
	}
	if h.wall > 0 {
		res.OpsPerSec = float64(h.res.OpsOK) / h.wall.Seconds()
	}
	res.P50us, res.P99us = percentile(h.lats, 50), percentile(h.lats, 99)

	// Cluster-wide server-side verdicts: the handover audits must have
	// found zero post-fence writes, and no fence may still be standing.
	for _, n := range nodes {
		cs := n.CollectStats().Cluster
		if cs == nil {
			continue
		}
		res.StaleEpochWrites += cs.StaleEpochWrites
		res.FencedSlotsLeft += cs.FencedSlots
		res.RecordsIngested += cs.Ingested
		res.KeysPurged += cs.Purged
		if cs.Epoch > res.EpochAfter {
			res.EpochAfter = cs.Epoch
		}
	}
	if m := nodes[len(nodes)-1].CollectStats().Cluster; m != nil {
		res.JoinerSlots = m.SlotsOwned
	}

	// Zero-loss sweep against the final map, through a fresh routing
	// client.
	sweep, err := server.DialCluster(addrs, h.loaderPolicy(), nil)
	if err != nil {
		return nil, err
	}
	if err := h.verify(sweep); err != nil {
		return nil, fmt.Errorf("cluster: %w", err)
	}
	res.LoadResult = h.res
	return res, nil
}

// WriteText renders the experiment as text.
func (r *ClusterResult) WriteText(w io.Writer) {
	fmt.Fprintf(w, "cluster: YCSB-A, %d records / %d ops, %d clients, %d nodes x %d shards, %d slots, %s mode\n",
		r.Records, r.Operations, r.Clients, r.Nodes, r.Shards, r.Slots, r.Mode)
	fmt.Fprintf(w, "faulty window: %d ok / %d failed ops (error rate %.2f%%) in %.2fs (%.0f ops/s, p50 %.0fus, p99 %.0fus); %d net faults\n",
		r.OpsOK, r.OpsFailed, r.ErrorRate*100, r.WallSeconds, r.OpsPerSec, r.P50us, r.P99us, r.NetFaults)
	fmt.Fprintf(w, "routing: %d MOVED redirects followed, %d map refreshes, %d newer maps adopted\n",
		r.MovedSeen, r.MapRefreshes, r.MapLoads)
	fmt.Fprintf(w, "join: epoch %d -> %d, %d slot(s) migrated live, joiner owns %d; %d records ingested, %d keys purged\n",
		r.EpochBefore, r.EpochAfter, r.SlotsMigrated, r.JoinerSlots, r.RecordsIngested, r.KeysPurged)
	fmt.Fprintf(w, "fencing: %d stale-epoch writes (must be 0), %d fences left standing (must be 0)\n",
		r.StaleEpochWrites, r.FencedSlotsLeft)
	r.writeVerdict(w, r.Pass())
}
