package sim

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"time"

	"nvref/internal/cluster"
	"nvref/internal/fault"
	"nvref/internal/fault/inject"
	"nvref/internal/obs"
	"nvref/internal/parity"
	"nvref/internal/pmem"
	"nvref/internal/rt"
	"nvref/internal/server"
	"nvref/internal/sim/linz"
)

// Fixed simulation sizes. Small shard/pool counts keep a run cheap; the
// schedules, not the data volume, are what exercise the machinery.
const (
	simShards   = 2
	simSlots    = 16
	simPoolSize = 4 << 20

	// opTick is the virtual time the driver charges per client
	// operation — the only per-op clock movement.
	opTick = time.Millisecond

	// scrubOps is the client operations between scrub passes (Parity).
	scrubOps = 10

	// clientWallTimeout is the per-operation I/O deadline on sim client
	// connections. It is the liveness safety net: if a schedule ever
	// wedges a node in a state where a reply cannot come (e.g. an ack
	// held for a dead replica with no clock advance), the operation
	// resolves as indeterminate instead of hanging the run.
	clientWallTimeout = 3 * time.Second

	barrierWait = 5 * time.Second

	// parkBound is the longest a replication pull stays parked on a sim
	// primary: the server clamps a park to half the replica liveness
	// window, and every sim node runs with simReplLive.
	parkBound = simReplLive / 2
)

// RunConfig parameterizes one simulation run.
type RunConfig struct {
	Schedule Schedule
	Seed     int64
	// HistoryDir, when set, receives the run's history as
	// <schedule>-seed<seed>.jsonl for offline replay and inspection.
	HistoryDir string
}

// RunResult is the verdict of one run: what the history and the nodes'
// counters showed, and whether every check judge derives from the
// schedule held.
type RunResult struct {
	Schedule string `json:"schedule"`
	Seed     int64  `json:"seed"`
	Events   int    `json:"events"`
	OpsOK    int    `json:"ops_ok"`
	OpsFail  int    `json:"ops_fail"`
	OpsInfo  int    `json:"ops_info"`
	PutsOK   int    `json:"puts_ok"`
	// SweepFails counts reads of the final read-back sweep that did not
	// come back ok.
	SweepFails int `json:"sweep_fails"`
	Crashes    int `json:"crashes"`
	// Nemesis firings: shard kills, corruptions by class, and the faults
	// injected on the client connections.
	Kills     int    `json:"kills,omitempty"`
	BitFlips  int    `json:"bit_flips,omitempty"`
	TornPages int    `json:"torn_pages,omitempty"`
	NetFaults uint64 `json:"net_faults,omitempty"`
	// CrashSamples holds what each ActCrash of a primary with a live
	// replica read just before the kill.
	CrashSamples []CrashSample `json:"crash_samples,omitempty"`
	// Counters summed over the nodes still up at the end of the run (a
	// counter dies with its incarnation). PromotionsExported comes from
	// each node's metrics registry; it is -1 when a replicated node does
	// not export its promotion series.
	Restarts           uint64 `json:"restarts,omitempty"`
	Promotions         uint64 `json:"promotions"`
	PromotionsExported int64  `json:"promotions_exported"`
	// PromotionDumps counts the promotion triggers in every node's flight
	// recorder, which lives as long as the node, across its incarnations.
	PromotionDumps int `json:"promotion_dumps"`
	// Media counters from each node's registry, summed over every
	// incarnation: an ActCrash reads them just before the kill, so a
	// repair the scrubber made before a crash still counts.
	PagesRepaired      uint64 `json:"pages_repaired,omitempty"`
	MediaUnrecoverable uint64 `json:"media_unrecoverable,omitempty"`
	// RecoveryRepairs sums the pages each restarted node reconstructed
	// from parity while opening its stores: the crash-recovery repair
	// path, read as the restart returns.
	RecoveryRepairs uint64 `json:"recovery_repairs,omitempty"`
	// ReplLag is the primary's replication lag once the sweep's wait for
	// it to drain ended (0 with no live replica).
	ReplLag uint64 `json:"repl_lag"`
	// Cluster counters at the end of the run: the slots the rebalancing
	// node owns, the lowest and highest map epoch across the live nodes,
	// and sums over the live nodes of slots donated, post-fence writes
	// the handover audits found and fences still standing; MapRefreshes
	// sums the sim clients' cluster-map refreshes.
	JoinerSlots      int    `json:"joiner_slots,omitempty"`
	EpochLow         uint64 `json:"epoch_low,omitempty"`
	EpochHigh        uint64 `json:"epoch_high,omitempty"`
	MigratedOut      uint64 `json:"migrated_out,omitempty"`
	StaleEpochWrites uint64 `json:"stale_epoch_writes"`
	FencedSlots      int    `json:"fenced_slots"`
	MapRefreshes     uint64 `json:"map_refreshes,omitempty"`
	// ActionErrors lists scripted actions that could not fire.
	ActionErrors     []string `json:"action_errors,omitempty"`
	CheckerExhausted bool     `json:"checker_exhausted,omitempty"`
	LinzOK           bool     `json:"linz_ok"`
	Violations       []string `json:"violations,omitempty"`
	StatesVisited    int      `json:"states_visited"`
	ExpectViolation  bool     `json:"expect_violation"`
	// Ok means every check of the verdict held; Detail names each one
	// that did not.
	Ok          bool   `json:"ok"`
	Detail      string `json:"detail,omitempty"`
	HistoryPath string `json:"history_path,omitempty"`
	History     []byte `json:"-"`

	notes []string // informational, appended to Detail
}

// CrashSample is what an ActCrash reads off a primary with a live replica
// the instant before it kills it: the primary's held-ack discipline, and
// the replication work its replica did, whose counts depend on timing (how
// many records a pull ships; whether a request a severed client connection
// left behind has landed yet), so the JSON that replays compare omits them.
type CrashSample struct {
	Node         string `json:"node"`
	DegradedAcks uint64 `json:"degraded_acks"`
	TimeoutAcks  uint64 `json:"timeout_acks"`
	Pulls        uint64 `json:"-"`
	Applies      uint64 `json:"-"`
}

// node is one simulated server process: its identity, its retained
// stores (which survive crashes, as pmem does), and the live instance.
type node struct {
	name        string
	roleReplica bool
	follow      string // node name this replica follows
	stores      []pmem.Store
	logStores   []pmem.Store
	// cluster topology only:
	clusterStore pmem.Store
	bootstrap    *cluster.Map
	// reg outlives incarnations: each restart rebinds its series. So does
	// flight, the in-memory flight recorder every incarnation notes its
	// incidents to.
	reg    *obs.Registry
	flight *obs.FlightRecorder
	// waitedPromotions counts the ActWaitRole primary actions fired at
	// this node.
	waitedPromotions int
	// pullsBase is this replica's follower Pulls when it last lost its
	// primary to a crash or a cut (0 from its own start): ActWaitConn
	// waits for a pull past it, one served since.
	pullsBase uint64

	srv *server.Server
	up  bool
}

type sim struct {
	sched Schedule
	seed  int64
	vc    *VClock
	net   *Net
	hist  *History
	rng   *rand.Rand

	nodes map[string]*node
	order []string // client rotation order

	val   uint64 // global write-value sequencer
	steps int    // client operations run

	// Read gates (GatedReads schedules): newest acknowledged per-shard
	// sequence, and which shard each key hashed to. Driver-thread only.
	gateShard map[uint64]uint32
	gateMax   map[uint32]uint64

	faults *Faults // on every client connection of a Flaky schedule

	// res collects the nemesis firings as they happen. Its Kills picks
	// the shard each ActKillShard hits; corruptN counts ActCorrupt
	// firings: it alternates the fault class and salts the per-firing
	// corruption RNG, so every firing is deterministic in (seed, firing
	// index) alone.
	res      *RunResult
	corruptN uint64

	joiner *node // the node ActRebalance steps
}

// Run executes one schedule under one seed and checks the recorded
// history for durable linearizability.
func Run(rc RunConfig) (*RunResult, error) {
	sched := rc.Schedule
	if sched.Clients <= 0 {
		sched.Clients = 1
	}
	if sched.Keys <= 0 {
		sched.Keys = 1
	}
	if sched.Script == nil && sched.Ops <= 0 {
		return nil, errors.New("sim: schedule has no operations")
	}
	s := &sim{
		sched:     sched,
		seed:      rc.Seed,
		vc:        NewVClock(),
		net:       NewNet(),
		rng:       rand.New(rand.NewSource(rc.Seed)),
		nodes:     make(map[string]*node),
		gateShard: make(map[uint64]uint32),
		gateMax:   make(map[uint32]uint64),
		res:       &RunResult{Schedule: sched.Name, Seed: rc.Seed, ExpectViolation: sched.ExpectViolation},
	}
	s.hist = NewHistory(s.vc)
	if sched.Flaky {
		every := sched.FlakyEvery
		if every <= 0 {
			every = 40
		}
		s.faults = &Faults{
			Sched: fault.NewPeriodic("", every),
			Seed:  uint64(rc.Seed) | 1,
			Clock: s.vc,
		}
	}
	defer s.teardown()

	var err error
	if sched.Topology == "cluster" {
		err = s.setupCluster()
	} else {
		err = s.setupPair()
	}
	if err != nil {
		return nil, err
	}

	clients := make([]*simClient, sched.Clients)
	for i := range clients {
		clients[i] = &simClient{s: s, id: i}
	}
	defer func() {
		for _, c := range clients {
			c.close()
		}
	}()

	ops := sched.Script
	if ops == nil {
		ops = s.generateOps()
	}
	acts := sortedActions(sched)

	res := s.res
	ai := 0
	fire := func(a Action) {
		if msg := s.fire(a); msg != "" {
			res.ActionErrors = append(res.ActionErrors, msg)
		}
	}
	for i, op := range ops {
		for ai < len(acts) && acts[ai].AfterOp <= i {
			fire(acts[ai])
			ai++
		}
		s.step(clients[s.rng.Intn(len(clients))], op)
	}
	for ; ai < len(acts); ai++ {
		fire(acts[ai])
	}
	// The read-back sweep: every link healed, every key read once, so the
	// checker judges each acknowledged write against a read of its key.
	fire(Action{Kind: ActHealAll})
	for k := 0; k < sched.Keys; k++ {
		if s.step(clients[k%len(clients)], OpSpec{Kind: OpGet, Key: k}) != "ok" {
			res.SweepFails++
		}
	}
	s.drainLag()
	s.collect()
	for _, c := range clients {
		if c.cc != nil {
			res.MapRefreshes += c.cc.MapRefreshes()
		}
	}

	res.History = s.hist.JSONL()
	for _, e := range s.hist.Events() {
		res.Events++
		switch e.Type {
		case "crash":
			res.Crashes++
		case "ret":
			switch e.Outcome {
			case "ok":
				res.OpsOK++
				if e.Op == "put" {
					res.PutsOK++
				}
			case "fail":
				res.OpsFail++
			case "info":
				res.OpsInfo++
			}
		}
	}
	if rc.HistoryDir != "" {
		path := filepath.Join(rc.HistoryDir,
			fmt.Sprintf("%s-seed%d.jsonl", sched.Name, rc.Seed))
		if werr := os.WriteFile(path, res.History, 0o644); werr == nil {
			res.HistoryPath = path
		} else {
			res.notes = append(res.notes, fmt.Sprintf("history write: %v", werr))
		}
	}

	lh, err := s.hist.ToLinz()
	if err != nil {
		return nil, fmt.Errorf("sim: malformed history: %w", err)
	}
	check := linz.Check(lh)
	res.LinzOK = check.Ok
	res.Violations = check.Violations
	res.StatesVisited = check.Visited
	res.CheckerExhausted = check.Exhausted
	res.judge(expect(sched))
	return res, nil
}

// drainLag waits, on wall time, for every primary with a live replica to
// see its replication lag reach zero, and records what is left.
func (s *sim) drainLag() {
	for _, name := range s.order {
		p := s.primaryOf(s.nodes[name])
		if p == nil {
			continue
		}
		lag := func() uint64 { return p.srv.CollectStats().ReplLagRecords }
		_ = waitUntil(barrierWait, func() bool { return lag() == 0 })
		s.res.ReplLag += lag()
	}
}

// primaryOf returns the live primary that rep, a live replica, follows;
// nil when rep is no such replica.
func (s *sim) primaryOf(rep *node) *node {
	p := s.nodes[rep.follow]
	if !rep.roleReplica || !rep.up || p == nil || !p.up ||
		rep.srv.Role() != server.RoleReplica || p.srv.Role() != server.RolePrimary {
		return nil
	}
	return p
}

// series reads every series n's registry holds for its current
// incarnation.
func (n *node) series() map[string]uint64 {
	series := make(map[string]uint64)
	for _, se := range n.reg.Snapshot().Series {
		series[se.Name] = uint64(se.Value)
	}
	return series
}

// readMedia adds the media counters n's registry holds for its current
// incarnation to the result, and returns every series it read.
func (s *sim) readMedia(n *node) map[string]uint64 {
	series := n.series()
	s.res.PagesRepaired += series["pages_repaired_total"]
	s.res.MediaUnrecoverable += series["unrecoverable_total"]
	return series
}

// collect sums the counters of the nodes still up, the promotion triggers
// every node's flight recorder holds, and the faults injected on the client
// connections.
func (s *sim) collect() {
	res := s.res
	for _, name := range s.order {
		n := s.nodes[name]
		res.PromotionDumps += n.promotionDumps()
		if !n.up {
			continue
		}
		st := n.srv.CollectStats()
		res.Promotions += st.Promotions
		for _, sh := range st.PerShard {
			res.Restarts += sh.Restarts
		}
		series := s.readMedia(n)
		v, ok := series["server_promotions_total"]
		switch {
		case st.Role == "standalone":
		case !ok:
			res.PromotionsExported = -1
		case res.PromotionsExported >= 0:
			res.PromotionsExported += int64(v)
		}
		if cs := st.Cluster; cs != nil {
			if res.EpochLow == 0 || cs.Epoch < res.EpochLow {
				res.EpochLow = cs.Epoch
			}
			res.EpochHigh = max(res.EpochHigh, cs.Epoch)
			res.MigratedOut += series["server_cluster_migrated_out_total"]
			res.StaleEpochWrites += cs.StaleEpochWrites
			res.FencedSlots += cs.FencedSlots
			if n == s.joiner {
				res.JoinerSlots = cs.SlotsOwned
			}
		}
	}
	if s.faults != nil {
		drops, truncs, delays := s.faults.Counts()
		res.NetFaults = drops + truncs + delays
	}
}

// promotionDumps counts the promotion triggers n's flight recorder holds.
func (n *node) promotionDumps() int {
	dumps := 0
	for _, ev := range n.flight.Events() {
		if ev.Kind == server.TriggerPromotion {
			dumps++
		}
	}
	return dumps
}

func (s *sim) teardown() {
	for _, n := range s.nodes {
		if n.up {
			n.srv.Abort()
			n.up = false
		}
	}
}

// --- topology setup ---

func (s *sim) newNode(name string) *node {
	n := &node{name: name, reg: obs.NewRegistry(), flight: obs.NewFlightRecorder(0, "", nil)}
	for i := 0; i < simShards; i++ {
		n.stores = append(n.stores, pmem.NewMemStore())
		n.logStores = append(n.logStores, pmem.NewMemStore())
	}
	s.nodes[name] = n
	s.order = append(s.order, name)
	return n
}

// config builds a node's server configuration. Crash-survival posture:
// checkpoints off (CheckpointEvery -1) and the log image flushed on
// every append, so a kill -9 recovers by replaying the full retained
// log — and the primary's log is never truncated, which is also what
// lets a rejoining follower pull a contiguous tail.
func (s *sim) config(n *node) server.Config {
	cfg := server.Config{
		Shards:          simShards,
		Mode:            rt.HW,
		PoolSize:        simPoolSize,
		CheckpointEvery: -1,
		LogFlushEvery:   1,
		Clock:           s.vc,
		Reg:             n.reg,
		Flight:          n.flight,
		AckTimeout:      simAckTimeout,
		ReplLiveWindow:  simReplLive,
		StoreFor:        func(i int) pmem.Store { return n.stores[i] },
		LogStoreFor:     func(i int) pmem.Store { return n.logStores[i] },
	}
	if s.sched.CheckpointEvery != 0 {
		cfg.CheckpointEvery = s.sched.CheckpointEvery
	}
	if s.sched.Parity {
		// Media schedules: parity sidecars on every checkpoint. The scrub
		// passes are the driver's (step), not a background scrubber's.
		cfg.Parity = parity.Default()
	}
	switch {
	case n.clusterStore != nil:
		cfg.ClusterSelf = n.name
		cfg.ClusterMap = n.bootstrap
		cfg.ClusterStore = n.clusterStore
	case n.roleReplica:
		cfg.Role = server.RoleReplica
		cfg.FollowAddr = n.follow
		cfg.FollowDial = s.net.Dialer(n.name)
		cfg.PromoteAfter = s.sched.PromoteAfter
		cfg.FenceAfter = s.sched.FenceAfter
	default:
		cfg.Role = server.RolePrimary
		cfg.FenceAfter = s.sched.FenceAfter
	}
	return cfg
}

// start boots (or reboots) a node listening under its name, so peers and
// clients reach a restarted node where they always did.
func (s *sim) start(n *node) error {
	l, err := s.net.Listen(n.name)
	if err != nil {
		return fmt.Errorf("sim: node %s: %w", n.name, err)
	}
	srv, err := server.New(s.config(n))
	if err != nil {
		l.Close()
		return fmt.Errorf("sim: node %s: %w", n.name, err)
	}
	go srv.Serve(l)
	n.srv, n.up, n.pullsBase = srv, true, 0
	return nil
}

func (s *sim) setupPair() error {
	a := s.newNode("a")
	b := s.newNode("b")
	b.roleReplica = true
	b.follow = "a"
	if err := s.start(a); err != nil {
		return err
	}
	if err := s.start(b); err != nil {
		return err
	}
	// Acks must be held against replica durability from the first write.
	return waitUntil(barrierWait, func() bool { return s.pulledPast(b) })
}

func (s *sim) setupCluster() error {
	a := s.newNode("a")
	b := s.newNode("b")
	a.clusterStore = pmem.NewMemStore()
	b.clusterStore = pmem.NewMemStore()
	m, err := cluster.New(simSlots, []string{a.name})
	if err != nil {
		return err
	}
	a.bootstrap = m
	if err := s.start(a); err != nil {
		return err
	}
	if err := s.start(b); err != nil {
		return err
	}
	return b.srv.JoinCluster(a.name, s.net.Dialer("b"))
}

// --- nemesis execution ---
//
// Each action returns once what it set off has run its course, so the
// next client operation meets a state that the schedule and the seed alone
// decide. A cut or a crash returns once settled holds; an advance once
// every pull it woke has been asked again. The other actions are
// synchronous. A heal only clears link-table entries: the followers it
// lets back in re-dial on their own backoff, and a schedule that needs
// the reconnect waits for it with ActWaitConn.

func (s *sim) fire(a Action) string {
	switch a.Kind {
	case ActPartition:
		s.hist.Nemesis(a.Node, "partition "+a.Node+"<->"+a.Peer)
		s.net.Partition(a.Node, a.Peer)
		return s.settleCut("partition " + a.Node + "<->" + a.Peer)
	case ActOneway:
		s.hist.Nemesis(a.Node, "block "+a.Node+"->"+a.Peer)
		s.net.Block(a.Node, a.Peer)
		return s.settleCut("block " + a.Node + "->" + a.Peer)
	case ActHeal:
		s.hist.Nemesis(a.Node, "heal "+a.Node+"<->"+a.Peer)
		s.net.Heal(a.Node, a.Peer)
	case ActHealAll:
		s.hist.Nemesis("", "heal-all")
		s.net.HealAll()
	case ActAdvance:
		s.hist.Nemesis("", "advance "+a.D.String())
		return s.advance(a.D)
	case ActCrash:
		n := s.nodes[a.Node]
		if n == nil || !n.up {
			return "crash: node " + a.Node + " not up"
		}
		for _, name := range s.order {
			if rep := s.nodes[name]; s.primaryOf(rep) == n {
				s.res.CrashSamples = append(s.res.CrashSamples, sample(n, rep))
			}
		}
		s.readMedia(n)
		s.hist.Crash(n.name)
		n.srv.Abort()
		n.up = false
		return s.settleCut("crash " + a.Node)
	case ActRestart:
		n := s.nodes[a.Node]
		if n == nil || n.up {
			return "restart: node " + a.Node + " not crashed"
		}
		switch a.Role {
		case "replica":
			n.roleReplica = true
			n.follow = a.Peer
		case "primary":
			n.roleReplica = false
		}
		// Recovery runs inside server.New; a restarted replica's first
		// pull is what ActWaitConn waits for.
		if err := s.start(n); err != nil {
			return err.Error()
		}
		for _, sh := range n.srv.CollectStats().PerShard {
			s.res.RecoveryRepairs += sh.PagesRepaired
		}
		s.hist.Nemesis(n.name, "restart")
	case ActCorrupt:
		n := s.nodes[a.Node]
		if n == nil || !n.up {
			return "corrupt: node " + a.Node + " not up"
		}
		// Force a fresh checkpoint first, so a current image exists to
		// damage; then damage it with every shard of the node parked and
		// no save in flight, so no checkpoint — a replica's own, driven by
		// its pullers, included — lands between a load and its save. The
		// damage is done when InjectQuiet returns; the driver's next scrub
		// pass finds it.
		if err := n.srv.Checkpoint(); err != nil {
			return "corrupt " + a.Node + ": checkpoint: " + err.Error()
		}
		class, label, count := fault.BitFlip, "bitflip", &s.res.BitFlips
		if s.corruptN%2 == 1 {
			class, label, count = fault.Torn, "torn-page", &s.res.TornPages
		}
		rng := fault.NewRand(uint64(s.seed)<<8 ^ 0xC0FFEE ^ s.corruptN)
		s.corruptN++
		hit := 0
		err := n.srv.InjectQuiet(func() error {
			for _, st := range n.stores {
				names, err := st.List()
				if err != nil {
					return err
				}
				for _, name := range names {
					if parity.IsSidecar(name) {
						continue
					}
					if _, err := inject.CorruptStored(st, name, class, parity.DefaultPageSize, rng); err != nil {
						return fmt.Errorf("%s: %w", name, err)
					}
					hit++
				}
			}
			return nil
		})
		if err != nil {
			return "corrupt " + a.Node + ": " + err.Error()
		}
		if hit == 0 {
			return "corrupt " + a.Node + ": no checkpointed image to damage"
		}
		*count++
		s.hist.Nemesis(n.name, fmt.Sprintf("corrupt %s x%d", label, hit))
	case ActKillShard:
		n := s.nodes[a.Node]
		if n == nil || !n.up {
			return "kill-shard: node " + a.Node + " not up"
		}
		// InjectPanic returns once the supervisor has restarted the worker,
		// so nothing is left to settle.
		shard := s.res.Kills % simShards
		s.res.Kills++
		s.hist.Nemesis(n.name, fmt.Sprintf("kill-shard %d", shard))
		if err := n.srv.InjectPanic(shard); err != nil {
			return "kill-shard " + a.Node + ": " + err.Error()
		}
	case ActWaitRole:
		// A promotion flips the role first, then scrubs, counts itself and
		// notes its flight-recorder trigger last. Settling on the role alone
		// lets the rest of a short script, and collect, outrun the promotion
		// under load; settle on the trigger.
		n := s.nodes[a.Node]
		n.waitedPromotions++
		return s.settle("wait-role "+a.Node, func() bool {
			return n.up && n.srv.Role() == server.RolePrimary && n.promotionDumps() >= n.waitedPromotions
		})
	case ActWaitConn:
		n := s.nodes[a.Node]
		return s.settle("wait-conn "+a.Node, func() bool { return n.up && s.pulledPast(n) })
	case ActRebalance:
		n := s.nodes[a.Node]
		if n == nil || !n.up {
			return "rebalance: node " + a.Node + " not up"
		}
		// One slot per firing, handed over before the action returns.
		s.joiner = n
		s.hist.Nemesis(n.name, "rebalance")
		moved, err := n.srv.RebalanceOnce(s.net.Dialer(n.name))
		if err != nil {
			return "rebalance " + a.Node + ": " + err.Error()
		}
		if !moved {
			return "rebalance " + a.Node + ": no slot left to move"
		}
	}
	return ""
}

// settle waits for cond, and names the action when it never holds.
func (s *sim) settle(action string, cond func() bool) string {
	if err := waitUntil(barrierWait, cond); err != nil {
		return action + ": " + err.Error()
	}
	return ""
}

// settleCut waits until settled holds, then rebases each follower cut
// off from its primary on the pulls it has: a pull past that count was
// served after the cut, by whichever incarnation of the primary is up.
func (s *sim) settleCut(action string) string {
	if msg := s.settle(action, s.settled); msg != "" {
		return msg
	}
	for _, rep := range s.cutOff() {
		if fs := rep.srv.CollectStats().Follower; fs != nil {
			rep.pullsBase = fs.Pulls
		}
	}
	return ""
}

// settled reports whether every cut and crash so far has run its course:
// every link that is cut, or whose dialing node is down, was served to the
// end by the live node it reaches — so no request sent before the cut is
// still on its way — and every follower cut off from its primary has let
// go of it, its last pull reply applied.
func (s *sim) settled() bool {
	for _, from := range s.order {
		f := s.nodes[from]
		for _, to := range s.order {
			if to != from && s.nodes[to].up && (!f.up || s.net.Blocked(from, to)) && !s.net.Drained(from, to) {
				return false
			}
		}
	}
	return !slices.ContainsFunc(s.cutOff(), func(rep *node) bool {
		fs := rep.srv.CollectStats().Follower
		return fs != nil && fs.Connected
	})
}

// cutOff returns the live replicas whose primary is down or cut off.
func (s *sim) cutOff() []*node {
	var out []*node
	for _, name := range s.order {
		rep := s.nodes[name]
		if !rep.up || !rep.roleReplica || rep.srv.Role() != server.RoleReplica {
			continue
		}
		if p := s.nodes[rep.follow]; !p.up || s.net.Blocked(rep.name, p.name) {
			out = append(out, rep)
		}
	}
	return out
}

// pulledPast reports whether rep's follower has had a pull answered past
// pullsBase. A connection's first pull is never parked, so it answers
// within a round trip of the dial.
func (s *sim) pulledPast(rep *node) bool {
	fs := rep.srv.CollectStats().Follower
	return fs != nil && fs.Pulls > rep.pullsBase
}

// linked returns the live replicas connected to their live primary over
// an uncut link.
func (s *sim) linked() []*node {
	var out []*node
	for _, name := range s.order {
		rep := s.nodes[name]
		if p := s.primaryOf(rep); p != nil && !s.net.Blocked(rep.name, p.name) {
			if fs := rep.srv.CollectStats().Follower; fs != nil && fs.Connected {
				out = append(out, rep)
			}
		}
	}
	return out
}

// advance moves the virtual clock by d. Every pull parked on a linked
// primary is first let come to rest; an advance past parkBound then ends
// each one, and the action returns once each follower has pulled again and
// parked anew — so the primary stamped the replica's contact at the new
// time before any client operation reads its fencing or liveness window.
func (s *sim) advance(d time.Duration) string {
	reps := s.linked()
	parked := func(rep *node) bool {
		return s.nodes[rep.follow].series()["server_repl_parked_pulls"] == simShards
	}
	before := make(map[*node]uint64)
	for _, rep := range reps {
		if msg := s.settle("advance: "+rep.name+" at rest", func() bool { return parked(rep) }); msg != "" {
			return msg
		}
		before[rep] = rep.srv.CollectStats().Follower.Pulls
	}
	s.vc.Advance(d)
	if d < parkBound {
		return ""
	}
	for _, rep := range reps {
		if msg := s.settle("advance: "+rep.name+" pulled again", func() bool {
			fs := rep.srv.CollectStats().Follower
			return fs != nil && fs.Pulls >= before[rep]+simShards && parked(rep)
		}); msg != "" {
			return msg
		}
	}
	return ""
}

// sample reads a primary's held-ack discipline and its replica's
// replication work.
func sample(p, rep *node) CrashSample {
	c := CrashSample{Node: p.name}
	for _, sh := range p.srv.CollectStats().PerShard {
		if sh.Repl != nil {
			c.DegradedAcks += sh.Repl.DegradedAcks
			c.TimeoutAcks += sh.Repl.TimeoutAcks
		}
	}
	if fs := rep.srv.CollectStats().Follower; fs != nil {
		c.Pulls, c.Applies = fs.Pulls, fs.Applied
	}
	return c
}

// --- workload ---

func (s *sim) generateOps() []OpSpec {
	ops := make([]OpSpec, 0, s.sched.Ops)
	for i := 0; i < s.sched.Ops; i++ {
		r := s.rng.Intn(1000)
		k := s.rng.Intn(s.sched.Keys)
		switch {
		case r < 500:
			ops = append(ops, OpSpec{Kind: OpPut, Key: k})
		case r < 1000-s.sched.DeleteFrac:
			ops = append(ops, OpSpec{Kind: OpGet, Key: k})
		default:
			ops = append(ops, OpSpec{Kind: OpDelete, Key: k})
		}
	}
	return ops
}

func keyFor(idx int) uint64 { return uint64(1000 + idx) }

// step runs one client operation, records it, and returns its outcome.
func (s *sim) step(cl *simClient, op OpSpec) string {
	key := keyFor(op.Key)
	keyStr := strconv.Itoa(op.Key)
	var outcome string
	switch op.Kind {
	case OpPut:
		s.val++
		v := s.val
		s.hist.Invoke(cl.id, "put", keyStr, v)
		outcome = cl.put(key, v)
		s.hist.Return(cl.id, "put", keyStr, v, false, outcome)
	case OpDelete:
		s.hist.Invoke(cl.id, "delete", keyStr, 0)
		var found bool
		found, outcome = cl.del(key)
		s.hist.Return(cl.id, "delete", keyStr, 0, found, outcome)
	default:
		s.hist.Invoke(cl.id, "get", keyStr, 0)
		var v uint64
		var found bool
		v, found, outcome = cl.get(key)
		s.hist.Return(cl.id, "get", keyStr, v, found, outcome)
	}
	s.vc.Advance(opTick)
	// Scrub between operations, not on a timer: a pass that ran late would
	// repair damage at rest in one replay and leave it to recovery in another.
	if s.steps++; s.sched.Parity && s.steps%scrubOps == 0 {
		for _, name := range s.order {
			if n := s.nodes[name]; n.up {
				n.srv.Scrub()
			}
		}
	}
	return outcome
}

func (s *sim) noteGate(key uint64, shard uint32, seq uint64) {
	s.gateShard[key] = shard
	if seq > s.gateMax[shard] {
		s.gateMax[shard] = seq
	}
}

func (s *sim) gateFor(key uint64) uint64 {
	sh, ok := s.gateShard[key]
	if !ok {
		return 0
	}
	return s.gateMax[sh]
}

// --- sim client ---

// simClient issues one operation at a time and classifies every attempt
// itself — deliberately NOT the production resilient client, whose
// internal retries would hide indeterminate attempts from the history.
// It is sticky: it stays on its current node until that node refuses or
// disappears, then rotates through the node order deterministically.
type simClient struct {
	s        *sim
	id       int
	cur      int
	conn     *server.Client
	connNode string
	cc       *server.ClusterClient
}

func (c *simClient) close() {
	c.drop()
	if c.cc != nil {
		c.cc.Close()
		c.cc = nil
	}
}

func (c *simClient) rotate() { c.cur = (c.cur + 1) % len(c.s.order) }

func (c *simClient) drop() {
	if c.conn != nil {
		c.conn.Close()
		c.conn, c.connNode = nil, ""
	}
}

func (c *simClient) name() string { return "c" + strconv.Itoa(c.id) }

// ensure returns a connection to the client's current node, or nil when
// the node is down or unreachable (a definite refusal: nothing was sent).
func (c *simClient) ensure() *server.Client {
	n := c.s.nodes[c.s.order[c.cur]]
	if !n.up {
		c.drop()
		return nil
	}
	if c.conn != nil && c.connNode == n.name {
		return c.conn
	}
	c.drop()
	nc, err := c.dial(n.name)
	if err != nil {
		return nil
	}
	cl := server.NewClient(nc)
	cl.SetTimeout(clientWallTimeout)
	c.conn, c.connNode = cl, n.name
	return cl
}

// dial connects the client to a node, through the run's injected faults.
func (c *simClient) dial(node string) (net.Conn, error) {
	return c.s.net.FaultyDialer(c.name(), c.s.faults)(node)
}

// isRefusal reports errors that mean the operation definitely did not
// take effect: the server named a reason and refused before touching the
// data path. Everything else — severed connections, timeouts, and
// StatusUnavailable (which a primary also returns for a write it APPLIED
// but could not confirm on the replica) — is indeterminate.
func isRefusal(err error) bool {
	return errors.Is(err, server.ErrReadOnly) || errors.Is(err, server.ErrLagging) ||
		errors.Is(err, server.ErrMoved) || errors.Is(err, server.ErrWrongEpoch) ||
		errors.Is(err, server.ErrShed) || errors.Is(err, server.ErrDeadline) ||
		errors.Is(err, server.ErrProto)
}

func (c *simClient) attempts() int { return 2*len(c.s.order) + 2 }

func (c *simClient) put(key, val uint64) string {
	if c.s.sched.Topology == "cluster" {
		cc := c.ensureCluster()
		if cc == nil {
			return "fail"
		}
		if err := cc.Put(key, val); err != nil {
			// The routing client may have sent the write before the
			// error surfaced: indeterminate.
			return "info"
		}
		return "ok"
	}
	return c.try(func(cl *server.Client) error {
		if !c.s.sched.GatedReads {
			return cl.Put(key, val)
		}
		sh, seq, err := cl.PutSeq(key, val)
		if err == nil {
			c.s.noteGate(key, sh, seq)
		}
		return err
	})
}

func (c *simClient) del(key uint64) (bool, string) {
	if c.s.sched.Topology == "cluster" {
		cc := c.ensureCluster()
		if cc == nil {
			return false, "fail"
		}
		found, err := cc.Delete(key)
		if err != nil {
			return false, "info"
		}
		return found, "ok"
	}
	var found bool
	out := c.try(func(cl *server.Client) (err error) {
		found, err = cl.Delete(key)
		return err
	})
	return found, out
}

// get classifies every read error as a definite failure: a read has no
// side effect, so a lost response carries no durability obligation and
// the checker simply drops it.
func (c *simClient) get(key uint64) (uint64, bool, string) {
	if c.s.sched.Topology == "cluster" {
		cc := c.ensureCluster()
		if cc == nil {
			return 0, false, "fail"
		}
		v, f, err := cc.Get(key)
		if err != nil {
			return 0, false, "fail"
		}
		return v, f, "ok"
	}
	var v uint64
	var f bool
	if c.try(func(cl *server.Client) (err error) {
		if c.s.sched.GatedReads {
			v, f, err = cl.GetAt(key, c.s.gateFor(key))
		} else {
			v, f, err = cl.Get(key)
		}
		return err
	}) != "ok" {
		return 0, false, "fail"
	}
	return v, f, "ok"
}

// try runs op against the client's current node, rotating through the
// nodes up to attempts() times. A refusal only rotates; any other error
// also drops the connection and makes the outcome indeterminate, since op
// may have taken effect. It returns "ok", "info" (indeterminate) or "fail".
func (c *simClient) try(op func(*server.Client) error) string {
	sawInfo := false
	for a := 0; a < c.attempts(); a++ {
		cl := c.ensure()
		if cl == nil {
			c.rotate()
			continue
		}
		err := op(cl)
		if err == nil {
			return "ok"
		}
		if !isRefusal(err) {
			// The request may still land: the server closes its end once it
			// has replied, and a retry must not overtake it.
			sawInfo = true
			node := c.connNode
			c.drop()
			_ = waitUntil(barrierWait, func() bool { return c.s.net.Drained(c.name(), node) })
		}
		c.rotate()
	}
	if sawInfo {
		return "info"
	}
	return "fail"
}

func (c *simClient) ensureCluster() *server.ClusterClient {
	if c.cc != nil {
		return c.cc
	}
	cc, err := server.DialCluster(c.s.order, server.RetryPolicy{
		MaxAttempts: 4,
		BaseBackoff: time.Millisecond,
		MaxBackoff:  20 * time.Millisecond,
		Timeout:     2 * time.Second,
		Seed:        uint64(c.s.seed) + uint64(c.id)*977,
	}, c.dial)
	if err != nil {
		return nil
	}
	c.cc = cc
	return cc
}

// waitUntil polls cond every millisecond until it holds or the budget
// runs out (wall time: barriers are liveness, not history).
func waitUntil(d time.Duration, cond func() bool) error {
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			return fmt.Errorf("condition not reached within %s", d)
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}
