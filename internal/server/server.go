package server

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"nvref/internal/cluster"
	"nvref/internal/fault"
	"nvref/internal/obs"
	"nvref/internal/parity"
	"nvref/internal/pmem"
	"nvref/internal/repl"
	"nvref/internal/rt"
)

// Config parameterizes a Server.
type Config struct {
	// Shards is the number of independent engine shards (default 4).
	Shards int
	// Mode is the reference model every shard runs under (default rt.HW).
	// rt.Volatile stores absolute pointers, which cannot survive the pool
	// relocation that recovery performs, so the serving tier promotes it to
	// rt.HW.
	Mode rt.Mode
	// PoolSize is each shard's pool size (default 32 MiB). Checkpoints
	// snapshot the whole pool, so serving pools are far smaller than the
	// benchmark default.
	PoolSize uint64
	// QueueDepth bounds each shard's request queue (default 128); a full
	// queue applies backpressure to connection readers up to AdmitWait,
	// then sheds.
	QueueDepth int
	// CheckpointEvery checkpoints a shard after that many mutations
	// (default 8192; negative means only at explicit barriers and graceful
	// shutdown).
	CheckpointEvery int
	// AdmitWait bounds how long admission waits for space in a full shard
	// queue before answering StatusShed (default 50ms; negative sheds
	// immediately on a full queue).
	AdmitWait time.Duration
	// WedgeTimeout is how long a shard may hold queued work without making
	// progress before the watchdog declares it wedged and opens its
	// circuit breaker (default 2s; negative disables the watchdog).
	WedgeTimeout time.Duration
	// BreakerCooldown is how long an open shard breaker fails fast before
	// admitting a half-open probe (default 100ms).
	BreakerCooldown time.Duration
	// ScrubEvery, when positive, runs the background scrubber: idle
	// healthy shards are fsck-checked (and repaired if needed) at this
	// period, Pangolin-style. Zero disables scrubbing.
	ScrubEvery time.Duration
	// Parity, when enabled, arms the media-fault-tolerance layer on every
	// shard pool: checkpoints maintain per-page CRC32s plus an XOR parity
	// sidecar, crash recovery repairs corrupt pool images in place from
	// parity, and the background scrubber upgrades from detect-only to
	// scrub-and-repair over the stored images (see internal/parity).
	Parity parity.Policy
	// StoreFor supplies each shard's backing store. Nil stores every shard
	// in a fresh MemStore (persistent across crashes injected into this
	// server, not across processes).
	StoreFor func(shard int) pmem.Store
	// SchedFor, when non-nil, arms a per-shard fault scheduler; the shard
	// worker evaluates it at CrashPointOp before every data operation.
	SchedFor func(shard int) fault.Scheduler
	// Reg, when non-nil, receives the server's metrics: per-shard queue
	// depth gauges, op counters and latency histograms, supervisor and
	// breaker counters, plus connection and request counts. Reuse it with
	// obs.Mux to serve /metrics.
	Reg *obs.Registry
	// Logf, when non-nil, receives supervisor, watchdog, and scrubber
	// events (one line each).
	Logf func(format string, args ...any)
	// Clock is the time source for every correctness window the server
	// keeps: request deadlines, held-ack expiry, replica liveness, fencing,
	// promotion-by-silence, breaker cooldowns, and the watchdog's wedge
	// window. Nil uses the wall clock; the deterministic simulator
	// (internal/sim) passes a virtual clock so those windows open and close
	// at exactly reproducible points — the bound of a parked replication
	// pull among them, since when it returns decides when replica contact
	// is next stamped. Purely mechanical cadences — socket deadlines, dial
	// timeouts, the follower's re-dial backoff — stay on the wall clock
	// regardless, since they pace real goroutines and sockets.
	Clock fault.Clock

	// TraceSample, when positive, is the fraction of untraced requests the
	// server itself samples for span recording (clients may also request
	// sampling per request via the trace envelope). Setting any tracing
	// option attaches the tracing plane; leaving them all zero keeps the
	// hot path free of it.
	TraceSample float64
	// SlowOp, when positive, notes every operation slower than this
	// (end to end, admission to reply hand-off) into the flight recorder
	// as a wide event carrying its per-stage breakdown — sampled or not.
	SlowOp time.Duration
	// FlightDir is where flight-recorder triggers dump their JSONL
	// snapshots (empty: the incident ring stays in memory only).
	FlightDir string
	// Spans, when non-nil, receives the per-stage spans of sampled
	// requests. Defaults to a fresh recorder (over Reg) when any tracing
	// option is set.
	Spans *obs.SpanRecorder
	// Flight, when non-nil, is the incident flight recorder. Defaults to a
	// fresh recorder over FlightDir when the tracing plane is attached.
	Flight *obs.FlightRecorder

	// Role selects the replication role (default RoleStandalone: no
	// operation log, pre-replication behavior). A primary logs every write
	// and holds write acks for replica acknowledgment while a replica is
	// live; a replica follows a primary and rejects plain writes.
	Role int32
	// FollowAddr is the primary a replica pulls from (required for
	// RoleReplica).
	FollowAddr string
	// FollowDial, when non-nil, replaces the follower's dialer — the hook
	// fault injectors and in-process tests plug into.
	FollowDial func(addr string) (net.Conn, error)
	// FollowPoll is the floor of the follower's re-dial backoff (doubling
	// from it to ~200ms while the primary is unreachable) and its pause after
	// a pull reply it could not use (default 2ms). It is not a poll interval:
	// a connected follower parks its pull on the primary and never sleeps.
	// The field and its default exist only because benchmark/serve.go assigns
	// it and benchmark/ cannot change in the same PR as the code it measures;
	// the next change to benchmark/ drops the assignment, and the field and
	// the default go with it (a constant remains).
	FollowPoll time.Duration
	// AckTimeout bounds how long a primary holds a write ack waiting for
	// replica acknowledgment before failing it UNAVAILABLE (default 5s).
	AckTimeout time.Duration
	// ReplLiveWindow is how recently a replica must have pulled for the
	// primary to hold write acks for it (default 1s); with no recent pull,
	// writes are acked immediately and counted as degraded.
	ReplLiveWindow time.Duration
	// PromoteAfter, when positive, auto-promotes a replica whose primary
	// has been unreachable that long. Zero means promotion is manual
	// (Promote or the operator).
	PromoteAfter time.Duration
	// FenceAfter, when positive, makes a primary that has ever seen a
	// replica refuse writes (READONLY) once the replica has been silent
	// that long — the fencing side of silence-based promotion. Set it
	// below the replica's PromoteAfter so a partitioned primary stops
	// accepting writes before the replica can have taken over; failover
	// clients then rotate to the promoted replica. Zero disables fencing,
	// accepting the documented split-brain window under partition.
	FenceAfter time.Duration
	// LogStoreFor supplies each shard's operation-log store (replicated
	// roles only). Nil keeps the logs in memory — crash recovery then
	// replays nothing, but log shipping still works.
	LogStoreFor func(shard int) pmem.Store
	// LogFlushEvery flushes a shard's log image every that many appends
	// (default 64; negative flushes only at checkpoints).
	LogFlushEvery int

	// ClusterSelf, when set, turns the cluster tier on: the address this
	// node is known by in the cluster map (what clients redirect to). A
	// clustered node runs RolePrimary (Standalone is promoted; Replica is
	// refused — a replica follows its primary, not the map).
	ClusterSelf string
	// ClusterMap is the bootstrap map (typically cluster.New over the
	// initial peer list — identical on every founding node). A persisted
	// map of a higher epoch in ClusterStore wins over it. Nil with
	// ClusterSelf set means the node joins empty (JoinCluster).
	ClusterMap *cluster.Map
	// ClusterStore, when non-nil, persists the installed map (CRC-checked
	// image) so a restarted node rejoins at its last known epoch.
	ClusterStore pmem.Store
}

func (c *Config) fillDefaults() {
	if c.Shards <= 0 {
		c.Shards = 4
	}
	if c.Mode == rt.Volatile {
		c.Mode = rt.HW
	}
	if c.PoolSize == 0 {
		c.PoolSize = 32 << 20
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 128
	}
	if c.CheckpointEvery == 0 {
		c.CheckpointEvery = 8192
	}
	if c.AdmitWait == 0 {
		c.AdmitWait = 50 * time.Millisecond
	}
	if c.AdmitWait < 0 {
		c.AdmitWait = 0
	}
	if c.WedgeTimeout == 0 {
		c.WedgeTimeout = 2 * time.Second
	}
	if c.BreakerCooldown == 0 {
		c.BreakerCooldown = 100 * time.Millisecond
	}
	if c.FollowPoll <= 0 {
		c.FollowPoll = 2 * time.Millisecond
	}
	if c.AckTimeout <= 0 {
		c.AckTimeout = 5 * time.Second
	}
	if c.ReplLiveWindow <= 0 {
		c.ReplLiveWindow = time.Second
	}
	if c.LogFlushEvery == 0 {
		c.LogFlushEvery = 64
	}
	c.Clock = fault.OrWall(c.Clock)
}

// latencyBounds are the microsecond buckets of the per-shard latency
// histograms (queue wait + service time, measured at the worker).
var latencyBounds = []uint64{1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000, 5000, 10000, 50000}

// checkpointBounds are the checkpoint_us and checkpoint_save_us buckets: a
// save writes a whole pool image, milliseconds rather than microseconds.
var checkpointBounds = []uint64{100, 200, 500, 1000, 2000, 5000, 10000, 20000, 50000, 100000, 200000, 500000, 1000000}

// Server is the sharded persistent KV service.
type Server struct {
	cfg    Config
	shards []*shard

	mu       sync.Mutex
	listener net.Listener
	conns    map[net.Conn]struct{}
	closed   bool

	wg sync.WaitGroup // connection handlers + acceptor

	bgStop   chan struct{} // watchdog + scrubber
	bgWG     sync.WaitGroup
	stopOnce sync.Once

	// Migration gate: MigrateIn registers with migWG so shutdown can
	// interrupt (migStop) and drain in-flight slot migrations before
	// the shard queues close — an undrained migration would send to a
	// closed queue.
	migMu       sync.Mutex
	migClosing  bool
	migWG       sync.WaitGroup
	migStop     chan struct{}
	migStopOnce sync.Once

	connCount atomic.Int64
	requests  atomic.Uint64
	errored   atomic.Uint64
	started   time.Time

	// The tracing plane (nil when no tracing option is configured).
	spans   *obs.SpanRecorder
	flight  *obs.FlightRecorder
	sampler *traceSampler
	// fencedTrip de-bounces the fencing trigger: one flight dump per
	// fenced episode, re-armed when the replica makes contact again.
	fencedTrip atomic.Bool

	repl    replState
	cluster clusterState
}

// New builds the server and opens every shard, recovering any pool image
// its store already holds (the restart path: pmem.Open + Fsck per shard).
// The shard workers start immediately under their supervisors; Serve only
// adds the network front.
func New(cfg Config) (*Server, error) {
	cfg.fillDefaults()
	if cfg.Role == RoleReplica && cfg.FollowAddr == "" {
		return nil, errors.New("server: role replica requires a primary address to follow")
	}
	if cfg.ClusterSelf != "" {
		if cfg.Role == RoleReplica {
			return nil, errors.New("server: a replica cannot join a cluster map (it follows its primary)")
		}
		if len(cfg.ClusterSelf) > cluster.MaxNodeAddr {
			return nil, fmt.Errorf("server: cluster address longer than %d bytes", cluster.MaxNodeAddr)
		}
		// A clustered node logs every write: migration catch-up tails the
		// op log, so the cluster tier implies at least RolePrimary.
		if cfg.Role == RoleStandalone {
			cfg.Role = RolePrimary
		}
	}
	if cfg.Spans == nil && (cfg.TraceSample > 0 || cfg.SlowOp > 0 || cfg.FlightDir != "" || cfg.Flight != nil) {
		cfg.Spans = obs.NewSpanRecorder(0, cfg.Reg)
	}
	if cfg.Flight == nil && cfg.Spans != nil {
		cfg.Flight = obs.NewFlightRecorder(0, cfg.FlightDir, cfg.Spans)
	}
	s := &Server{
		cfg:     cfg,
		conns:   make(map[net.Conn]struct{}),
		bgStop:  make(chan struct{}),
		migStop: make(chan struct{}),
		started: time.Now(),
		spans:   cfg.Spans,
		flight:  cfg.Flight,
	}
	if cfg.Spans != nil {
		s.sampler = newTraceSampler(cfg.TraceSample, uint64(time.Now().UnixNano())|1)
	}
	s.repl.role.Store(cfg.Role)
	if cfg.ClusterSelf != "" {
		s.cluster.self = cfg.ClusterSelf
		s.cluster.fenced = make(map[int]*fenceInfo)
		s.cluster.cmap = cfg.ClusterMap
		if cfg.ClusterStore != nil {
			persisted, err := cluster.Load(cfg.ClusterStore)
			if err != nil {
				return nil, fmt.Errorf("server: persisted cluster map: %w", err)
			}
			// The newest epoch wins: a restarted node must not regress to
			// the bootstrap map after a handover moved its slots.
			if persisted != nil && (s.cluster.cmap == nil || persisted.Epoch > s.cluster.cmap.Epoch) {
				s.cluster.cmap = persisted
				s.logf("cluster: restored persisted map: epoch %d, %d/%d slots owned",
					persisted.Epoch, persisted.Owned(cfg.ClusterSelf), persisted.Slots)
			}
		}
	}
	// One repair-latency histogram shared by every shard: media repairs
	// are rare incidents, and the obs.Histogram is atomic.
	var repairHist, checkpointHist, saveHist *obs.Histogram
	if cfg.Reg != nil && cfg.Parity.Enabled {
		repairHist = cfg.Reg.Histogram("repair_latency_us",
			"media-repair pass latency (detect + reconstruct + heal), microseconds",
			latencyBounds)
	}
	// Likewise one pair of checkpoint histograms: the worker stall every
	// periodic, explicit or shutdown checkpoint's begin costs, and the save
	// itself, which a periodic checkpoint runs off the worker, microseconds.
	if cfg.Reg != nil {
		checkpointHist = cfg.Reg.Histogram("checkpoint_us",
			"shard worker stall per checkpoint begin (wait for the previous save + dirty-page copy), microseconds",
			checkpointBounds)
		saveHist = cfg.Reg.Histogram("checkpoint_save_us",
			"shard checkpoint save (image checksum + store save + parity + op-log truncation), microseconds",
			checkpointBounds)
	}
	for i := 0; i < cfg.Shards; i++ {
		sc := shardConfig{
			id:              i,
			mode:            cfg.Mode,
			poolSize:        cfg.PoolSize,
			queueDepth:      cfg.QueueDepth,
			checkpointEvery: cfg.CheckpointEvery,
			admitWait:       cfg.AdmitWait,
			clock:           cfg.Clock,
			logf:            cfg.Logf,
			spans:           cfg.Spans,
			flight:          cfg.Flight,
			slowOp:          cfg.SlowOp,
			parity:          cfg.Parity,
			repairLatency:   repairHist,

			checkpointLatency: checkpointHist,
			saveLatency:       saveHist,
		}
		if cfg.Flight != nil {
			sc.trigger = s.shardTrigger
		}
		if cfg.StoreFor != nil {
			sc.store = cfg.StoreFor(i)
		} else {
			sc.store = pmem.NewMemStore()
		}
		if cfg.Role != RoleStandalone {
			var logStore pmem.Store
			if cfg.LogStoreFor != nil {
				logStore = cfg.LogStoreFor(i)
			}
			oplog, err := repl.OpenLog(logStore, fmt.Sprintf("oplog-%d", i), cfg.LogFlushEvery)
			if err != nil {
				for _, prev := range s.shards {
					close(prev.queue)
					<-prev.done
				}
				return nil, fmt.Errorf("server: shard %d: %w", i, err)
			}
			sc.oplog = oplog
			sc.role = &s.repl.role
			sc.replicaLive = s.replicaLive
			sc.fenced = s.writeFenced
			sc.ackTimeout = cfg.AckTimeout
		}
		if cfg.ClusterSelf != "" {
			sc.owns = s.slotCheck
		}
		if cfg.SchedFor != nil {
			sc.sched = cfg.SchedFor(i)
		}
		if cfg.Reg != nil {
			sc.latency = cfg.Reg.Histogram(
				fmt.Sprintf("server_shard%d_latency_us", i),
				fmt.Sprintf("shard %d request latency (queue wait + service), microseconds", i),
				latencyBounds)
		}
		sh, err := newShard(sc, newBreaker(cfg.BreakerCooldown, cfg.Clock))
		if err != nil {
			// Unwind the shards already running.
			for _, prev := range s.shards {
				close(prev.queue)
				<-prev.done
			}
			return nil, err
		}
		s.shards = append(s.shards, sh)
		go sh.supervise()
	}
	if cfg.WedgeTimeout > 0 {
		s.bgWG.Add(1)
		go s.watchdog()
	}
	if cfg.ScrubEvery > 0 {
		s.bgWG.Add(1)
		go s.scrubber()
	}
	if cfg.Role != RoleStandalone {
		s.bgWG.Add(1)
		go s.ackSweeper()
	}
	if cfg.Role == RoleReplica {
		s.repl.follower = newFollower(s, &cfg)
		s.repl.follower.start()
	}
	if cfg.Reg != nil {
		s.registerMetrics(cfg.Reg)
	}
	return s, nil
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// trigger fires the incident flight recorder (freeze + dump) and logs the
// outcome. Safe to call with no recorder attached.
func (s *Server) trigger(kind, detail string) {
	if s.flight == nil {
		return
	}
	path, err := s.flight.Trigger(kind, detail)
	switch {
	case err != nil:
		s.logf("flight recorder: %s trigger: %v", kind, err)
	case path != "":
		s.logf("flight recorder: %s: dumped %s", kind, path)
	}
}

// shardTrigger routes shard-worker triggers, de-bouncing fencing: the first
// refused write of a fenced episode dumps, the rest are the same incident
// (markReplContact re-arms the trip when the replica returns).
func (s *Server) shardTrigger(kind, detail string) {
	if kind == TriggerFencing && !s.fencedTrip.CompareAndSwap(false, true) {
		return
	}
	s.trigger(kind, detail)
}

// watchdog detects wedged workers: a shard that holds queued work but has
// not advanced its heartbeat across a full WedgeTimeout window is declared
// wedged, its breaker opens (new requests fail fast with UNAVAILABLE), and
// the worker heals itself — resetting state and breaker — the moment it
// serves a request again.
func (s *Server) watchdog() {
	defer s.bgWG.Done()
	tick := s.cfg.WedgeTimeout / 4
	if tick < time.Millisecond {
		tick = time.Millisecond
	}
	lastBeat := make([]int64, len(s.shards))
	stuckSince := make([]time.Time, len(s.shards))
	for i, sh := range s.shards {
		lastBeat[i] = sh.heartbeat.Load()
	}
	for {
		select {
		case <-s.bgStop:
			return
		case now := <-s.cfg.Clock.After(tick):
			for i, sh := range s.shards {
				hb := sh.heartbeat.Load()
				if len(sh.queue) == 0 || hb != lastBeat[i] {
					// Idle, or making progress: not stuck.
					lastBeat[i] = hb
					stuckSince[i] = time.Time{}
					continue
				}
				if stuckSince[i].IsZero() {
					stuckSince[i] = now
					continue
				}
				if now.Sub(stuckSince[i]) >= s.cfg.WedgeTimeout && sh.state.Load() == stateHealthy {
					sh.state.Store(stateWedged)
					sh.breaker.ForceOpen()
					sh.wedges.Add(1)
					s.logf("shard %d: wedged (no progress for %v with %d queued); breaker open",
						i, now.Sub(stuckSince[i]).Round(time.Millisecond), len(sh.queue))
					s.trigger(TriggerBreakerOpen,
						fmt.Sprintf("shard %d wedged: no progress for %v with %d queued",
							i, now.Sub(stuckSince[i]).Round(time.Millisecond), len(sh.queue)))
				}
			}
		}
	}
}

// scrubber periodically scrubs idle healthy shards in the background (the
// Pangolin-style online scrub): crash residue and media damage are
// repaired before they can compound, without stalling foreground traffic.
func (s *Server) scrubber() {
	defer s.bgWG.Done()
	for {
		select {
		case <-s.bgStop:
			return
		case <-s.cfg.Clock.After(s.cfg.ScrubEvery):
			s.scrubIdle(s.bgStop)
		}
	}
}

// scrubIdle climbs the recovery ladder from its scrub cause once on every
// healthy shard with an empty queue; busy or unhealthy shards are skipped
// (the next pass retries them). A closed stop abandons the pass.
func (s *Server) scrubIdle(stop <-chan struct{}) {
	for _, sh := range s.shards {
		if sh.state.Load() == stateHealthy && len(sh.queue) == 0 {
			sh.call(stop, climb(causeScrub))
		}
	}
}

// registerMetrics exports the serving-plane series. Every collector reads
// only atomics (or channel lengths), so scraping never races the workers.
func (s *Server) registerMetrics(reg *obs.Registry) {
	reg.GaugeFunc("server_connections", "open client connections", func() int64 { return s.connCount.Load() })
	reg.CounterFunc("server_requests_total", "requests received across all connections", func() uint64 { return s.requests.Load() })
	reg.CounterFunc("server_errors_total", "requests answered with a non-OK status", func() uint64 { return s.errored.Load() })
	reg.GaugeFunc("server_shards", "configured shard count", func() int64 { return int64(len(s.shards)) })
	for i, sh := range s.shards {
		i, sh := i, sh
		pfx := fmt.Sprintf("server_shard%d_", i)
		reg.GaugeFunc(pfx+"queue_depth", "requests waiting in the shard queue", func() int64 { return int64(len(sh.queue)) })
		reg.GaugeFunc(pfx+"state", "supervision state (0 healthy, 1 recovering, 2 wedged, 3 failed)", func() int64 { return int64(sh.state.Load()) })
		reg.GaugeFunc(pfx+"breaker_state", "circuit breaker state (0 closed, 1 open, 2 half-open)", func() int64 { return int64(sh.breaker.State()) })
		reg.CounterFunc(pfx+"ops_total", "operations executed by the shard worker", func() uint64 { return sh.ops.Load() })
		reg.CounterFunc(pfx+"gets_total", "GET operations", func() uint64 { return sh.gets.Load() })
		reg.CounterFunc(pfx+"puts_total", "PUT operations", func() uint64 { return sh.puts.Load() })
		reg.CounterFunc(pfx+"deletes_total", "DELETE operations", func() uint64 { return sh.dels.Load() })
		reg.CounterFunc(pfx+"scans_total", "SCAN operations", func() uint64 { return sh.scans.Load() })
		reg.GaugeFunc(pfx+"keys", "live keys in the shard index", func() int64 { return int64(sh.keys.Load()) })
		reg.CounterFunc(pfx+"cycles_total", "simulated cycles consumed by the shard engine", func() uint64 { return sh.cycles.Load() })
		reg.CounterFunc(pfx+"checkpoints_total", "pool checkpoints written", func() uint64 { return sh.checkpoints.Load() })
		reg.CounterFunc(pfx+"crashes_total", "injected power-loss crashes", func() uint64 { return sh.crashes.Load() })
		reg.CounterFunc(pfx+"recoveries_total", "successful crash recoveries", func() uint64 { return sh.recoveries.Load() })
		reg.CounterFunc(pfx+"panics_total", "worker panics caught by the supervisor", func() uint64 { return sh.panics.Load() })
		reg.CounterFunc(pfx+"restarts_total", "worker restarts by the supervisor", func() uint64 { return sh.restarts.Load() })
		reg.CounterFunc(pfx+"salvages_total", "software-crash recoveries that preserved state", func() uint64 { return sh.salvages.Load() })
		reg.CounterFunc(pfx+"rollbacks_total", "software-crash recoveries that fell back to checkpoint rollback", func() uint64 { return sh.rollbacks.Load() })
		reg.CounterFunc(pfx+"wedges_total", "times the watchdog declared the worker wedged", func() uint64 { return sh.wedges.Load() })
		reg.CounterFunc(pfx+"shed_total", "requests shed by bounded-queue admission", func() uint64 { return sh.sheds.Load() })
		reg.CounterFunc(pfx+"unavailable_total", "requests refused while the breaker was open", func() uint64 { return sh.unavail.Load() })
		reg.CounterFunc(pfx+"deadline_drops_total", "queued requests dropped at their deadline", func() uint64 { return sh.deadlineDrops.Load() })
		reg.CounterFunc(pfx+"scrubs_total", "scrub passes (background or on demand)", func() uint64 { return sh.scrubs.Load() })
		reg.CounterFunc(pfx+"breaker_opens_total", "times the circuit breaker tripped", func() uint64 { return sh.breaker.Opens() })
		reg.CounterFunc(pfx+"fsck_errors_total", "fsck structural-corruption findings, on every recovery rung", func() uint64 { return sh.fsckErrors.Load() })
		reg.CounterFunc(pfx+"fsck_warns_total", "fsck crash-residue findings, on every recovery rung", func() uint64 { return sh.fsckWarns.Load() })
		reg.CounterFunc(pfx+"repairs_total", "pool repairs that reclaimed crash residue", func() uint64 { return sh.repairs.Load() })
		if s.cfg.Parity.Enabled {
			reg.CounterFunc(pfx+"media_scrubs_total", "media scrub passes over the shard's stored images", func() uint64 { return sh.mediaScrubs.Load() })
			reg.CounterFunc(pfx+"pages_repaired_total", "data pages reconstructed from parity", func() uint64 { return sh.pagesRepaired.Load() })
			reg.CounterFunc(pfx+"parity_rebuilds_total", "parity sidecars rebuilt", func() uint64 { return sh.parityRebuilds.Load() })
			reg.CounterFunc(pfx+"media_unrecoverable_total", "rangelets with damage beyond parity's reach", func() uint64 { return sh.mediaUnrecoverable.Load() })
			reg.GaugeFunc(pfx+"parity_pages", "parity pages maintained for the shard's pools", func() int64 { return int64(sh.parityPages.Load()) })
		}
		if sh.cfg.oplog != nil {
			sh := sh
			reg.GaugeFunc(pfx+"applied_seq", "newest applied operation-log sequence", func() int64 { return int64(sh.applied.Load()) })
			reg.GaugeFunc(pfx+"repl_ack_seq", "newest replica-acknowledged sequence", func() int64 { return int64(sh.replAck.Load()) })
			reg.GaugeFunc(pfx+"oplog_records", "retained operation-log records", func() int64 { return int64(sh.cfg.oplog.Len()) })
			reg.GaugeFunc(pfx+"oplog_bytes", "retained operation-log bytes", func() int64 { return int64(sh.cfg.oplog.Bytes()) })
			reg.GaugeFunc(pfx+"oplog_flushed_seq", "newest operation-log sequence flushed to the durable image", func() int64 { return int64(sh.cfg.oplog.FlushedSeq()) })
			reg.GaugeFunc(pfx+"oplog_unflushed_records", "appended records the durable image does not yet cover", func() int64 { return int64(sh.cfg.oplog.Unflushed()) })
			reg.GaugeFunc(pfx+"oplog_segments", "operation-log images in the store: sealed segments plus the tail", func() int64 { return int64(sh.cfg.oplog.Stats().Segments) })
			reg.CounterFunc(pfx+"oplog_flush_bytes_total", "operation-log image bytes handed to the store", func() uint64 { return sh.cfg.oplog.Stats().FlushBytes })
			reg.CounterFunc(pfx+"degraded_acks_total", "writes acked without replica durability (replica not live)", func() uint64 { return sh.degradedAcks.Load() })
		}
	}
	reg.CounterFunc("checkpoint_dirty_pages_total", "pool pages checkpoints found changed and checksummed, across all shards",
		s.sumShards(func(sh *shard) uint64 { return sh.dirtyPages.Load() }))
	if s.cfg.Parity.Enabled {
		// Aggregate media-fault series (the repair_latency_us histogram is
		// registered at construction, shared across shards).
		reg.GaugeFunc("parity_pages", "parity pages maintained across all shards",
			asGauge(s.sumShards(func(sh *shard) uint64 { return sh.parityPages.Load() })))
		reg.CounterFunc("scrub_passes_total", "media scrub passes across all shards",
			s.sumShards(func(sh *shard) uint64 { return sh.mediaScrubs.Load() }))
		reg.CounterFunc("pages_repaired_total", "data pages reconstructed from parity across all shards",
			s.sumShards(func(sh *shard) uint64 { return sh.pagesRepaired.Load() }))
		reg.CounterFunc("unrecoverable_total", "rangelets with damage beyond parity's reach across all shards",
			s.sumShards(func(sh *shard) uint64 { return sh.mediaUnrecoverable.Load() }))
	}
	if s.cfg.Role != RoleStandalone {
		s.registerReplMetrics(reg)
	}
	if s.clusterOn() {
		s.registerClusterMetrics(reg)
	}
}

// sumShards returns a collector that adds up one per-shard reading over
// every shard.
func (s *Server) sumShards(f func(*shard) uint64) func() uint64 {
	return func() uint64 {
		var n uint64
		for _, sh := range s.shards {
			n += f(sh)
		}
		return n
	}
}

// asGauge adapts a counter-shaped collector to a gauge's signature.
func asGauge(f func() uint64) func() int64 { return func() int64 { return int64(f()) } }

// Shards returns the configured shard count.
func (s *Server) Shards() int { return len(s.shards) }

// ShardCycles returns each shard's simulated cycle counter — the serving
// tier's notion of per-core time, used by the bench to compute makespan.
func (s *Server) ShardCycles() []uint64 {
	out := make([]uint64, len(s.shards))
	for i, sh := range s.shards {
		out[i] = sh.cycles.Load()
	}
	return out
}

// ListenAndServe listens on addr and serves until Close or Abort.
func (s *Server) ListenAndServe(addr string) error {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(l)
}

// Start listens on addr and serves in the background, returning the bound
// address (use ":0" to pick a free port).
func (s *Server) Start(addr string) (net.Addr, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		_ = s.Serve(l)
	}()
	return l.Addr(), nil
}

// Serve accepts connections on l until the server closes.
func (s *Server) Serve(l net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		l.Close()
		return errors.New("server: closed")
	}
	s.listener = l
	s.mu.Unlock()
	for {
		conn, err := l.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return nil
		}
		s.conns[conn] = struct{}{}
		s.wg.Add(1) // under mu: shutdownNetwork sets closed there before it Waits
		s.mu.Unlock()
		go func() {
			defer s.wg.Done()
			s.handleConn(conn)
		}()
	}
}

// handleConn reads frames, dispatches them to shards, and writes replies
// in request order. A writer goroutine consumes a FIFO of pending reply
// channels, so many requests can be in flight per connection (pipelining).
func (s *Server) handleConn(conn net.Conn) {
	s.connCount.Add(1)
	defer s.connCount.Add(-1)
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		conn.Close()
	}()

	type pending struct {
		req     *Request
		resp    chan Reply
		trace   uint64
		sampled bool
	}
	// fifo carries in-flight requests to the writer in arrival order.
	fifo := make(chan pending, s.cfg.QueueDepth)
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		bw := bufio.NewWriter(conn)
		buf := make([]byte, 0, 512)
		for p := range fifo {
			rep := <-p.resp
			if rep.Status != StatusOK {
				s.errored.Add(1)
			}
			// A traced request's reply — and every batch sub-reply — echoes
			// the wire trace ID, whatever the status. Server-sampled traces
			// stay server-side: the client never asked, so the echo stays
			// off the wire.
			if p.req.Trace != 0 {
				rep.Trace = p.req.Trace
				for i := range rep.Sub {
					rep.Sub[i].Trace = p.req.Trace
				}
			}
			var encStart time.Time
			if p.sampled {
				encStart = time.Now()
			}
			buf = buf[:0]
			if p.req.Op == OpBatch {
				buf = AppendBatchReply(buf, p.req, &rep)
			} else {
				buf = AppendReply(buf, p.req.Op, &rep)
			}
			if err := WriteFrame(bw, buf); err != nil {
				return
			}
			// The span closes before the flush: once the bytes are on the
			// socket the client reads the reply and stops its clock
			// concurrently, so a span closed after Flush returns would
			// overlap the peer's work and could outlast the round trip.
			if p.sampled {
				s.spans.RecordTimed(p.trace, StageReplyEncode, -1, opName(p.req.Op), p.req.Key, encStart, time.Since(encStart))
			}
			// Flush only when no reply is immediately ready: coalesces
			// pipelined replies into fewer writes.
			if len(fifo) == 0 {
				if err := bw.Flush(); err != nil {
					return
				}
			}
		}
		bw.Flush()
	}()

	// badFrame answers a protocol violation with a clean error frame (so
	// the peer learns why) before the connection is dropped.
	badFrame := func() {
		resp := make(chan Reply, 1)
		resp <- Reply{Status: StatusBadRequest}
		fifo <- pending{req: &Request{Op: OpPut}, resp: resp}
	}

	br := bufio.NewReader(conn)
	traceOn := s.spans != nil
	// gone closes when this loop stops reading — the peer hung up, or
	// shutdown closed the socket. A parked replication pull waits on it: the
	// writer above blocks on the park's reply, so only a reader that keeps
	// reading while the pull is parked can see the connection end.
	gone := make(chan struct{})
	for {
		body, err := ReadFrame(br)
		if err != nil {
			if errors.Is(err, ErrProto) {
				// Oversized length prefix: refuse it explicitly instead of
				// silently hanging up (the body was never read, so the
				// stream cannot be resynchronized — drop after answering).
				badFrame()
			}
			break
		}
		var decStart time.Time
		if traceOn {
			decStart = time.Now()
		}
		req, err := DecodeRequest(body)
		if err != nil {
			// Malformed payload: answer and drop the connection.
			badFrame()
			break
		}
		s.requests.Add(1)
		// The effective trace: the client's envelope, or a server-sampled
		// ID for a fraction of untraced requests (spans only — the reply
		// echo stays tied to the wire envelope).
		trace, sampled := req.Trace, req.Sampled
		if trace == 0 {
			if id, ok := s.sampler.next(); ok {
				trace, sampled = id, true
			}
		}
		sampled = sampled && traceOn
		if sampled {
			s.spans.RecordTimed(trace, StageDecode, -1, opName(req.Op), req.Key, decStart, time.Since(decStart))
		}
		resp := s.dispatch(req, trace, sampled, gone)
		fifo <- pending{req: req, resp: resp, trace: trace, sampled: sampled}
	}
	close(gone)
	close(fifo)
	<-writerDone
}

// dispatch routes a request and returns the channel its single reply will
// arrive on. The reply channel is buffered so workers never block on a
// slow connection. A request carrying a deadline envelope gets its
// absolute deadline stamped here; admission and the worker both honor it.
// trace and sampled carry the effective trace identity into the shard
// workers so every hop stamps spans under the same ID. gone is the
// connection's cancel channel, for the one reply that may wait on the peer
// (a parked pull).
func (s *Server) dispatch(req *Request, trace uint64, sampled bool, gone <-chan struct{}) chan Reply {
	resp := make(chan Reply, 1)
	now := s.cfg.Clock.Now()
	var deadline time.Time
	if req.TTLms > 0 {
		deadline = now.Add(time.Duration(req.TTLms) * time.Millisecond)
	}
	switch req.Op {
	case OpReplicate:
		s.replicate(req, time.Duration(req.TTLms)*time.Millisecond, resp, gone)
	case OpReplAck:
		resp <- s.replAckReply(req)
	case OpClusterMap:
		resp <- s.clusterMapReply()
	case OpMapUpdate:
		// In a goroutine: the donor-side install audits and purges released
		// slots through the shard queues before answering.
		go func() { resp <- s.mapUpdateReply(req) }()
	case OpMigSnapshot:
		go func() { resp <- s.migSnapshotReply(req) }()
	case OpMigPull:
		resp <- s.migPullReply(req)
	case OpMigFence:
		// In a goroutine: the fence barriers every shard queue.
		go func() { resp <- s.migFenceReply(req) }()
	case OpBatch:
		go func() { resp <- s.batch(req, deadline, trace, sampled) }()
	case OpStats:
		go func() { resp <- s.statsReply() }()
	case OpCheckpoint:
		go func() {
			if err := s.Checkpoint(); err != nil {
				resp <- Reply{Status: StatusInternal}
				return
			}
			resp <- Reply{Status: StatusOK}
		}()
	default:
		s.route(req, now, deadline, trace, sampled, resp)
	}
	return resp
}

// route sends one data operation — a top-level request or a batch's
// sub-request — to the shard or shards that serve it; anything that is not a
// data operation is answered BadRequest. The reply arrives on resp.
func (s *Server) route(req *Request, now, deadline time.Time, trace uint64, sampled bool, resp chan Reply) {
	switch req.Op {
	case OpGet, OpPut, OpDelete:
		sh := s.shards[ShardFor(req.Key, len(s.shards))]
		sh.submit(&request{op: req.Op, key: req.Key, value: req.Value, gate: req.Gate,
			trace: trace, sampled: sampled, start: now, deadline: deadline, resp: resp})
	case OpScan:
		go func() { resp <- s.scatterScan(req.Key, req.Limit, deadline, trace, sampled) }()
	default:
		resp <- Reply{Status: StatusBadRequest}
	}
}

// scatterScan runs the range read on every shard (keys are hash-sharded,
// so any shard may hold part of the range) and merges the ordered partial
// results down to limit pairs.
func (s *Server) scatterScan(start uint64, limit int, deadline time.Time, trace uint64, sampled bool) Reply {
	parts := make([]chan Reply, len(s.shards))
	now := s.cfg.Clock.Now()
	for i, sh := range s.shards {
		parts[i] = make(chan Reply, 1)
		sh.submit(&request{op: OpScan, key: start, limit: limit,
			trace: trace, sampled: sampled, start: now, deadline: deadline, resp: parts[i]})
	}
	var all []KV
	for _, ch := range parts {
		rep := <-ch
		if rep.Status != StatusOK {
			return Reply{Status: rep.Status}
		}
		all = append(all, rep.Pairs...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].Key < all[j].Key })
	if len(all) > limit {
		all = all[:limit]
	}
	return Reply{Status: StatusOK, Pairs: all}
}

// batch scatters the sub-requests to their shards (preserving per-shard
// order), then gathers the replies back into request order — the per-shard
// request batching the protocol exists for. The frame's deadline envelope
// applies to every sub-request.
func (s *Server) batch(req *Request, deadline time.Time, trace uint64, sampled bool) Reply {
	resps := make([]chan Reply, len(req.Sub))
	now := s.cfg.Clock.Now()
	for i := range req.Sub {
		resps[i] = make(chan Reply, 1)
		s.route(&req.Sub[i], now, deadline, trace, sampled, resps[i])
	}
	rep := Reply{Status: StatusOK, Sub: make([]Reply, len(req.Sub))}
	for i, ch := range resps {
		rep.Sub[i] = <-ch
	}
	return rep
}

// Stats is the decoded STATS document.
type Stats struct {
	Shards      int    `json:"shards"`
	Connections int64  `json:"connections"`
	Requests    uint64 `json:"requests"`
	Errors      uint64 `json:"errors"`
	UptimeMS    int64  `json:"uptime_ms"`
	// Role, Promotions, and the lag fields describe the replication tier
	// (role is "standalone" when it is off).
	Role           string         `json:"role"`
	Promotions     uint64         `json:"promotions"`
	ReplLagRecords uint64         `json:"repl_lag_records"`
	ReplLagBytes   uint64         `json:"repl_lag_bytes"`
	Follower       *FollowerStats `json:"follower,omitempty"`
	// Cluster describes the cluster tier (nil when it is off).
	Cluster  *ClusterStats `json:"cluster,omitempty"`
	PerShard []ShardStats  `json:"per_shard"`
}

// CollectStats assembles the server's statistics from published counters.
func (s *Server) CollectStats() Stats {
	lag := s.replLagRecords()
	st := Stats{
		Shards:         len(s.shards),
		Connections:    s.connCount.Load(),
		Requests:       s.requests.Load(),
		Errors:         s.errored.Load(),
		UptimeMS:       time.Since(s.started).Milliseconds(),
		Role:           roleName(s.repl.role.Load()),
		Promotions:     s.repl.promotions.Load(),
		ReplLagRecords: lag,
		ReplLagBytes:   lag * repl.RecordSize,
	}
	if f := s.repl.follower; f != nil {
		st.Follower = f.stats()
	}
	st.Cluster = s.clusterStats()
	for _, sh := range s.shards {
		st.PerShard = append(st.PerShard, sh.stats())
	}
	return st
}

func (s *Server) statsReply() Reply {
	blob, err := json.Marshal(s.CollectStats())
	if err != nil {
		return Reply{Status: StatusInternal}
	}
	return Reply{Status: StatusOK, Blob: blob}
}

// Checkpoint forces every shard to publish its root and snapshot its pool
// to the backing store, synchronously and on all shards at once. This is
// the durability barrier clients can request (the CHECKPOINT op). Control
// requests bypass admission control: they block until the shard takes them.
func (s *Server) Checkpoint() error {
	reps := make(chan Reply, len(s.shards))
	for _, sh := range s.shards {
		go func() { rep, _ := sh.call(nil, (*shard).checkpointNow); reps <- rep }()
	}
	var err error
	for range s.shards {
		if (<-reps).Status != StatusOK {
			err = errors.New("server: checkpoint failed")
		}
	}
	return err
}

// InjectCrash makes one shard lose power and recover from its last
// checkpoint, synchronously, while every other shard keeps serving. It is
// the server-level fault-injection hook the crash tests drive; an error
// means the recovery ladder failed the shard.
func (s *Server) InjectCrash(shardID int) error {
	if shardID < 0 || shardID >= len(s.shards) {
		return fmt.Errorf("server: no shard %d", shardID)
	}
	if rep, _ := s.shards[shardID].call(nil, climb(causePower)); rep.Status != StatusOK {
		return fmt.Errorf("server: shard %d failed to recover from the injected crash", shardID)
	}
	return nil
}

// InjectQuiet runs fn while no shard touches the store: every worker is
// parked inside a control call, after the checkpoint it was saving in the
// background (if any) has completed, and none resumes until fn returns.
// It is the hook for damaging stored images (media faults) without a
// checkpoint racing the damage — a replica's own applies and checkpoints
// included. A failed shard, which has nothing to save, is not parked.
func (s *Server) InjectQuiet(fn func() error) error {
	parked, release := make(chan struct{}, len(s.shards)), make(chan struct{})
	var wg sync.WaitGroup
	for _, sh := range s.shards {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rep, _ := sh.call(nil, func(sh *shard) Reply {
				_ = sh.waitSave()
				parked <- struct{}{}
				<-release
				return Reply{Status: StatusOK}
			})
			if rep.Status != StatusOK { // refused or panicked: never parked
				parked <- struct{}{}
			}
		}()
	}
	for range s.shards {
		<-parked
	}
	err := fn()
	close(release)
	wg.Wait()
	return err
}

// InjectPanic kills one shard's worker goroutine mid-stream (a software
// crash, distinct from InjectCrash's power loss) and waits for the
// supervisor to repair the pool and restart the worker. Acknowledged
// writes survive: the pool's memory outlives the goroutine, so recovery
// salvages state instead of rolling back.
func (s *Server) InjectPanic(shardID int) error {
	if shardID < 0 || shardID >= len(s.shards) {
		return fmt.Errorf("server: no shard %d", shardID)
	}
	sh := s.shards[shardID]
	gen := sh.restarts.Load()
	sh.call(nil, (*shard).kill) // the supervisor fails the doomed request with UNAVAILABLE
	deadline := time.Now().Add(5 * time.Second)
	for sh.restarts.Load() == gen {
		if sh.state.Load() == stateFailed {
			return fmt.Errorf("server: shard %d failed to recover from the injected panic", shardID)
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("server: shard %d was not restarted by its supervisor", shardID)
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}

// InjectWedge makes one shard's worker sleep for d mid-stream and returns
// when it wakes — run it from a separate goroutine to observe the watchdog
// declaring the shard wedged while requests are queued behind the sleep.
func (s *Server) InjectWedge(shardID int, d time.Duration) error {
	if shardID < 0 || shardID >= len(s.shards) {
		return fmt.Errorf("server: no shard %d", shardID)
	}
	rep, _ := s.shards[shardID].call(nil, func(*shard) Reply {
		time.Sleep(d)
		return Reply{Status: StatusOK}
	})
	if rep.Status != StatusOK && rep.Status != StatusUnavailable {
		return fmt.Errorf("server: wedge injection answered status %d", rep.Status)
	}
	return nil
}

// Scrub synchronously scrubs every idle healthy shard once (the
// scrubber's on-demand form).
func (s *Server) Scrub() { s.scrubIdle(nil) }

// stopBackground stops the watchdog and scrubber (idempotent).
func (s *Server) stopBackground() {
	s.stopOnce.Do(func() { close(s.bgStop) })
	s.bgWG.Wait()
}

// migEnter registers an in-process slot migration; false means the
// server is shutting down and no migration may start.
func (s *Server) migEnter() bool {
	s.migMu.Lock()
	defer s.migMu.Unlock()
	if s.migClosing {
		return false
	}
	s.migWG.Add(1)
	return true
}

func (s *Server) migExit() { s.migWG.Done() }

// migStopped reports whether shutdown was requested; migrations check
// it between batches so an Abort interrupts them at a batch boundary
// instead of racing the shard queues.
func (s *Server) migStopped() bool {
	select {
	case <-s.migStop:
		return true
	default:
		return false
	}
}

// stopMigrations interrupts in-flight MigrateIn calls and waits for
// them to unwind; after it returns, no in-process migration submits to
// the shard queues (idempotent).
func (s *Server) stopMigrations() {
	s.migMu.Lock()
	s.migClosing = true
	s.migMu.Unlock()
	s.migStopOnce.Do(func() { close(s.migStop) })
	s.migWG.Wait()
}

// Close shuts the server down gracefully: stop the follower, stop
// accepting, sever client connections, stop the watchdog/scrubber/sweeper,
// drain every shard queue, and checkpoint every pool (which also flushes
// and truncates the operation logs).
func (s *Server) Close() error {
	s.stop(false)
	return nil
}

// Abort is the simulated kill -9: Close without the final checkpoint, so
// every shard rolls back to its last checkpoint when a new server opens
// the same stores.
func (s *Server) Abort() { s.stop(true) }

func (s *Server) stop(abort bool) {
	s.stopFollower()
	s.shutdownNetwork()
	s.stopBackground()
	s.stopMigrations()
	for _, sh := range s.shards {
		sh.abort.Store(abort)
		close(sh.queue)
	}
	for _, sh := range s.shards {
		<-sh.done
	}
}

// stopFollower stops the replica's pull loop before the shard queues
// close (its calls onto the workers must not race the close).
func (s *Server) stopFollower() {
	if f := s.repl.follower; f != nil {
		f.Stop()
	}
}

func (s *Server) shutdownNetwork() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait()
		return
	}
	s.closed = true
	l := s.listener
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	if l != nil {
		l.Close()
	}
	for _, c := range conns {
		c.Close()
	}
	// Connection writers block on held write acks; fail the holds (and
	// stop new ones) before waiting for the handlers, or Wait deadlocks.
	// They block on parked pulls the same way; those were released by the
	// sockets closing above — each connection's reader saw it and cancelled
	// its parks (handleConn's gone channel).
	for _, sh := range s.shards {
		if sh.waiter != nil {
			sh.waiter.shutdown()
		}
	}
	s.wg.Wait()
}
