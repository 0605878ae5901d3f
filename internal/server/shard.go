package server

import (
	"errors"
	"fmt"
	"math"
	"sync/atomic"
	"time"

	"nvref/internal/cluster"
	"nvref/internal/fault"
	"nvref/internal/kvstore"
	"nvref/internal/obs"
	"nvref/internal/parity"
	"nvref/internal/pmem"
	"nvref/internal/repl"
	"nvref/internal/rt"
	"nvref/internal/structures"
)

// CrashPointOp is the fault crash point each shard worker evaluates before
// every data operation. Arm a per-shard fault.Scheduler (Config.Sched) to
// make the shard lose power there and recover from its last checkpoint
// while the other shards keep serving.
const CrashPointOp = "server.shard.op"

var siteShardRoot = rt.NewSite("server.shard.root", false)

// Shard supervision states, published in the state atomic for the
// watchdog, the scrubber, metrics, and STATS.
const (
	stateHealthy int32 = iota
	// stateRecovering: the worker panicked and the supervisor is climbing
	// the recovery ladder; the breaker is open.
	stateRecovering
	// stateWedged: the watchdog saw queued work but no heartbeat for
	// longer than the wedge timeout; the breaker is open until the worker
	// makes progress again.
	stateWedged
	// stateFailed: the recovery ladder ran out of rungs — the store holds
	// no image the shard can open. Terminal: every request is answered
	// UNAVAILABLE, nothing heals it, and Close still drains the shard.
	stateFailed
)

var stateNames = [...]string{"healthy", "recovering", "wedged", "failed"}

func shardStateName(s int32) string { return stateNames[s] }

// cause is what sends a shard up the recovery ladder; it picks the first
// rung (see recover).
type cause int

const (
	causeOpen  cause = iota // shard start: build the engine from the store
	causeScrub              // background or on-demand scrub of a healthy shard
	causePanic              // the worker panicked; the live pool survived
	causePower              // power lost: the live pool is gone
)

// rung is one step of the recovery ladder, in climbing order.
type rung int

const (
	rungMedia     rung = iota // stored image verified, bad pages rebuilt from parity
	rungStructure             // pool fscked, crash residue reclaimed (pmem.Repair)
	rungSalvage               // live index walked, live state checkpointed
	rungRollback              // live engine dropped, reopened from the store, op-log replayed
	rungFailed                // nothing left: the shard refuses every request
)

var rungNames = [...]string{"media", "structure", "salvage", "rollback", "failed"}

func (r rung) String() string { return rungNames[r] }

// errWorkerKilled is the payload of an injected worker panic.
var errWorkerKilled = errors.New("server: injected worker panic")

// request is one unit of work on a shard queue. Exactly one response is
// delivered on resp.
type request struct {
	op byte
	// sampled asks the worker to record per-stage spans under trace, the
	// effective trace ID (client envelope or server-sampled). The reply echo
	// is handled at the connection writer, keyed on the wire envelope.
	sampled    bool
	key, value uint64
	limit      int
	gate       uint64 // seq-gate read-your-writes token (GET only)
	trace      uint64
	// do, when non-nil, makes this a control request (call): the worker runs
	// it in place of the data path and its result is the reply.
	do       func(*shard) Reply
	start    time.Time
	deadline time.Time // zero means no deadline
	resp     chan Reply
}

// shardConfig parameterizes one engine shard.
type shardConfig struct {
	id              int
	mode            rt.Mode
	store           pmem.Store // nil disables persistence (and crash recovery)
	poolSize        uint64
	queueDepth      int
	checkpointEvery int
	admitWait       time.Duration   // max bounded-queue wait before SHED
	sched           fault.Scheduler // per-shard; evaluated at CrashPointOp
	clock           fault.Clock     // deadline checks and held-ack expiry
	latency         *obs.Histogram  // queue+service latency, microseconds
	logf            func(format string, args ...any)

	// Media-fault layer (parity.Enabled arms it): the shard's pool images
	// carry parity sidecars, the background scrub verifies and repairs
	// stored images, and recovery heals corrupt images on open.
	parity        parity.Policy
	repairLatency *obs.Histogram // media-repair pass latency, microseconds

	checkpointLatency *obs.Histogram // worker stall per checkpoint, microseconds
	saveLatency       *obs.Histogram // per checkpoint save (image + log truncation), microseconds

	// Tracing plane (all nil/zero when tracing is not configured).
	spans   *obs.SpanRecorder         // per-stage spans of sampled requests
	flight  *obs.FlightRecorder       // wide events (slow ops) + incident dumps
	slowOp  time.Duration             // ops slower than this emit a wide event
	trigger func(kind, detail string) // flight-recorder trigger hook

	// Replication plumbing (all nil/zero on a standalone server).
	oplog       *repl.Log     // per-shard operation log; nil disables replication
	role        *atomic.Int32 // the server's role (RoleStandalone/Primary/Replica)
	replicaLive func() bool   // primary: a replica pulled recently
	fenced      func() bool   // primary: self-fenced after replica silence
	ackTimeout  time.Duration // primary: how long a write ack may wait for replica ack

	// owns, when non-nil, is the cluster ownership check the worker runs
	// on every data operation: a key whose slot this node does not own
	// (or has fenced for handover) is refused with StatusMoved toward the
	// returned address. Running it on the worker — not at dispatch — is
	// what makes the fence barrier sound: after a barrier drains the queue,
	// no pre-fence write can still be in flight.
	owns func(key uint64) (moved bool, epoch uint64, addr string)
}

// shard is one engine shard: a single worker goroutine owns the simulation
// context, index, and store, and consumes the bounded queue. The worker
// runs under a supervisor (supervise) that catches panics, repairs the
// pool, and restarts the worker in place. All other goroutines communicate
// through the queue and the published atomics.
type shard struct {
	cfg     shardConfig
	queue   chan *request
	done    chan struct{}
	breaker *breaker

	// Worker-owned engine state. Never touched outside the worker, open()
	// (which runs before the worker starts), and the supervisor (which
	// runs only while the worker goroutine's loop is not executing).
	ctx       *rt.Context
	st        *kvstore.Store
	rb        *structures.RB
	sinceCkpt int                // mutations applied since the last checkpoint
	saving    *ckpt              // the checkpoint whose save is not committed yet, if any
	regSeen   pmem.RegistryStats // ctx.Reg.Stats already folded into the counters
	pending   []*request         // batch being processed; supervisor fails the rest on panic
	pendIdx   int

	// Published state, read by metrics collectors and STATS.
	state                         atomic.Int32
	heartbeat                     atomic.Int64 // UnixNano of last worker progress
	ops, gets, puts, dels, scans  atomic.Uint64
	crashes, recoveries           atomic.Uint64
	panics, restarts, salvages    atomic.Uint64
	rollbacks, wedges             atomic.Uint64
	sheds, unavail, deadlineDrops atomic.Uint64
	scrubs, checkpoints           atomic.Uint64

	// Folded from the registry by publish: the registry counts each of
	// these facts once, on every rung (see fold).
	dirtyPages                     atomic.Uint64 // pool pages checkpoints found changed
	fsckErrors, fsckWarns, repairs atomic.Uint64
	// Media-fault counters (only move when cfg.parity.Enabled).
	mediaScrubs        atomic.Uint64 // media scrub passes over stored images
	pagesRepaired      atomic.Uint64 // data pages reconstructed from parity
	parityRebuilds     atomic.Uint64 // parity sidecars (re)built
	mediaUnrecoverable atomic.Uint64 // rangelets with damage beyond parity's reach
	parityPages        atomic.Uint64 // parity pages currently maintained (gauge)
	cycles, keys       atomic.Uint64
	queueHighWater     atomic.Uint64

	// Replication state (only meaningful when cfg.oplog != nil).
	waiter          *ackWaiter    // primary: write acks held for replica ack
	applied         atomic.Uint64 // newest log sequence applied to the store
	replAck         atomic.Uint64 // primary: newest sequence the replica acked
	degradedAcks    atomic.Uint64 // writes acked without replica coverage
	replApplied     atomic.Uint64 // records applied from the replication feed
	replDups        atomic.Uint64 // already-applied records skipped by applyRecords
	replGaps        atomic.Uint64 // out-of-order apply batches refused
	replayed        atomic.Uint64 // records replayed from the log at open
	laggingReads    atomic.Uint64 // GETs refused because the gate token was ahead
	readOnlyRejects atomic.Uint64 // writes refused while serving as replica
	fencedWrites    atomic.Uint64 // primary writes refused while self-fenced
	slowOps         atomic.Uint64 // ops that exceeded the slow-op threshold
	moved           atomic.Uint64 // ops refused with StatusMoved (cluster redirect)
	ingested        atomic.Uint64 // records applied by migration ingest
	purged          atomic.Uint64 // keys deleted reclaiming migrated slots
	reseedKeys      atomic.Uint64 // pairs installed by replica re-seed chunks

	// abort, when true at drain time, suppresses the final checkpoint —
	// the simulated kill -9 path.
	abort atomic.Bool
}

func newShard(cfg shardConfig, br *breaker) (*shard, error) {
	if cfg.queueDepth <= 0 {
		cfg.queueDepth = 128
	}
	cfg.clock = fault.OrWall(cfg.clock)
	sh := &shard{
		cfg:     cfg,
		queue:   make(chan *request, cfg.queueDepth),
		done:    make(chan struct{}),
		breaker: br,
	}
	if cfg.oplog != nil {
		sh.waiter = newAckWaiter(&sh.replAck, cfg.ackTimeout, cfg.clock, cfg.spans, cfg.id)
	}
	sh.beat()
	if _, err := sh.recover(causeOpen); err != nil {
		return nil, fmt.Errorf("server: shard %d: %w", cfg.id, err)
	}
	return sh, nil
}

func (sh *shard) logf(format string, args ...any) {
	if sh.cfg.logf != nil {
		sh.cfg.logf(format, args...)
	}
}

// open climbs the open cause's rungs — media, inside rt.New (pmem's image
// walk repairs from parity when it is armed), then structure on the opened
// pool — re-seats the index on the persisted root and replays the op-log.
// It returns the rung that failed, or the last one climbed.
func (sh *shard) open() (rung, error) {
	start := time.Now()
	ctx, err := rt.New(rt.Config{Mode: sh.cfg.mode, Store: sh.cfg.store, PoolSize: sh.cfg.poolSize, Parity: sh.cfg.parity})
	if err != nil {
		return rungMedia, err
	}
	sh.regSeen = pmem.RegistryStats{}
	if n := ctx.Reg.Stats.PagesRepaired; n > 0 {
		sh.cfg.repairLatency.Observe(uint64(time.Since(start).Microseconds()))
		sh.incident(rungMedia, fmt.Sprintf("shard %d reconstructed %d page(s) from parity during recovery", sh.cfg.id, n))
	}
	if _, err := pmem.Repair(ctx.Pool); err != nil {
		sh.fold(&ctx.Reg.Stats) // the findings that failed the rung still count
		return rungStructure, err
	}
	st := kvstore.New(ctx, func(c *rt.Context) structures.Index { return structures.NewRB(c) })
	rb := st.Index().(*structures.RB)
	if root := ctx.Root(siteShardRoot); !ctx.IsNull(root) {
		// Re-seat the tree, then count keys with one full scan (the pool
		// root records only the reference, not the cardinality).
		rb.SetRootRef(root, 0)
		n := rb.Scan(0, math.MaxInt32, func(k, v uint64) {})
		rb.SetRootRef(root, uint64(n))
	}
	sh.ctx, sh.st, sh.rb = ctx, st, rb
	sh.sinceCkpt = 0
	if sh.cfg.oplog != nil {
		if err := sh.replayOplog(); err != nil {
			return rungStructure, err
		}
	}
	sh.publish()
	return rungStructure, nil
}

// replayOplog reloads the shard's operation log and replays every retained
// record into the freshly opened store — the crash-recovery tail replay.
// The log is only truncated at checkpoints, so its base is never past the
// checkpoint the pool just reopened from; records the checkpoint already
// covers re-apply idempotently (each record's effect depends only on the
// record), and records past the checkpoint restore the logged-but-not-
// checkpointed suffix.
//
// Afterwards the applied sequence resumes at the reloaded log's newest
// sequence, which is the pre-crash durable watermark. On a primary that
// regression is safe: shipping is durable-only (Log.SinceDurable) and a
// write ack only releases on replica acknowledgment, so every sequence
// the replica has applied — and every replicated ack a client received —
// is at or below the watermark and survives the reload intact. Sequences
// above it were never shipped; re-assigning them to new writes cannot
// diverge the copies. The unflushed tail's own writes were either held
// (failed by the recovery path, clients retry) or degraded single-copy
// acks, the documented loss window. replAck therefore remains a valid
// lower bound across recovery; it is clamped only defensively.
func (sh *shard) replayOplog() error {
	if err := sh.cfg.oplog.Reload(); err != nil {
		return fmt.Errorf("oplog: %w", err)
	}
	recs := sh.cfg.oplog.Since(0, 0)
	// Direct and uncounted: the log holds these already, and puts/dels counted them.
	for _, rec := range recs {
		switch rec.Op {
		case repl.RecPut:
			sh.st.Set(rec.Key, rec.Value)
		case repl.RecDelete:
			sh.st.Delete(rec.Key)
		}
	}
	sh.replayed.Add(uint64(len(recs)))
	sh.applied.Store(sh.cfg.oplog.LastSeq())
	if ra := sh.replAck.Load(); ra > sh.applied.Load() {
		// Unreachable while shipping stays durable-only; never let a stale
		// replica ack vouch for sequences the reloaded log does not hold.
		sh.replAck.Store(sh.applied.Load())
	}
	return nil
}

// publish copies the worker-owned counters the collectors export (none on
// a failed shard, which has no engine).
func (sh *shard) publish() {
	if sh.ctx == nil {
		return
	}
	sh.cycles.Store(sh.ctx.CPU.Stats.Cycles)
	sh.keys.Store(sh.rb.Len())
	sh.fold(&sh.ctx.Reg.Stats)
}

// fold adds what the registry counted since the last fold to the shard's
// counters. The registry is the one counter of fsck findings, repairs,
// media scrubs, repaired pages, parity rebuilds, unrecoverable rangelets
// and dirty pages, whichever rung made them; a recovery that builds a new
// registry, whose counts start again at zero, resets regSeen.
func (sh *shard) fold(now *pmem.RegistryStats) {
	was := &sh.regSeen
	sh.dirtyPages.Add(now.DirtyPages - was.DirtyPages)
	sh.fsckErrors.Add(now.FsckErrors - was.FsckErrors)
	sh.fsckWarns.Add(now.FsckWarns - was.FsckWarns)
	sh.repairs.Add(now.Repairs - was.Repairs)
	sh.mediaScrubs.Add(now.MediaScrubs - was.MediaScrubs)
	sh.pagesRepaired.Add(now.PagesRepaired - was.PagesRepaired)
	sh.parityRebuilds.Add(now.ParityRebuilds - was.ParityRebuilds)
	sh.mediaUnrecoverable.Add(now.MediaUnrecoverable - was.MediaUnrecoverable)
	sh.regSeen = *now
	if sh.cfg.parity.Enabled {
		sh.parityPages.Store(now.ParityPages)
	}
}

// beat records worker progress for the heartbeat watchdog.
func (sh *shard) beat() { sh.heartbeat.Store(time.Now().UnixNano()) }

// submit is the admission-controlled entry to the shard queue. It never
// blocks unboundedly: an open breaker answers UNAVAILABLE immediately, a
// full queue is waited on only up to admitWait (clamped to the request's
// own deadline), then the request is SHED. Every refused request still
// receives exactly one reply.
func (sh *shard) submit(r *request) {
	if sh.state.Load() == stateFailed || !sh.breaker.Allow() {
		sh.unavail.Add(1)
		r.resp <- Reply{Status: StatusUnavailable}
		return
	}
	select {
	case sh.queue <- r:
		return
	default:
	}
	wait := sh.cfg.admitWait
	if !r.deadline.IsZero() {
		if d := r.deadline.Sub(sh.cfg.clock.Now()); d < wait {
			wait = d
		}
	}
	if wait > 0 {
		t := time.NewTimer(wait)
		defer t.Stop()
		select {
		case sh.queue <- r:
			return
		case <-t.C:
		}
	}
	sh.sheds.Add(1)
	// A shed probe means the shard is still not serving: re-trip.
	if sh.breaker.State() == brHalfOpen {
		sh.breaker.ForceOpen()
	}
	r.resp <- Reply{Status: StatusShed}
}

// supervise is the shard's outer loop: run the worker until the queue
// closes, and any time the worker panics — an injected software crash, a
// fault-scheduler power cut, or a genuine bug — climb the recovery ladder
// and restart the worker in place while the rest of the server keeps
// serving.
func (sh *shard) supervise() {
	defer close(sh.done)
	for {
		crash := sh.runGuarded()
		if crash == nil {
			return // queue closed: normal shutdown (final checkpoint done)
		}
		sh.restart(crash)
	}
}

// runGuarded runs the worker loop, converting a panic into a return value
// for the supervisor. A nil return means the queue closed cleanly.
func (sh *shard) runGuarded() (crash any) {
	defer func() {
		if r := recover(); r != nil {
			crash = r
		}
	}()
	sh.run()
	return nil
}

// restart is the supervisor's half of a worker panic: open the breaker,
// fail every request the dead worker owed a reply, climb the ladder —
// from the power-loss rung for a fault-scheduler crash (*fault.CrashPanic),
// from the live pool's rungs for any other panic — and put the worker
// back. A shard the ladder failed restarts too, to refuse its queue.
func (sh *shard) restart(crash any) {
	sh.panics.Add(1)
	sh.state.Store(stateRecovering)
	sh.breaker.ForceOpen()
	sh.failPending()
	c := causePanic
	if _, isPower := fault.AsCrash(crash); isPower {
		c = causePower
	}
	reached, err := sh.recover(c)
	sh.publishLog()
	sh.beat()
	if err != nil {
		return
	}
	sh.restarts.Add(1)
	sh.state.Store(stateHealthy)
	sh.breaker.Reset()
	sh.incident(reached, fmt.Sprintf("shard %d worker restarted after panic: %v (%s)", sh.cfg.id, crash, reached))
}

// failPending answers UNAVAILABLE on every request of the interrupted
// batch that never got a reply — including the in-flight one that took the
// panic — and on every write ack held for the replica: clients retry rather
// than wait on a worker that died. Sends are non-blocking: a request that
// somehow was answered already must not wedge the supervisor.
func (sh *shard) failPending() {
	for _, r := range sh.pending[sh.pendIdx:] {
		select {
		case r.resp <- Reply{Status: StatusUnavailable}:
			sh.unavail.Add(1)
		default:
		}
	}
	sh.pending = sh.pending[:0]
	sh.pendIdx = 0
	if sh.waiter != nil {
		sh.waiter.failHeld()
	}
}

// recover is the shard's one recovery ladder (the rung constants name its
// steps). The cause picks the first rung: open climbs media → structure,
// and a fresh open that fails is the caller's error; scrub climbs media
// over the stored images, then structure on the live pool, and salvage
// re-seals a stored image left beyond parity's reach; panic climbs
// structure → salvage; power goes straight to rollback. A live-pool rung
// that fails hands off to rollback, and a rollback that cannot reopen fails
// the shard. recover runs on the worker (or the supervisor while the worker
// is down, or newShard before it starts) and returns the rung it stopped at.
// Every climb but open first waits for the checkpoint saving in the
// background; one that lost power while saving is a power cut.
func (sh *shard) recover(c cause) (rung, error) {
	if c == causeOpen {
		return sh.open()
	}
	if crash, _ := sh.settleSave(); crash != nil {
		if _, power := fault.AsCrash(crash); power {
			c = causePower
		}
	}
	if c == causePower {
		return sh.rollback()
	}
	reseal := true // a panic always writes the salvage checkpoint
	if c == causeScrub {
		sh.scrubs.Add(1)
		reseal = !sh.scrubMedia()
	}
	r, err := sh.repairLive(reseal)
	if err == nil {
		return r, nil
	}
	sh.rollbacks.Add(1)
	sh.logf("shard %d: %s rung failed (%v); rolling back to the last checkpoint", sh.cfg.id, r, err)
	return sh.rollback()
}

// scrubMedia is the media rung on a live shard: walk every stored image
// the registry manages, with repair. A repair, and damage beyond parity's
// reach, are incidents. It reports false when some stored image is left
// unusable, so the store must take the live state (salvage).
func (sh *shard) scrubMedia() bool {
	if !sh.cfg.parity.Enabled || sh.cfg.store == nil {
		return true
	}
	ok := true
	for _, p := range sh.ctx.Reg.Pools() {
		start := time.Now()
		rep, err := sh.ctx.Reg.ScrubMedia(p.Name(), true)
		switch {
		case err != nil:
			// Pool not checkpointed yet: nothing stored to scrub.
		case !rep.ImageOK && !rep.Healed:
			ok = false
			sh.incident(rungMedia, fmt.Sprintf("shard %d pool %q: unrecoverable media damage: %d rangelet(s), err=%q",
				sh.cfg.id, p.Name(), len(rep.Unrecoverable), rep.Err))
		case len(rep.Repaired) > 0:
			sh.cfg.repairLatency.Observe(uint64(time.Since(start).Microseconds()))
			sh.incident(rungMedia, fmt.Sprintf("shard %d pool %q: scrub reconstructed %d page(s) from parity (bad=%v)",
				sh.cfg.id, p.Name(), len(rep.Repaired), rep.BadPages))
		}
	}
	return ok
}

// repairLive climbs the live pool's rungs: structure, then — when the
// store must take the live state — salvage, which cross-checks the index
// walk against the recorded cardinality and writes the salvage checkpoint.
// It returns the rung it stopped at; a panic out of either fails that rung.
func (sh *shard) repairLive(reseal bool) (r rung, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v", p)
		}
	}()
	r = rungStructure
	if _, err := pmem.Repair(sh.ctx.Pool); err != nil || !reseal {
		return r, err
	}
	r = rungSalvage
	if n := sh.rb.Scan(0, math.MaxInt32, func(k, v uint64) {}); uint64(n) != sh.rb.Len() {
		return r, fmt.Errorf("index walk found %d keys, the root records %d", n, sh.rb.Len())
	}
	if err := sh.checkpoint(); err != nil {
		return r, err
	}
	sh.salvages.Add(1)
	sh.publish()
	return r, nil
}

// rollback simulates losing power on this shard alone — the mapped pool,
// the DRAM heap and every local pointer vanish — and reopens from the
// store's last checkpointed image, possibly at a different base. Writes
// acknowledged after it and not in the replayed op-log roll back: the
// documented durability contract for power loss. Held write acks may cover
// sequences the rollback re-issues, so they fail first (clients retry). A
// reopen that fails, fails the shard.
func (sh *shard) rollback() (rung, error) {
	sh.crashes.Add(1)
	if sh.waiter != nil {
		sh.waiter.failHeld()
	}
	sh.publish() // fold the old registry's last counts before it goes
	sh.ctx, sh.st, sh.rb = nil, nil, nil
	if r, err := sh.open(); err != nil {
		sh.ctx, sh.st, sh.rb = nil, nil, nil
		sh.state.Store(stateFailed)
		sh.incident(r, fmt.Sprintf("shard %d failed: reopen from the store failed at the %s rung: %v", sh.cfg.id, r, err))
		return rungFailed, err
	}
	sh.recoveries.Add(1)
	return rungRollback, nil
}

// incident leaves a recovery fact's trail: a flight-recorder dump (when a
// recorder is attached) of the rung's kind — media_repair for the media
// rung, restart above it — and a log line.
func (sh *shard) incident(r rung, detail string) {
	if sh.cfg.trigger != nil {
		kind := TriggerRestart
		if r == rungMedia {
			kind = TriggerMediaRepair
		}
		sh.cfg.trigger(kind, detail)
	}
	sh.logf("server: %s", detail)
}

// run is the worker loop: block for one request, then drain a small batch
// from the queue without blocking, process it, and publish once — queueing
// amortizes the checkpoint cadence and the metric publication. When the
// queue closes it writes the final checkpoint (unless aborting), so a clean
// return means the shard is durable. A receive reports a closed queue only
// once the queue is also empty, and nothing sends after the close (Close and
// Abort wait out the connection handlers, the follower, the migrations and
// the background loops first), so the loop's exit leaves nothing to drain.
func (sh *shard) run() {
	const maxBatch = 64
	for {
		req, ok := <-sh.queue
		if !ok {
			break
		}
		sh.beat()
		sh.pending = append(sh.pending[:0], req)
	drain:
		for len(sh.pending) < maxBatch {
			select {
			case r, ok := <-sh.queue:
				if !ok {
					break drain // the outer receive sees the close next
				}
				sh.pending = append(sh.pending, r)
			default:
				break drain
			}
		}
		if hw := uint64(len(sh.pending) + len(sh.queue)); hw > sh.queueHighWater.Load() {
			sh.queueHighWater.Store(hw)
		}
		n := len(sh.pending)
		for i := 0; i < n; i++ {
			sh.pendIdx = i
			sh.handle(sh.pending[i])
			sh.beat()
			sh.heal()
		}
		sh.pending = sh.pending[:0]
		sh.pendIdx = 0
		sh.publishLog()
		sh.afterBatch()
	}
	_ = sh.waitSave()
	if !sh.abort.Load() {
		_ = sh.checkpoint()
	}
	sh.publish()
}

// publishLog wakes the replication pulls parked on this shard's log. The
// worker calls it once per drain — a parked pull ships the whole drain in
// one reply — after the last request and before afterBatch, whose
// checkpoint would otherwise stand between a logged write and the pull
// that releases its ack; and once after a recovery, because a worker that
// died between an append and this call has published nothing.
func (sh *shard) publishLog() {
	if sh.cfg.oplog != nil {
		sh.cfg.oplog.Publish()
	}
}

// heal closes the breaker after genuine progress: a wedged shard that
// serves a request again is healthy, and a half-open probe that got served
// proves recovery.
func (sh *shard) heal() {
	if sh.state.Load() == stateWedged {
		sh.state.Store(stateHealthy)
		sh.logf("shard %d: worker resumed after wedge", sh.cfg.id)
	}
	if sh.breaker.State() != brClosed {
		sh.breaker.Reset()
	}
}

// call is the one way control work gets onto the worker: fn runs on the
// worker goroutine, in queue order between data requests, with the engine
// state to itself, and call returns its reply. Control work bypasses
// admission control — the send blocks until the queue takes it — unless stop
// closes first, in which case nothing was queued and call reports false (a
// nil stop never gives up).
func (sh *shard) call(stop <-chan struct{}, fn func(*shard) Reply) (Reply, bool) {
	select {
	case <-stop:
		return Reply{}, false
	default:
	}
	resp := make(chan Reply, 1)
	select {
	case sh.queue <- &request{do: fn, resp: resp}:
		return <-resp, true
	case <-stop:
		return Reply{}, false
	}
}

// barrier is a no-op the fence path uses to drain the worker: once it
// answers, every data operation admitted before the fence flag was set has
// fully executed (the worker is the serializer).
func (sh *shard) barrier() Reply { return Reply{Status: StatusOK} }

// checkpointNow is the explicit durability barrier (the CHECKPOINT op, and
// the seal of a replica re-seed).
func (sh *shard) checkpointNow() Reply {
	if err := sh.checkpoint(); err != nil {
		return Reply{Status: StatusInternal}
	}
	return Reply{Status: StatusOK}
}

// climb returns control work that runs the recovery ladder for c: OK
// unless the ladder failed the shard.
func climb(c cause) func(*shard) Reply {
	return func(sh *shard) Reply {
		if _, err := sh.recover(c); err != nil {
			return Reply{Status: StatusUnavailable}
		}
		return Reply{Status: StatusOK}
	}
}

// kill makes the worker panic — the injected software crash the supervisor
// must catch, repair, and restart from. The supervisor answers this request
// (UNAVAILABLE, via failPending).
func (sh *shard) kill() Reply { panic(errWorkerKilled) }

// handle runs one request on the worker: control work in place, a data
// request through refuse → execute → account → deliver. A failed shard
// answers everything UNAVAILABLE, including the data request whose
// scheduled power cut failed it.
func (sh *shard) handle(req *request) {
	failed := sh.state.Load() == stateFailed
	if !failed && req.do == nil && sh.cfg.sched != nil && sh.cfg.sched.Hit(CrashPointOp) {
		_, err := sh.recover(causePower)
		failed = err != nil
	}
	if failed {
		sh.unavail.Add(1)
		req.resp <- Reply{Status: StatusUnavailable}
		return
	}
	if req.do != nil {
		req.resp <- req.do(sh)
		return
	}
	// Stage timing (a zero execStart means untimed): sampled requests record
	// spans; with a slow-op threshold every data request is timed (cheaply —
	// two clock reads) so a slow one can report its breakdown even unsampled.
	var execStart time.Time
	if sh.cfg.spans != nil && !req.start.IsZero() && (req.sampled || sh.cfg.slowOp > 0) {
		execStart = time.Now()
	}
	var rep Reply
	var appendDur time.Duration
	refused := sh.refuse(req, &rep)
	if !refused {
		appendDur = sh.execute(req, &rep, !execStart.IsZero())
	}
	sh.account(req, refused, execStart, appendDur)
	sh.deliver(req, rep)
}

// refuse runs the checks that can turn a data request away before it
// touches the store — deadline, slot ownership, replica read-only,
// self-fence, seq gate, in that order, each with its own counter — and
// reports whether one did, leaving the refusal in rep. They run here, on
// the worker, not at dispatch: that is what makes the fence barrier sound
// (shardConfig.owns).
func (sh *shard) refuse(req *request, rep *Reply) bool {
	write := req.op == OpPut || req.op == OpDelete
	if !req.deadline.IsZero() && sh.cfg.clock.Now().After(req.deadline) {
		sh.deadlineDrops.Add(1)
		rep.Status = StatusDeadline
		return true
	}
	if sh.cfg.owns != nil && (write || req.op == OpGet) {
		if moved, epoch, addr := sh.cfg.owns(req.key); moved {
			sh.moved.Add(1)
			rep.Status, rep.Epoch, rep.Addr = StatusMoved, epoch, addr
			return true
		}
	}
	if sh.cfg.oplog == nil {
		return false
	}
	// A replica only mutates through the replication feed: plain client
	// writes bounce with READONLY so a failover client rotates away.
	if write && sh.roleIs(RoleReplica) {
		sh.readOnlyRejects.Add(1)
		rep.Status = StatusReadOnly
		return true
	}
	// Fencing: a primary whose replica has gone silent past FenceAfter
	// stops taking writes (READONLY, so a failover client rotates to the
	// promoted replica) instead of diverging into a second writable copy.
	if write && sh.roleIs(RolePrimary) && sh.cfg.fenced != nil && sh.cfg.fenced() {
		sh.fencedWrites.Add(1)
		if sh.cfg.trigger != nil {
			sh.cfg.trigger(TriggerFencing,
				fmt.Sprintf("shard %d refused a write while self-fenced (replica silent)", sh.cfg.id))
		}
		rep.Status = StatusReadOnly
		return true
	}
	// Read-your-writes gate: refuse to serve a read older than the client's
	// token instead of silently returning stale data.
	if req.op == OpGet && req.gate > sh.applied.Load() {
		sh.laggingReads.Add(1)
		rep.Status = StatusLagging
		return true
	}
	return false
}

// execute runs the operation against the store, leaving its result in rep,
// and returns how long the op-log append took (zero unless timed).
func (sh *shard) execute(req *request, rep *Reply, timed bool) (appendDur time.Duration) {
	switch req.op {
	case OpGet:
		rep.Value, rep.Found = sh.st.Get(req.key)
		sh.gets.Add(1)
	case OpPut:
		rep.Seq, _, appendDur = sh.write(repl.RecPut, req.key, req.value, timed)
	case OpDelete:
		rep.Seq, rep.Found, appendDur = sh.write(repl.RecDelete, req.key, 0, timed)
	case OpScan:
		pairs := make([]KV, 0, req.limit) // a local, so that only a SCAN's reply is captured
		sh.st.ScanVisit(req.key, req.limit, func(k, v uint64) {
			pairs = append(pairs, KV{Key: k, Value: v})
		})
		rep.Pairs = pairs
		sh.scans.Add(1)
	default:
		rep.Status = StatusBadRequest
	}
	if rep.Seq != 0 {
		rep.Shard = uint32(sh.cfg.id)
	}
	return appendDur
}

// write is the only way the shard takes a new mutation — a client PUT or
// DELETE, a migrated record, a slot purge — and it takes it in write-ahead
// order: the record enters the log, then the store mutates, then the applied
// sequence advances, so a recovered shard never holds an unlogged write. It
// returns the sequence the log assigned (zero on a shard that keeps no log),
// whether a delete found its key, and, when timed, how long the append took.
func (sh *shard) write(op byte, key, value uint64, timed bool) (seq uint64, found bool, appendDur time.Duration) {
	if sh.cfg.oplog != nil {
		var appendStart time.Time
		if timed {
			appendStart = time.Now()
		}
		seq = sh.cfg.oplog.Append(op, key, value).Seq
		if timed {
			appendDur = time.Since(appendStart)
		}
	}
	found = sh.apply(op, key, value)
	if seq != 0 {
		sh.applied.Store(seq)
	}
	return seq, found, appendDur
}

// apply is the record-to-store step, shared by new writes and the replication
// feed: mutate the store and count the operation — toward the checkpoint
// cadence too, which counts mutations, not requests.
func (sh *shard) apply(op byte, key, value uint64) (found bool) {
	switch op {
	case repl.RecPut:
		sh.st.Set(key, value)
		sh.puts.Add(1)
	case repl.RecDelete:
		found, _ = sh.st.Delete(key)
		sh.dels.Add(1)
	}
	sh.sinceCkpt++
	return found
}

// account records what an executed request cost: the queue_wait,
// oplog_append and execute spans of a sampled one, the slow-op wide event,
// and the latency histogram. A refused request keeps only its queue_wait
// span. execStart is zero when the request is untimed.
func (sh *shard) account(req *request, refused bool, execStart time.Time, appendDur time.Duration) {
	timed := !execStart.IsZero()
	if timed && req.sampled {
		sh.cfg.spans.RecordTimed(req.trace, StageQueueWait, sh.cfg.id, opName(req.op), req.key,
			req.start, execStart.Sub(req.start))
	}
	if refused {
		return
	}
	sh.ops.Add(1)
	if timed {
		// The stages are disjoint (execute excludes the op-log append), so a
		// trace's stage durations sum to at most its end-to-end latency.
		execDur := time.Since(execStart) - appendDur
		if req.sampled {
			if appendDur > 0 {
				sh.cfg.spans.RecordTimed(req.trace, StageOplogAppend, sh.cfg.id, opName(req.op), req.key,
					execStart, appendDur)
			}
			sh.cfg.spans.RecordTimed(req.trace, StageExecute, sh.cfg.id, opName(req.op), req.key,
				execStart, execDur)
		}
		if sh.cfg.slowOp > 0 {
			if e2e := time.Since(req.start); e2e >= sh.cfg.slowOp {
				sh.slowOps.Add(1)
				ev := obs.WideEvent{
					Kind:    "slow_op",
					Trace:   req.trace,
					Shard:   sh.cfg.id,
					Op:      opName(req.op),
					Key:     req.key,
					TotalUS: e2e.Microseconds(),
					StagesUS: map[string]int64{
						StageQueueWait: execStart.Sub(req.start).Microseconds(),
						StageExecute:   execDur.Microseconds(),
					},
				}
				if appendDur > 0 {
					ev.StagesUS[StageOplogAppend] = appendDur.Microseconds()
				}
				sh.cfg.flight.Note(ev)
			}
		}
	}
	if sh.cfg.latency != nil && !req.start.IsZero() {
		sh.cfg.latency.Observe(uint64(time.Since(req.start).Microseconds()))
	}
}

// roleIs reports whether the server's published role matches r.
func (sh *shard) roleIs(r int32) bool {
	return sh.cfg.role != nil && sh.cfg.role.Load() == r
}

// deliver sends a reply — or, on a primary whose replica is live, parks a
// logged write's ack in the waiter until the replica acknowledges its
// sequence (semi-synchronous replication: an acked write exists on both
// copies). When no replica is live the write is acked immediately and
// counted as degraded, the documented single-copy window.
func (sh *shard) deliver(req *request, rep Reply) {
	if rep.Status == StatusOK && rep.Seq != 0 && sh.roleIs(RolePrimary) {
		if sh.cfg.replicaLive != nil && sh.cfg.replicaLive() {
			var trace uint64
			if req.sampled {
				trace = req.trace
			}
			sh.waiter.hold(req.resp, rep, trace)
			return
		}
		sh.degradedAcks.Add(1)
	}
	req.resp <- rep
}

// applyRecords is the replica apply loop's worker half: validate each
// shipped record against the applied sequence, log it (write-ahead, same
// order as the primary), apply it, and advance. Already-applied records
// are skipped (re-pull overlap after a reconnect); a gap means the feed
// and the shard disagree, so the batch is refused and the follower
// re-pulls from the shard's actual applied sequence.
//
// The returned Seq is what the follower will REPLACK, and an ack means
// "applied and durably logged": the log image is flushed before the ack
// covers any newly appended record. The primary truncates its log through
// replAck, so acking a sequence this replica could lose to a restart
// would strand the follower past the primary's log base — the flush is
// what keeps the acked prefix re-loadable and the pull cursor resumable.
// If the flush fails, the ack is capped at the durable watermark; the
// primary then simply retains (and re-ships nothing of) the tail until a
// later flush succeeds and a higher ack arrives.
func (sh *shard) applyRecords(recs []repl.Record) Reply {
	if spans := sh.cfg.spans; spans != nil {
		defer func(start time.Time) {
			spans.RecordTimed(0, StageReplApply, sh.cfg.id, "apply", 0, start, time.Since(start))
		}(time.Now())
	}
	applied := sh.applied.Load()
	appended := false
	fail := func() Reply {
		sh.replGaps.Add(1)
		if appended {
			_ = sh.cfg.oplog.Flush()
		}
		return Reply{Status: StatusInternal, Shard: uint32(sh.cfg.id), Seq: applied}
	}
	for _, rec := range recs {
		if rec.Seq <= applied {
			sh.replDups.Add(1)
			continue
		}
		if rec.Seq != applied+1 {
			return fail()
		}
		if err := sh.cfg.oplog.AppendAt(rec); err != nil {
			return fail()
		}
		appended = true
		sh.apply(rec.Op, rec.Key, rec.Value)
		applied = rec.Seq
		sh.applied.Store(applied)
		sh.replApplied.Add(1)
	}
	ack := applied
	if appended {
		var flushStart time.Time
		if sh.cfg.spans != nil {
			flushStart = time.Now()
		}
		_ = sh.cfg.oplog.Flush() // error: ack only the durable prefix below
		if sh.cfg.spans != nil {
			sh.cfg.spans.RecordTimed(0, StageOplogFlush, sh.cfg.id, "apply", 0, flushStart, time.Since(flushStart))
		}
		if fl := sh.cfg.oplog.FlushedSeq(); fl < ack {
			ack = fl
		}
	}
	return Reply{Status: StatusOK, Shard: uint32(sh.cfg.id), Seq: ack}
}

// snapshotChunk serves one OpMigSnapshot chunk — the donor half of
// migration and the primary half of a replica re-seed: scan live pairs from
// the key cursor, keep those in cluster slot slot of slots (SlotAll keeps
// everything — the re-seed path), and stop after limit kept pairs. The
// reply's Seq is the cursor the next chunk resumes from; Found set means
// the store is exhausted and the transfer is complete. The raw scan is
// chunked so a sparse slot cannot pin the worker for a whole store walk,
// and the cursor only ever advances past fully consumed keys, so nothing
// between chunks is skipped.
func (sh *shard) snapshotChunk(cursor uint64, limit int, slot uint32, slots int) Reply {
	rep := Reply{Status: StatusOK, Pairs: make([]KV, 0, limit)}
	const raw = 512
	for {
		var lastConsumed uint64
		consumed := 0
		n := sh.st.ScanVisit(cursor, raw, func(k, v uint64) {
			if len(rep.Pairs) >= limit {
				return // full: leave this key for the next chunk
			}
			lastConsumed = k
			consumed++
			if slot == SlotAll || cluster.SlotFor(k, slots) == int(slot) {
				rep.Pairs = append(rep.Pairs, KV{Key: k, Value: v})
			}
		})
		if n < raw && consumed == n {
			rep.Found = true // store exhausted: transfer complete
			return rep
		}
		if consumed > 0 && lastConsumed == math.MaxUint64 {
			rep.Found = true
			return rep
		}
		cursor = lastConsumed + 1
		if len(rep.Pairs) >= limit {
			rep.Seq = cursor
			return rep
		}
	}
}

// ingest applies transferred records as fresh local writes — the acceptor
// half of migration: each is re-logged under this shard's own sequence
// space (write-ahead, like a client write), because migrated keys hash onto
// the acceptor's shards independently of the donor's. Per-key order is
// preserved — a key lives in exactly one donor shard and its records arrive
// in donor-log order.
func (sh *shard) ingest(recs []repl.Record) Reply {
	for _, rec := range recs {
		if rec.Op != repl.RecPut && rec.Op != repl.RecDelete {
			continue
		}
		sh.write(rec.Op, rec.Key, rec.Value, false)
		sh.ingested.Add(1)
	}
	return Reply{Status: StatusOK}
}

// purgeSlot reclaims a migrated slot on the donor: every live key of
// cluster slot slot (of slots) is deleted through the normal logged path,
// so recovery and a replica (if any) see the reclamation like any other
// write.
func (sh *shard) purgeSlot(slot uint32, slots int) Reply {
	var keys []uint64
	sh.rb.Scan(0, math.MaxInt32, func(k, v uint64) {
		if cluster.SlotFor(k, slots) == int(slot) {
			keys = append(keys, k)
		}
	})
	for _, k := range keys {
		sh.write(repl.RecDelete, k, 0, false)
	}
	sh.purged.Add(uint64(len(keys)))
	sh.publish()
	return Reply{Status: StatusOK}
}

// reseedBegin wipes the shard for a replica re-seed: delete every live
// pair, restart the log's sequence space at the snapshot watermark, and
// checkpoint so a crash cannot resurrect the divergent state.
func (sh *shard) reseedBegin(watermark uint64) Reply {
	_ = sh.waitSave() // its truncation must not land on the reset log
	var keys []uint64
	sh.rb.Scan(0, math.MaxInt32, func(k, v uint64) { keys = append(keys, k) })
	// Direct, unlogged, uncounted: this history is discarded (ResetTo), not replayed.
	for _, k := range keys {
		sh.st.Delete(k)
	}
	if sh.cfg.oplog != nil {
		if err := sh.cfg.oplog.ResetTo(watermark); err != nil {
			return Reply{Status: StatusInternal}
		}
	}
	sh.applied.Store(watermark)
	if err := sh.checkpoint(); err != nil {
		return Reply{Status: StatusInternal}
	}
	sh.publish()
	return Reply{Status: StatusOK}
}

// reseedChunk installs one snapshot chunk of a re-seed.
func (sh *shard) reseedChunk(pairs []KV) Reply {
	// Direct, unlogged, uncounted: the ResetTo watermark stands for the pairs' history.
	for _, kv := range pairs {
		sh.st.Set(kv.Key, kv.Value)
	}
	sh.reseedKeys.Add(uint64(len(pairs)))
	return Reply{Status: StatusOK}
}

// afterBatch commits a background save that has finished, publishes
// counters, and starts the periodic checkpoint, due once checkpointEvery
// mutations have been applied since the last one.
func (sh *shard) afterBatch() {
	if ck := sh.saving; ck != nil && ck.finished() {
		_ = sh.waitSave()
	}
	sh.publish()
	if sh.cfg.checkpointEvery > 0 && sh.sinceCkpt >= sh.cfg.checkpointEvery {
		sh.checkpointAsync()
	}
}

// ckpt is one shard checkpoint. It begins on the worker (beginCheckpoint),
// saves on the worker or on a goroutine of its own (runSave), and commits
// on the worker (waitSave).
type ckpt struct {
	save    *pmem.Save
	through uint64 // the op-log truncation point, fixed at begin
	done    chan struct{}
	err     error // the save's, or the log flush's that kept it from running
	crash   any   // a panic out of the save, raised again on the worker
}

// finished reports whether the save has run.
func (ck *ckpt) finished() bool {
	select {
	case <-ck.done:
		return true
	default:
		return false
	}
}

// checkpoint publishes the index root into the pool header and saves the
// pool to the backing store, synchronously, after any save still in the
// background. This is the durability barrier: a crash rolls the shard back
// to its most recent completed checkpoint plus the retained op-log.
func (sh *shard) checkpoint() error {
	ck, err := sh.beginCheckpoint()
	if ck == nil {
		return err
	}
	sh.saving = ck
	sh.runSave(ck)
	return sh.waitSave()
}

// checkpointAsync is the periodic checkpoint: it begins like checkpoint
// and leaves the save to a goroutine, so the worker stalls only for the
// pages written since the last checkpoint. Data requests do not wait for
// the save; the next checkpoint, the recovery ladder and the worker's exit
// do. A checkpoint that cannot begin is retried after the next batch.
func (sh *shard) checkpointAsync() {
	if ck, _ := sh.beginCheckpoint(); ck != nil {
		sh.saving = ck
		go sh.runSave(ck)
	}
}

// beginCheckpoint is the part of a checkpoint that needs the engine: it
// waits for the save in flight (at most one is), publishes the index root
// into the pool header, takes the pool's dirty pages
// (pmem.Registry.BeginCheckpoint), and fixes the op-log truncation point
// the save will make safe. Its time is the worker's stall, checkpoint_us.
// A shard with nothing to save (no store, or failed) returns nil.
func (sh *shard) beginCheckpoint() (*ckpt, error) {
	if sh.cfg.store == nil || sh.ctx == nil {
		return nil, nil
	}
	defer func(start time.Time) {
		sh.cfg.checkpointLatency.Observe(uint64(time.Since(start).Microseconds()))
	}(time.Now())
	_ = sh.waitSave()
	sh.ctx.SetRoot(siteShardRoot, sh.rb.Root())
	save, err := sh.ctx.Reg.BeginCheckpoint(sh.ctx.Pool)
	if err != nil {
		return nil, err
	}
	sh.sinceCkpt = 0
	ck := &ckpt{save: save, done: make(chan struct{})}
	if sh.cfg.oplog != nil {
		// The pool image covers every applied record, so the log prefix
		// through the applied sequence is garbage — except on a primary
		// whose replica is live (the predicate deliver holds acks by), which
		// must retain anything that replica has not acknowledged: it can
		// only catch up from the log. With no live replica nobody is owed
		// the prefix; one that attaches later finds the log's base past its
		// cursor and re-seeds from a snapshot.
		ck.through = sh.applied.Load()
		if sh.roleIs(RolePrimary) && sh.cfg.replicaLive != nil && sh.cfg.replicaLive() {
			if ra := sh.replAck.Load(); ra < ck.through {
				ck.through = ra
			}
		}
	}
	return ck, nil
}

// runSave saves the checkpoint's image and, once it is durable, truncates
// the op-log through the point fixed at begin. It touches nothing the
// worker owns, so it may run beside it. Recovery replays every retained
// record over the image, so first the log is flushed through what the
// image covers: an image never holds a record the log could lose, and a
// log that cannot flush fails the checkpoint. TruncateThrough also
// flushes, so the checkpoint is a log durability barrier too; a failure
// there is counted (LogStats.FlushErrors), not fatal: the pool checkpoint
// itself succeeded. Its time is checkpoint_save_us.
func (sh *shard) runSave(ck *ckpt) {
	defer close(ck.done)
	defer func() { ck.crash = recover() }()
	start := time.Now()
	if sh.cfg.oplog != nil && sh.cfg.oplog.FlushedSeq() < ck.through {
		if ck.err = sh.cfg.oplog.Flush(); ck.err != nil {
			return
		}
	}
	if ck.err = ck.save.Run(); ck.err == nil && sh.cfg.oplog != nil {
		flushStart := time.Now()
		_ = sh.cfg.oplog.TruncateThrough(ck.through)
		if sh.cfg.spans != nil {
			sh.cfg.spans.RecordTimed(0, StageOplogFlush, sh.cfg.id, "checkpoint", 0, flushStart, time.Since(flushStart))
		}
	}
	sh.cfg.saveLatency.Observe(uint64(time.Since(start).Microseconds()))
}

// settleSave waits for the save in flight, if any, and commits it: the
// registry records what the save did, and a completed checkpoint is
// counted. A failed save keeps its pages for the next checkpoint, which
// the cadence makes due at once. A panic the save took is returned.
func (sh *shard) settleSave() (crash any, err error) {
	ck := sh.saving
	if ck == nil {
		return nil, nil
	}
	<-ck.done
	sh.saving = nil
	_ = ck.save.Commit() // its error is the save's, ck.err
	if ck.crash != nil {
		return ck.crash, nil
	}
	if ck.err != nil {
		sh.sinceCkpt = max(sh.sinceCkpt, sh.cfg.checkpointEvery)
		return nil, ck.err
	}
	sh.checkpoints.Add(1)
	return nil, nil
}

// waitSave is settleSave on the worker, where a panic the save took is
// raised again for the supervisor: a power cut during a background save is
// one on the worker.
func (sh *shard) waitSave() error {
	crash, err := sh.settleSave()
	if crash != nil {
		panic(crash)
	}
	return err
}

// ShardStats is the per-shard block of a STATS reply.
type ShardStats struct {
	ID            int    `json:"id"`
	State         string `json:"state"`
	Breaker       string `json:"breaker"`
	Ops           uint64 `json:"ops"`
	Gets          uint64 `json:"gets"`
	Puts          uint64 `json:"puts"`
	Deletes       uint64 `json:"deletes"`
	Scans         uint64 `json:"scans"`
	Keys          uint64 `json:"keys"`
	Cycles        uint64 `json:"cycles"`
	QueueDepth    int    `json:"queue_depth"`
	QueueHigh     uint64 `json:"queue_high_water"`
	Checkpoints   uint64 `json:"checkpoints"`
	Crashes       uint64 `json:"crashes"`
	Recoveries    uint64 `json:"recoveries"`
	Panics        uint64 `json:"panics"`
	Restarts      uint64 `json:"restarts"`
	Salvages      uint64 `json:"salvages"`
	Rollbacks     uint64 `json:"rollbacks"`
	Wedges        uint64 `json:"wedges"`
	Sheds         uint64 `json:"sheds"`
	Unavailable   uint64 `json:"unavailable"`
	DeadlineDrops uint64 `json:"deadline_drops"`
	Scrubs        uint64 `json:"scrubs"`
	SlowOps       uint64 `json:"slow_ops"`
	BreakerOpens  uint64 `json:"breaker_opens"`
	FsckErrors    uint64 `json:"fsck_errors"`
	FsckWarns     uint64 `json:"fsck_warns"`
	Repairs       uint64 `json:"repairs"`
	// Media-fault block (all zero unless the parity layer is armed).
	MediaScrubs        uint64 `json:"media_scrubs"`
	PagesRepaired      uint64 `json:"pages_repaired"`
	ParityRebuilds     uint64 `json:"parity_rebuilds"`
	MediaUnrecoverable uint64 `json:"media_unrecoverable"`
	ParityPages        uint64 `json:"parity_pages"`
	// Repl is the shard's replication block (nil on a standalone server).
	Repl *ReplShardStats `json:"repl,omitempty"`
}

// ReplShardStats is the per-shard replication block of a STATS reply.
type ReplShardStats struct {
	Applied         uint64        `json:"applied"`  // newest applied log sequence
	ReplAck         uint64        `json:"repl_ack"` // primary: newest replica-acked sequence
	LagRecords      uint64        `json:"lag_records"`
	HeldAcks        int           `json:"held_acks"`
	DegradedAcks    uint64        `json:"degraded_acks"`
	TimeoutAcks     uint64        `json:"timeout_acks"`
	Applies         uint64        `json:"applies"` // records applied from the feed
	Dups            uint64        `json:"dups"`
	Gaps            uint64        `json:"gaps"`
	Replayed        uint64        `json:"replayed"`
	LaggingReads    uint64        `json:"lagging_reads"`
	ReadOnlyRejects uint64        `json:"read_only_rejects"`
	FencedWrites    uint64        `json:"fenced_writes"`
	Log             repl.LogStats `json:"log"`
}

// replLag returns the shard's replication lag in records: on a primary,
// applied-but-unacked records; elsewhere zero until the follower reports
// (the replica's lag lives in FollowerStats, measured against the
// primary's sequence).
func (sh *shard) replLag() uint64 {
	if sh.cfg.oplog == nil || !sh.roleIs(RolePrimary) {
		return 0
	}
	a, r := sh.applied.Load(), sh.replAck.Load()
	if a <= r {
		return 0
	}
	return a - r
}

func (sh *shard) replStats() *ReplShardStats {
	if sh.cfg.oplog == nil {
		return nil
	}
	rs := &ReplShardStats{
		Applied:         sh.applied.Load(),
		ReplAck:         sh.replAck.Load(),
		LagRecords:      sh.replLag(),
		DegradedAcks:    sh.degradedAcks.Load(),
		Applies:         sh.replApplied.Load(),
		Dups:            sh.replDups.Load(),
		Gaps:            sh.replGaps.Load(),
		Replayed:        sh.replayed.Load(),
		LaggingReads:    sh.laggingReads.Load(),
		ReadOnlyRejects: sh.readOnlyRejects.Load(),
		FencedWrites:    sh.fencedWrites.Load(),
		Log:             sh.cfg.oplog.Stats(),
	}
	if sh.waiter != nil {
		rs.HeldAcks = sh.waiter.count()
		rs.TimeoutAcks = sh.waiter.timeouts()
	}
	return rs
}

func (sh *shard) stats() ShardStats {
	return ShardStats{
		ID:            sh.cfg.id,
		State:         shardStateName(sh.state.Load()),
		Breaker:       breakerStateName(sh.breaker.State()),
		Ops:           sh.ops.Load(),
		Gets:          sh.gets.Load(),
		Puts:          sh.puts.Load(),
		Deletes:       sh.dels.Load(),
		Scans:         sh.scans.Load(),
		Keys:          sh.keys.Load(),
		Cycles:        sh.cycles.Load(),
		QueueDepth:    len(sh.queue),
		QueueHigh:     sh.queueHighWater.Load(),
		Checkpoints:   sh.checkpoints.Load(),
		Crashes:       sh.crashes.Load(),
		Recoveries:    sh.recoveries.Load(),
		Panics:        sh.panics.Load(),
		Restarts:      sh.restarts.Load(),
		Salvages:      sh.salvages.Load(),
		Rollbacks:     sh.rollbacks.Load(),
		Wedges:        sh.wedges.Load(),
		Sheds:         sh.sheds.Load(),
		Unavailable:   sh.unavail.Load(),
		DeadlineDrops: sh.deadlineDrops.Load(),
		Scrubs:        sh.scrubs.Load(),
		SlowOps:       sh.slowOps.Load(),
		BreakerOpens:  sh.breaker.Opens(),
		FsckErrors:    sh.fsckErrors.Load(),
		FsckWarns:     sh.fsckWarns.Load(),
		Repairs:       sh.repairs.Load(),

		MediaScrubs:        sh.mediaScrubs.Load(),
		PagesRepaired:      sh.pagesRepaired.Load(),
		ParityRebuilds:     sh.parityRebuilds.Load(),
		MediaUnrecoverable: sh.mediaUnrecoverable.Load(),
		ParityPages:        sh.parityPages.Load(),

		Repl: sh.replStats(),
	}
}
