package server

// Replication control plane: the server roles, the primary's held-ack
// waiter (semi-synchronous write acknowledgment), the replica's follower
// loop (pull-based log shipping over the ordinary frame protocol), and
// promotion.
//
// The flow, end to end:
//
//	primary shard worker:  log.Append → apply → hold ack in ackWaiter
//	replica follower:      OpReplicate pull (flush + ship durable-only)
//	                       → ctlApply (AppendAt → apply → flush)
//	                       → OpReplAck (covers the durable prefix)
//	primary ack path:      replAck advances → ackWaiter releases held acks
//	primary checkpoint:    truncate log through min(applied, replAck) while
//	                       the replica is live, through applied otherwise
//
// Two durability rules keep the copies convergent across crashes on
// either side. Shipping is durable-only (Log.SinceDurable): a record a
// replica has seen always survives the primary's own crash-reload, so an
// in-place primary recovery can never regress below — and then reuse the
// sequence numbers of — records its replica already applied. Acking is
// durable-only too: the replica flushes its log image before REPLACK, so
// the primary may truncate through replAck knowing a replica restart
// cannot regress the pull cursor behind the primary's log base.
//
// The replica dials the primary (-follow), so the primary needs no
// knowledge of its replica: any reader of the log may pull. Liveness is
// inferred from pull traffic — a primary only holds write acks while a
// replica has pulled or acked within ReplLiveWindow; otherwise it acks
// immediately and counts the write as degraded (single-copy). The
// replication gate asserts both the degraded and the timeout counters are
// zero, which is what makes "every acked write survives promotion" sound.
//
// Fencing: auto-promotion is by silence, so a partitioned-but-alive
// primary and a self-promoted replica could otherwise both accept writes
// (split-brain). With FenceAfter set below the replica's PromoteAfter, a
// primary that has ever seen a replica stops taking writes (READONLY)
// once the replica has been silent that long — it fences itself before
// the replica can have promoted, and failover clients rotate to the new
// primary. With FenceAfter unset that split-brain window is accepted and
// documented (DESIGN.md §11), like the resurrected-old-primary case.

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"nvref/internal/fault"
	"nvref/internal/obs"
	"nvref/internal/repl"
)

// Server roles. A standalone server keeps no operation log and behaves
// exactly as before the replication tier existed.
const (
	RoleStandalone int32 = iota
	RolePrimary
	RoleReplica
)

func roleName(r int32) string {
	switch r {
	case RolePrimary:
		return "primary"
	case RoleReplica:
		return "replica"
	default:
		return "standalone"
	}
}

// ---- Held write acks -----------------------------------------------------

// ackWaiter parks a primary shard's write replies until the replica's
// acknowledged sequence covers them. The shard worker holds; the
// connection goroutine serving OpReplAck releases; the server's sweeper
// expires holds that outlive the ack timeout (answered UNAVAILABLE, so the
// client retries rather than trusting a single-copy write).
type ackWaiter struct {
	ack     *atomic.Uint64 // the shard's replica-acked sequence
	timeout time.Duration
	clock   fault.Clock       // expiry stamps and sweep comparisons
	spans   *obs.SpanRecorder // sampled holds record replack_hold spans
	shard   int

	mu     sync.Mutex
	held   []heldAck // sorted by seq (worker appends are monotonic)
	closed bool      // shutdown: deliver immediately instead of holding

	expired atomic.Uint64
}

type heldAck struct {
	seq    uint64
	expiry time.Time
	resp   chan Reply
	rep    Reply
	trace  uint64 // nonzero: record the hold as a span on release
	heldAt time.Time
}

func newAckWaiter(ack *atomic.Uint64, timeout time.Duration, clock fault.Clock, spans *obs.SpanRecorder, shard int) *ackWaiter {
	return &ackWaiter{ack: ack, timeout: timeout, clock: fault.OrWall(clock), spans: spans, shard: shard}
}

// hold parks (resp, rep) until release covers rep.Seq. The covered check
// runs under the mutex so a release racing this hold cannot slip between
// the check and the append (no lost wakeup). A nonzero trace marks a
// sampled write whose hold duration is recorded as a replack_hold span.
func (w *ackWaiter) hold(resp chan Reply, rep Reply, trace uint64) {
	w.mu.Lock()
	if w.closed || rep.Seq <= w.ack.Load() {
		w.mu.Unlock()
		resp <- rep
		return
	}
	h := heldAck{seq: rep.Seq, expiry: w.clock.Now().Add(w.timeout), resp: resp, rep: rep, trace: trace}
	if trace != 0 && w.spans != nil {
		h.heldAt = time.Now()
	}
	w.held = append(w.held, h)
	w.mu.Unlock()
}

// release delivers every held reply with seq <= upTo. Reply channels are
// buffered (capacity 1) and only the waiter sends on a held one, so the
// sends cannot block.
func (w *ackWaiter) release(upTo uint64) {
	w.mu.Lock()
	n := 0
	for n < len(w.held) && w.held[n].seq <= upTo {
		n++
	}
	if n == 0 {
		w.mu.Unlock()
		return
	}
	ready := append([]heldAck(nil), w.held[:n]...)
	w.held = append(w.held[:0], w.held[n:]...)
	w.mu.Unlock()
	for _, h := range ready {
		// The span closes before the reply is handed to the connection
		// writer, whose reply_encode span starts on receipt: closed after
		// the send, the two stages could overlap.
		if !h.heldAt.IsZero() {
			w.spans.RecordTimed(h.trace, StageAckHold, w.shard, "", 0, h.heldAt, time.Since(h.heldAt))
		}
		h.resp <- h.rep
	}
}

// sweep expires holds past their deadline (expiries are monotonic, so the
// expired set is a prefix), answering UNAVAILABLE: the write is applied
// locally but the replica never confirmed it, so the client must not treat
// it as replicated — a retry lands it again, idempotently.
func (w *ackWaiter) sweep(now time.Time) {
	w.mu.Lock()
	n := 0
	for n < len(w.held) && now.After(w.held[n].expiry) {
		n++
	}
	if n == 0 {
		w.mu.Unlock()
		return
	}
	expired := append([]heldAck(nil), w.held[:n]...)
	w.held = append(w.held[:0], w.held[n:]...)
	w.mu.Unlock()
	w.expired.Add(uint64(n))
	for _, h := range expired {
		h.resp <- Reply{Status: StatusUnavailable}
	}
}

// failHeld fails every current hold with UNAVAILABLE (worker recovery: a
// rollback may erase the held writes) but keeps accepting new holds.
func (w *ackWaiter) failHeld() {
	w.mu.Lock()
	held := w.held
	w.held = nil
	w.mu.Unlock()
	for _, h := range held {
		select {
		case h.resp <- Reply{Status: StatusUnavailable}:
		default:
		}
	}
}

// shutdown fails every current hold and makes future holds deliver
// immediately — called before the server waits for its connection
// handlers, which would otherwise block forever on parked replies.
func (w *ackWaiter) shutdown() {
	w.mu.Lock()
	held := w.held
	w.held = nil
	w.closed = true
	w.mu.Unlock()
	for _, h := range held {
		select {
		case h.resp <- Reply{Status: StatusUnavailable}:
		default:
		}
	}
}

func (w *ackWaiter) count() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.held)
}

func (w *ackWaiter) timeouts() uint64 { return w.expired.Load() }

// ---- Server-side replication state ---------------------------------------

// replState is the server's replication control block.
type replState struct {
	role       atomic.Int32
	lastPull   atomic.Int64 // UnixNano of the last REPLICATE/REPLACK served
	promotions atomic.Uint64
	shipped    atomic.Uint64 // records served to pulls
	follower   *follower     // replica only
}

// Role returns the server's current role (it changes on Promote).
func (s *Server) Role() int32 { return s.repl.role.Load() }

// Promotions returns how many times this server was promoted to primary.
func (s *Server) Promotions() uint64 { return s.repl.promotions.Load() }

// markReplContact records replica traffic for the liveness window, and
// re-arms the fencing trigger: renewed contact ends a fenced episode.
func (s *Server) markReplContact() {
	s.repl.lastPull.Store(s.cfg.Clock.Now().UnixNano())
	s.fencedTrip.Store(false)
}

// replicaLive reports whether a replica pulled or acked recently enough
// that holding write acks for it is worthwhile.
func (s *Server) replicaLive() bool {
	lp := s.repl.lastPull.Load()
	return lp != 0 && s.cfg.Clock.Now().Sub(time.Unix(0, lp)) <= s.cfg.ReplLiveWindow
}

// writeFenced reports whether a primary must refuse writes because its
// replica has been silent past FenceAfter — the self-fencing half of
// silence-based promotion. A primary that never saw a replica is not
// fenced (nothing can have promoted against it), and FenceAfter <= 0
// disables fencing entirely.
func (s *Server) writeFenced() bool {
	if s.cfg.FenceAfter <= 0 {
		return false
	}
	lp := s.repl.lastPull.Load()
	return lp != 0 && s.cfg.Clock.Now().Sub(time.Unix(0, lp)) > s.cfg.FenceAfter
}

// Promote turns a replica into a primary: stop pulling, fsck every pool
// (the log tail was already replayed on arrival — each record applies as
// it ships — so the stores are current through the last pull), and start
// accepting writes and holding acks for the next replica. It is the
// failover path, callable from the auto-promotion timer or an operator.
func (s *Server) Promote() error {
	if !s.repl.role.CompareAndSwap(RoleReplica, RolePrimary) {
		return fmt.Errorf("server: promote: role is %s, want replica", roleName(s.repl.role.Load()))
	}
	if f := s.repl.follower; f != nil {
		f.signalStop() // async: Promote may run inside the follower goroutine
	}
	s.Scrub()
	s.repl.promotions.Add(1)
	s.logf("server: promoted to primary (applied=%v)", s.appliedSeqs())
	s.trigger(TriggerPromotion, fmt.Sprintf("replica promoted to primary (applied=%v)", s.appliedSeqs()))
	return nil
}

func (s *Server) appliedSeqs() []uint64 {
	out := make([]uint64, len(s.shards))
	for i, sh := range s.shards {
		out[i] = sh.applied.Load()
	}
	return out
}

// replicateReply serves an OpReplicate pull: durable records after
// req.Seq from the shard's log (SinceDurable flushes pending appends
// first, so shipping is prompt but never outruns the durable image), plus
// the newest logged sequence so the replica can measure its lag and the
// sequence shipping starts at so it can tell a truncated cursor from a
// caught-up one. Served by connection goroutines — the log has its own
// lock, so pulls never enter the shard queue.
func (s *Server) replicateReply(req *Request) Reply {
	if int(req.Shard) >= len(s.shards) {
		return Reply{Status: StatusBadRequest}
	}
	sh := s.shards[req.Shard]
	if sh.cfg.oplog == nil {
		return Reply{Status: StatusBadRequest}
	}
	s.markReplContact()
	var shipStart time.Time
	if s.spans != nil {
		shipStart = time.Now()
	}
	recs, base := shipDurable(sh.cfg.oplog, req.Seq, req.Limit)
	s.repl.shipped.Add(uint64(len(recs)))
	if s.spans != nil {
		s.spans.RecordTimed(0, StageReplShip, int(req.Shard), "replicate", 0, shipStart, time.Since(shipStart))
	}
	return Reply{Status: StatusOK, Shard: req.Shard, Seq: sh.cfg.oplog.LastSeq(), Value: base, Recs: recs}
}

// shipDurable reads a shard log for shipping: the durable records after
// cursor, and the sequence they start at — or, when there are none, the
// one the log's retained records start at (the next to be logged when it
// retains nothing). A base past cursor+1 means a checkpoint truncated
// records the puller never got (a primary with no live replica truncates
// through everything it has applied), and the puller must restart from a
// snapshot. Truncation only advances, so reading the log's state after the
// records cannot miss one.
func shipDurable(log *repl.Log, cursor uint64, limit int) (recs []repl.Record, base uint64) {
	if recs = log.SinceDurable(cursor, limit); len(recs) > 0 {
		return recs, recs[0].Seq
	}
	st := log.Stats()
	if st.Records == 0 {
		return nil, st.LastSeq + 1
	}
	return nil, st.BaseSeq
}

// replAckReply serves an OpReplAck: advance the shard's replica-acked
// sequence (monotonically — acks may arrive out of order across
// connections) and release held write acks it covers.
func (s *Server) replAckReply(req *Request) Reply {
	if int(req.Shard) >= len(s.shards) {
		return Reply{Status: StatusBadRequest}
	}
	sh := s.shards[req.Shard]
	if sh.waiter == nil {
		return Reply{Status: StatusBadRequest}
	}
	s.markReplContact()
	for {
		cur := sh.replAck.Load()
		if req.Seq <= cur || sh.replAck.CompareAndSwap(cur, req.Seq) {
			break
		}
	}
	sh.waiter.release(sh.replAck.Load())
	return Reply{Status: StatusOK}
}

// ackSweeper periodically expires held write acks whose replica ack never
// arrived, bounding how long a client write can hang on a dead replica.
func (s *Server) ackSweeper() {
	defer s.bgWG.Done()
	tick := s.cfg.AckTimeout / 4
	if tick < 10*time.Millisecond {
		tick = 10 * time.Millisecond
	}
	for {
		select {
		case <-s.bgStop:
			return
		case now := <-s.cfg.Clock.After(tick):
			for _, sh := range s.shards {
				if sh.waiter != nil {
					sh.waiter.sweep(now)
				}
			}
		}
	}
}

// replLagRecords is the exported replication-lag gauge: on a primary,
// records applied but not yet replica-acked; on a replica, records the
// primary has logged that this replica has not applied.
func (s *Server) replLagRecords() uint64 {
	switch s.repl.role.Load() {
	case RolePrimary:
		var sum uint64
		for _, sh := range s.shards {
			sum += sh.replLag()
		}
		return sum
	case RoleReplica:
		if f := s.repl.follower; f != nil {
			return f.lagRecords()
		}
	}
	return 0
}

func (s *Server) registerReplMetrics(reg *obs.Registry) {
	reg.GaugeFunc("server_role", "replication role (0 standalone, 1 primary, 2 replica)",
		func() int64 { return int64(s.repl.role.Load()) })
	reg.CounterFunc("server_promotions_total", "replica-to-primary promotions",
		func() uint64 { return s.repl.promotions.Load() })
	reg.GaugeFunc("server_repl_lag_records", "replication lag in log records",
		func() int64 { return int64(s.replLagRecords()) })
	reg.GaugeFunc("server_repl_lag_bytes", "replication lag in log bytes",
		func() int64 { return int64(s.replLagRecords() * repl.RecordSize) })
	reg.CounterFunc("server_repl_shipped_total", "log records served to replica pulls",
		func() uint64 { return s.repl.shipped.Load() })
	reg.CounterFunc("server_repl_applied_total", "log records applied from the replication feed",
		func() uint64 {
			var sum uint64
			for _, sh := range s.shards {
				sum += sh.replApplied.Load()
			}
			return sum
		})
	reg.GaugeFunc("server_repl_held_acks", "write acks parked awaiting replica ack",
		func() int64 {
			var sum int64
			for _, sh := range s.shards {
				if sh.waiter != nil {
					sum += int64(sh.waiter.count())
				}
			}
			return sum
		})
	reg.CounterFunc("server_repl_degraded_acks_total", "writes acked without replica coverage",
		func() uint64 {
			var sum uint64
			for _, sh := range s.shards {
				sum += sh.degradedAcks.Load()
			}
			return sum
		})
	reg.GaugeFunc("server_write_fenced", "1 while a primary refuses writes because its replica went silent past FenceAfter",
		func() int64 {
			if s.repl.role.Load() == RolePrimary && s.writeFenced() {
				return 1
			}
			return 0
		})
	reg.CounterFunc("server_repl_fenced_writes_total", "writes refused by primary self-fencing",
		func() uint64 {
			var sum uint64
			for _, sh := range s.shards {
				sum += sh.fencedWrites.Load()
			}
			return sum
		})
	reg.CounterFunc("server_repl_timeout_acks_total", "held write acks expired by the sweeper",
		func() uint64 {
			var sum uint64
			for _, sh := range s.shards {
				if sh.waiter != nil {
					sum += sh.waiter.timeouts()
				}
			}
			return sum
		})
	if f := s.repl.follower; f != nil {
		reg.CounterFunc("server_follower_pulls_total", "replication pull round-trips issued",
			func() uint64 { return f.pulls.Load() })
		reg.CounterFunc("server_follower_reconnects_total", "times the follower re-dialed its primary",
			func() uint64 { return f.reconnects.Load() })
		reg.CounterFunc("server_follower_divergences_total", "apply batches refused for log gaps or divergence",
			func() uint64 { return f.divergences.Load() })
		reg.CounterFunc("server_follower_reseeds_total", "diverged shards rebuilt from a primary snapshot",
			func() uint64 { return f.reseeds.Load() })
	}
}

// ---- Follower ------------------------------------------------------------

// errFollowerStopped aborts a round when the follower is told to stop.
var errFollowerStopped = errors.New("server: follower stopped")

// follower is the replica's pull loop: one goroutine that dials the
// primary and rounds over the shards in windows — pipelined OpReplicate
// pulls, ctlApply into the local shard workers, pipelined OpReplAck — then
// sleeps the poll interval when a round ships nothing. Connection loss
// re-dials with backoff; staying out of contact past promoteAfter (when
// set) promotes this server.
type follower struct {
	s            *Server
	addr         string
	dial         func(addr string) (net.Conn, error)
	poll         time.Duration
	batch        int
	window       int
	promoteAfter time.Duration
	clock        fault.Clock // lastContact stamps and the promotion window

	autoReseed bool

	stop     chan struct{}
	stopOnce sync.Once
	done     chan struct{}

	primarySeq  []atomic.Uint64 // per shard, from pull replies
	connected   atomic.Bool
	lastContact atomic.Int64 // UnixNano of the last successful exchange
	pulls       atomic.Uint64
	applies     atomic.Uint64
	reconnects  atomic.Uint64
	divergences atomic.Uint64
	reseeds     atomic.Uint64
	diverged    atomic.Bool // gates the one-time divergence log line
}

func newFollower(s *Server, cfg *Config) *follower {
	f := &follower{
		s:            s,
		addr:         cfg.FollowAddr,
		dial:         cfg.FollowDial,
		poll:         cfg.FollowPoll,
		batch:        cfg.ReplBatch,
		window:       cfg.ReplWindow,
		promoteAfter: cfg.PromoteAfter,
		clock:        fault.OrWall(cfg.Clock),
		autoReseed:   !cfg.NoAutoReseed,
		stop:         make(chan struct{}),
		done:         make(chan struct{}),
		primarySeq:   make([]atomic.Uint64, len(s.shards)),
	}
	if f.dial == nil {
		f.dial = func(addr string) (net.Conn, error) {
			return net.DialTimeout("tcp", addr, time.Second)
		}
	}
	f.lastContact.Store(f.clock.Now().UnixNano())
	return f
}

func (f *follower) signalStop() { f.stopOnce.Do(func() { close(f.stop) }) }

// Stop signals the follower and waits for its goroutine to exit.
func (f *follower) Stop() {
	f.signalStop()
	<-f.done
}

func (f *follower) touch() {
	f.lastContact.Store(f.clock.Now().UnixNano())
}

// lagRecords sums, per shard, how far the primary's newest seen sequence
// is ahead of the locally applied one.
func (f *follower) lagRecords() uint64 {
	var sum uint64
	for i := range f.primarySeq {
		p, a := f.primarySeq[i].Load(), f.s.shards[i].applied.Load()
		if p > a {
			sum += p - a
		}
	}
	return sum
}

// run is the follower goroutine: dial, pull rounds until the connection
// breaks or stop is signaled, re-dial. Promotion by silence: if the
// primary stays unreachable past promoteAfter, take over.
func (f *follower) run() {
	defer close(f.done)
	backoff := f.poll
	for {
		select {
		case <-f.stop:
			return
		default:
		}
		conn, err := f.dial(f.addr)
		if err != nil {
			if f.maybePromote() {
				return
			}
			if !f.sleep(backoff) {
				return
			}
			if backoff < 200*time.Millisecond {
				backoff *= 2
			}
			continue
		}
		backoff = f.poll
		f.connected.Store(true)
		c := NewClient(conn)
		c.SetTimeout(2 * time.Second)
		f.serveConn(c)
		f.connected.Store(false)
		c.Close()
		f.reconnects.Add(1)
		if f.maybePromote() {
			return
		}
	}
}

// serveConn runs pull rounds on one connection until it breaks or the
// follower stops.
func (f *follower) serveConn(c *Client) {
	for {
		select {
		case <-f.stop:
			return
		default:
		}
		progress, err := f.round(c)
		if err != nil {
			return
		}
		if !progress && !f.sleep(f.poll) {
			return
		}
	}
}

// round pulls every shard once, in windows: pipeline up to window pulls,
// apply each shipped batch through the owning shard worker, then pipeline
// the acks. Returns whether anything shipped.
func (f *follower) round(c *Client) (progress bool, err error) {
	n := len(f.s.shards)
	for g := 0; g < n; g += f.window {
		end := g + f.window
		if end > n {
			end = n
		}
		p := c.Pipeline()
		for i := g; i < end; i++ {
			p.Pull(uint32(i), f.s.shards[i].applied.Load(), f.batch)
		}
		reps, err := p.Run()
		if err != nil {
			return progress, err
		}
		f.pulls.Add(uint64(end - g))
		f.touch()
		type ack struct {
			shard uint32
			seq   uint64
		}
		var acks []ack
		for idx := range reps {
			rep := &reps[idx]
			sh := f.s.shards[g+idx]
			if rep.Status != StatusOK {
				continue
			}
			f.primarySeq[g+idx].Store(rep.Seq)
			if base := rep.Value; base > sh.applied.Load()+1 {
				// The primary's retained log starts past our cursor: it
				// truncated records we never applied — we attached, or came
				// back from a partition, after it checkpointed with no live
				// replica, or it was re-seeded. The reply says so even when
				// it ships nothing, so an idle primary is no reason to stay
				// stale. Refuse the batch — applying it would silently skip
				// operations.
				f.divergences.Add(1)
				if f.diverged.CompareAndSwap(false, true) {
					f.s.logf("server: follower shard %d diverged from %s: primary ships from seq %d, applied is %d",
						g+idx, f.addr, base, sh.applied.Load())
					f.s.trigger(TriggerDivergence,
						fmt.Sprintf("follower shard %d: primary ships from seq %d, applied is %d",
							g+idx, base, sh.applied.Load()))
				}
				if f.autoReseed {
					// Rebuild the shard from a primary snapshot (the
					// migration transfer machinery) instead of waiting for
					// an operator.
					if err := f.reseed(c, g+idx, base); err != nil {
						f.s.logf("server: follower shard %d re-seed: %v", g+idx, err)
					} else {
						// The checkpointed snapshot covers everything below
						// base; say so, or an idle primary counts us lagging
						// (and keeps its log) until its next write.
						progress = true
						acks = append(acks, ack{shard: uint32(g + idx), seq: base - 1})
					}
				}
				continue
			}
			if len(rep.Recs) == 0 {
				continue
			}
			resp := make(chan Reply, 1)
			select {
			case sh.queue <- &request{ctl: ctlApply, recs: rep.Recs, resp: resp}:
			case <-f.stop:
				return progress, errFollowerStopped
			}
			arep := <-resp
			if arep.Status != StatusOK {
				// Sequence gap or a worker mid-recovery: skip the ack; the
				// next round re-pulls from the shard's true applied sequence.
				f.divergences.Add(1)
				continue
			}
			f.applies.Add(uint64(len(rep.Recs)))
			progress = true
			acks = append(acks, ack{shard: uint32(g + idx), seq: arep.Seq})
		}
		if len(acks) > 0 {
			ap := c.Pipeline()
			for _, a := range acks {
				ap.ReplAck(a.shard, a.seq)
			}
			if _, err := ap.Run(); err != nil {
				return progress, err
			}
			f.touch()
		}
	}
	return progress, nil
}

// reseed rebuilds one diverged shard from a primary snapshot, reusing the
// migration transfer machinery (OpMigSnapshot with SlotAll — replicas
// mirror the primary shard for shard, so the snapshot reads the same
// shard index). The shard is wiped with its sequence space restarted at
// base-1, the primary's live pairs are bulk-copied in unlogged chunks,
// and a checkpoint seals the rebuilt state; the next round's pull resumes
// contiguously at base. Chunks are unlogged, so a worker crash or restart
// mid-transfer rolls part of the copy back — the generation check redoes
// the whole wipe+copy until it completes within one incarnation. (A real
// process death between the last chunk and the checkpoint would replay
// pulls over a partially empty store; that window is documented in
// DESIGN.md §12 as future work.)
func (f *follower) reseed(c *Client, si int, base uint64) error {
	sh := f.s.shards[si]
	watermark := base - 1
	const attempts = 3
	for attempt := 1; attempt <= attempts; attempt++ {
		gen := sh.restarts.Load() + sh.crashes.Load()
		if err := f.shardCtl(sh, &request{ctl: ctlReseedBegin, value: watermark}); err != nil {
			return err
		}
		cursor := uint64(0)
		copied := 0
		for {
			done, next, pairs, err := c.MigSnapshot(uint32(si), SlotAll, cursor, MaxScanLimit)
			if err != nil {
				return err
			}
			if err := f.shardCtl(sh, &request{ctl: ctlReseedChunk, recs: pairsToRecords(pairs)}); err != nil {
				return err
			}
			copied += len(pairs)
			if done {
				break
			}
			cursor = next
		}
		if sh.restarts.Load()+sh.crashes.Load() != gen {
			continue // the worker recovered mid-transfer and rolled chunks back
		}
		if err := f.shardCtl(sh, &request{ctl: ctlCheckpoint}); err != nil {
			return err
		}
		f.reseeds.Add(1)
		f.diverged.Store(false)
		f.s.logf("server: follower shard %d re-seeded from %s: %d pairs, sequence resumes at %d",
			si, f.addr, copied, base)
		f.s.trigger(TriggerReseed,
			fmt.Sprintf("follower shard %d re-seeded: %d pairs, sequence resumes at %d", si, copied, base))
		return nil
	}
	return fmt.Errorf("server: shard %d re-seed kept racing worker recoveries (%d attempts)", si, attempts)
}

// shardCtl submits one control request to a shard queue and waits for OK,
// aborting if the follower is told to stop.
func (f *follower) shardCtl(sh *shard, req *request) error {
	req.resp = make(chan Reply, 1)
	select {
	case sh.queue <- req:
	case <-f.stop:
		return errFollowerStopped
	}
	if rep := <-req.resp; rep.Status != StatusOK {
		return fmt.Errorf("server: reseed control %d: status %d", req.ctl, rep.Status)
	}
	return nil
}

// sleep waits d unless stop fires first; reports whether to keep running.
func (f *follower) sleep(d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-f.stop:
		return false
	case <-t.C:
		return true
	}
}

// maybePromote promotes this server if the primary has been out of
// contact past promoteAfter. Returns true when the follower should exit.
func (f *follower) maybePromote() bool {
	select {
	case <-f.stop:
		return true
	default:
	}
	if f.promoteAfter <= 0 {
		return false
	}
	lc := time.Unix(0, f.lastContact.Load())
	silent := f.clock.Now().Sub(lc)
	if silent < f.promoteAfter {
		return false
	}
	f.s.logf("server: primary %s silent for %v; promoting", f.addr, silent.Round(time.Millisecond))
	_ = f.s.Promote() // Promote signals our stop
	return true
}

// FollowerStats is the replica's follower block of a STATS reply.
type FollowerStats struct {
	Connected     bool   `json:"connected"`
	Pulls         uint64 `json:"pulls"`
	Applied       uint64 `json:"applied"`
	Reconnects    uint64 `json:"reconnects"`
	Divergences   uint64 `json:"divergences"`
	Reseeds       uint64 `json:"reseeds"`
	LagRecords    uint64 `json:"lag_records"`
	LagBytes      uint64 `json:"lag_bytes"`
	LastContactMS int64  `json:"last_contact_ms"`
}

func (f *follower) stats() *FollowerStats {
	lag := f.lagRecords()
	return &FollowerStats{
		Connected:     f.connected.Load(),
		Pulls:         f.pulls.Load(),
		Applied:       f.applies.Load(),
		Reconnects:    f.reconnects.Load(),
		Divergences:   f.divergences.Load(),
		Reseeds:       f.reseeds.Load(),
		LagRecords:    lag,
		LagBytes:      lag * repl.RecordSize,
		LastContactMS: f.clock.Now().Sub(time.Unix(0, f.lastContact.Load())).Milliseconds(),
	}
}
