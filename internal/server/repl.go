package server

// Replication control plane: the server roles, the primary's held-ack
// waiter (semi-synchronous write acknowledgment), the replica's follower
// (pull-based log shipping over the ordinary frame protocol, the pull a
// long poll), and promotion.
//
// The flow, end to end, one connection and one puller per shard:
//
//	replica puller:        [OpReplAck(previous batch)] + OpReplicate(applied),
//	                       one pipelined write; the pull carries a deadline
//	primary connection:    the ack releases held write acks; the pull finds
//	                       nothing past its cursor and parks on the log
//	primary shard worker:  log.Append → apply → hold ack in ackWaiter, per
//	                       request; log.Publish once per drain wakes the park
//	woken pull:            flush + ship durable-only (or, at the park's
//	                       bound, an empty reply carrying the log's base)
//	replica puller:        applyRecords (AppendAt → apply → flush); the ack it
//	                       owes rides ahead of the next pull
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

	// Parked pulls: every park started ends in exactly one of the three
	// wake counters, so parks == Σ woke* + the logs' current waiters.
	parks, wokeRecords, wokeDeadline, wokeClosed atomic.Uint64
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

// replicate serves an OpReplicate pull. A pull with no deadline envelope,
// or one that finds the log past its cursor, is answered at once — what
// Client.Pull, nvpool and a follower's first pull on a connection rely on.
// An enveloped pull that finds nothing parks, off the connection's reader
// (which must keep reading to see the peer hang up), until the shard worker
// publishes a record past its cursor, its bound passes on cfg.Clock (so the
// simulator decides when an idle pull returns), or the connection ends —
// which is also how shutdown releases it. The flush that makes the records
// shippable runs on the woken park, never on the worker that published.
//
// Replica contact is stamped on arrival and only then: every stamp is
// something heard from the replica, so a primary still fences FenceAfter
// after the replica's last request. The bound's clamp is what keeps an idle
// pair's stamps less than a window apart.
func (s *Server) replicate(req *Request, ttl time.Duration, resp chan Reply, gone <-chan struct{}) {
	if int(req.Shard) >= len(s.shards) || s.shards[req.Shard].cfg.oplog == nil {
		resp <- Reply{Status: StatusBadRequest}
		return
	}
	sh := s.shards[req.Shard]
	s.markReplContact()
	if ttl <= 0 || sh.cfg.oplog.LastSeq() > req.Seq {
		resp <- s.ship(sh, req)
		return
	}
	bound := min(ttl, s.cfg.ReplLiveWindow/2)
	if s.cfg.FenceAfter > 0 {
		bound = min(bound, s.cfg.FenceAfter/2)
	}
	s.repl.parks.Add(1)
	// Armed before Await shows the park: a clock advanced by whoever saw it moves this timer.
	expire, stop := s.cfg.Clock.Timer(bound)
	ready, cancel := sh.cfg.oplog.Await(req.Seq)
	go func() {
		woke := &s.repl.wokeClosed
		select {
		case <-ready:
			woke = &s.repl.wokeRecords
		case <-expire:
			woke = &s.repl.wokeDeadline
		case <-gone:
		}
		stop()
		cancel()
		woke.Add(1)
		if woke == &s.repl.wokeClosed {
			// Nobody is left to read it; the reply only unblocks the writer.
			resp <- Reply{Status: StatusUnavailable}
			return
		}
		resp <- s.ship(sh, req)
	}()
}

// ship builds a pull's reply: durable records after req.Seq from the
// shard's log (SinceDurable flushes pending appends first, so shipping is
// prompt but never outruns the durable image), plus the newest logged
// sequence so the replica can measure its lag and the sequence shipping
// starts at so it can tell a truncated cursor from a caught-up one. Runs
// on connection and park goroutines — the log has its own lock, so pulls
// never enter the shard queue. The repl_ship span opens here, after any
// park: it times the read, the flush and the hand-off, not the wait.
func (s *Server) ship(sh *shard, req *Request) Reply {
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
		return s.sumShards((*shard).replLag)()
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
		s.sumShards(func(sh *shard) uint64 { return sh.replApplied.Load() }))
	reg.GaugeFunc("server_repl_parked_pulls", "replication pulls parked on a shard log, waiting for records",
		asGauge(s.sumShards(func(sh *shard) uint64 { return uint64(sh.cfg.oplog.Waiters()) })))
	for _, c := range []struct {
		name, help string
		v          *atomic.Uint64
	}{
		{"server_repl_parks_total", "replication pulls that found nothing to ship and parked (== the three wakeup counters + server_repl_parked_pulls)", &s.repl.parks},
		{"server_repl_park_wakeups_records_total", "parked pulls woken by a publish of records past their cursor", &s.repl.wokeRecords},
		{"server_repl_park_wakeups_deadline_total", "parked pulls that reached their bound and answered empty", &s.repl.wokeDeadline},
		{"server_repl_park_wakeups_closed_total", "parked pulls cancelled by their connection closing (shutdown included)", &s.repl.wokeClosed},
	} {
		reg.CounterFunc(c.name, c.help, c.v.Load)
	}
	// Every shard of a replicated role has a waiter (newShard).
	reg.GaugeFunc("server_repl_held_acks", "write acks parked awaiting replica ack",
		asGauge(s.sumShards(func(sh *shard) uint64 { return uint64(sh.waiter.count()) })))
	reg.CounterFunc("server_repl_degraded_acks_total", "writes acked without replica coverage",
		s.sumShards(func(sh *shard) uint64 { return sh.degradedAcks.Load() }))
	reg.GaugeFunc("server_write_fenced", "1 while a primary refuses writes because its replica went silent past FenceAfter",
		func() int64 {
			if s.repl.role.Load() == RolePrimary && s.writeFenced() {
				return 1
			}
			return 0
		})
	reg.CounterFunc("server_repl_fenced_writes_total", "writes refused by primary self-fencing",
		s.sumShards(func(sh *shard) uint64 { return sh.fencedWrites.Load() }))
	reg.CounterFunc("server_repl_timeout_acks_total", "held write acks expired by the sweeper",
		s.sumShards(func(sh *shard) uint64 { return sh.waiter.timeouts() }))
	if f := s.repl.follower; f != nil {
		reg.CounterFunc("server_follower_pulls_total", "replication pulls answered, all shards",
			func() uint64 { return f.pulls.Load() })
		reg.CounterFunc("server_follower_reconnects_total", "connections to the primary the follower lost, summed over its per-shard pullers",
			func() uint64 { return f.reconnects.Load() })
		reg.CounterFunc("server_follower_divergences_total", "apply batches refused for log gaps or divergence",
			func() uint64 { return f.divergences.Load() })
		reg.CounterFunc("server_follower_reseeds_total", "diverged shards rebuilt from a primary snapshot",
			func() uint64 { return f.reseeds.Load() })
	}
}

// ---- Follower ------------------------------------------------------------

// errFollowerStopped aborts a shard control request when the follower is
// told to stop.
var errFollowerStopped = errors.New("server: follower stopped")

// A puller's socket deadline is wall-clock; the longest park it asks for
// stays well inside it, so a parked pull never reads as a dead primary.
// pullBatch bounds the records one pull asks for (at most MaxReplBatch).
const (
	pullIOTimeout = 2 * time.Second
	maxPullPark   = time.Second
	pullBatch     = 1024
)

// follower is the replica's side of log shipping: one puller goroutine
// and one connection per shard — replies on a connection come back in
// request order, so a pull parked for an idle shard would hold a busy
// shard's records behind it. Each puller loops [OpReplAck for the batch it
// just applied] + OpReplicate as one pipelined write, so the ack costs no
// round trip and the primary releases held acks before it parks the pull
// behind them; while connected it never sleeps. Connection loss re-dials
// with backoff; silence past promoteAfter (when set) promotes this server.
type follower struct {
	s            *Server
	addr         string
	dial         func(addr string) (net.Conn, error)
	poll         time.Duration // re-dial backoff floor; pause after an unusable reply
	parkMS       uint32        // deadline envelope on every pull but a connection's first
	promoteAfter time.Duration
	clock        fault.Clock // lastContact stamps and the promotion window

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup // the pullers

	primarySeq  []atomic.Uint64 // per shard, from pull replies
	connected   atomic.Int32    // pullers holding a connection
	lastContact atomic.Int64    // UnixNano of the last successful exchange
	pulls       atomic.Uint64
	applies     atomic.Uint64
	reconnects  atomic.Uint64
	divergences atomic.Uint64
	reseeds     atomic.Uint64
	diverged    atomic.Bool // gates the one-time divergence log line
}

func newFollower(s *Server, cfg *Config) *follower {
	// The primary answers an idle pull at the envelope at the latest, and
	// each answer is contact: half of promoteAfter keeps a quiet primary
	// from reading as a silent one when a connection then drops.
	park := maxPullPark
	if cfg.PromoteAfter > 0 {
		park = min(park, cfg.PromoteAfter/2)
	}
	f := &follower{
		s:            s,
		addr:         cfg.FollowAddr,
		dial:         cfg.FollowDial,
		poll:         cfg.FollowPoll,
		parkMS:       uint32(max(park.Milliseconds(), 1)),
		promoteAfter: cfg.PromoteAfter,
		clock:        fault.OrWall(cfg.Clock),
		stop:         make(chan struct{}),
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

// start launches one puller per shard.
func (f *follower) start() {
	f.wg.Add(len(f.s.shards))
	for si := range f.s.shards {
		go f.run(si)
	}
}

// signalStop tells every puller to exit; each connection's watcher (run)
// then closes it, so a receive blocked on a parked pull returns now rather
// than at the park's bound. It does not wait: Promote calls it from inside
// a puller.
func (f *follower) signalStop() { f.stopOnce.Do(func() { close(f.stop) }) }

// Stop signals the follower and waits for its pullers to exit.
func (f *follower) Stop() {
	f.signalStop()
	f.wg.Wait()
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

// run is shard si's puller: dial, pull until the connection breaks or stop
// is signaled, re-dial. Promotion by silence: if the primary stays
// unreachable past promoteAfter, take over.
func (f *follower) run(si int) {
	defer f.wg.Done()
	backoff := f.poll
	for {
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
		served := make(chan struct{})
		go func() { // the watcher: a stop cuts the connection under a parked pull
			select {
			case <-f.stop:
				conn.Close()
			case <-served:
			}
		}()
		f.connected.Add(1)
		c := NewClient(conn)
		c.SetTimeout(pullIOTimeout)
		f.serveConn(c, si)
		f.connected.Add(-1)
		close(served)
		c.Close()
		f.reconnects.Add(1)
		if f.maybePromote() {
			return
		}
	}
}

// serveConn pulls one shard over one connection until the connection
// breaks or the follower stops. The first pull carries no envelope, so it
// is answered — and replica contact stamped — within a round trip of the
// dial: pair bring-up waits on exactly that (Pulls > 0), and a pull parked
// on an idle primary would keep it waiting a whole park.
func (f *follower) serveConn(c *Client, si int) {
	sh := f.s.shards[si]
	var ack uint64    // sequence owed a REPLACK (0: none)
	var parkMS uint32 // 0 on the first pull only
	p := c.Pipeline()
	for {
		if ack != 0 {
			p.ReplAck(uint32(si), ack)
		}
		p.add(&Request{Op: OpReplicate, Shard: uint32(si), Seq: sh.applied.Load(), Limit: pullBatch, TTLms: parkMS})
		reps, err := p.Run()
		if err != nil {
			return
		}
		f.pulls.Add(1)
		f.touch()
		parkMS = f.parkMS
		var usable bool
		if ack, usable = f.apply(c, si, &reps[len(reps)-1]); !usable && !f.sleep(f.poll) {
			return
		}
	}
}

// apply acts on one pull reply: applies the shipped batch through the
// owning shard worker, or re-seeds a shard the primary has truncated
// past. It returns the sequence to acknowledge ahead of the next pull
// (0: nothing new), and whether the reply was usable — the puller pauses
// after one that was not, where it would otherwise spin on it.
func (f *follower) apply(c *Client, si int, rep *Reply) (ack uint64, usable bool) {
	sh := f.s.shards[si]
	f.primarySeq[si].Store(rep.Seq)
	applied := sh.applied.Load()
	if base := rep.Value; base > applied+1 {
		// The primary's retained log starts past our cursor: it truncated
		// records we never applied — we attached, or came back from a
		// partition, after it checkpointed with no live replica, or it was
		// re-seeded. The reply says so even when it ships nothing, so an idle
		// primary is no reason to stay stale. Refuse the batch — applying it
		// would silently skip operations.
		f.divergences.Add(1)
		if f.diverged.CompareAndSwap(false, true) {
			f.s.logf("server: follower shard %d diverged from %s: primary ships from seq %d, applied is %d",
				si, f.addr, base, applied)
			f.s.trigger(TriggerDivergence,
				fmt.Sprintf("follower shard %d: primary ships from seq %d, applied is %d", si, base, applied))
		}
		// Rebuild the shard from a primary snapshot (the migration transfer
		// machinery) instead of waiting for an operator.
		if err := f.reseed(c, si, base); err != nil {
			f.s.logf("server: follower shard %d re-seed: %v", si, err)
			return 0, false
		}
		// The checkpointed snapshot covers everything below base; say so, or
		// an idle primary counts us lagging (and keeps its log) until its
		// next write.
		return base - 1, true
	}
	if len(rep.Recs) == 0 {
		// Caught up — unless the primary has logged past our cursor and
		// shipped none of it: its log flush is failing.
		return 0, rep.Seq <= applied
	}
	arep, ok := sh.call(f.stop, func(sh *shard) Reply { return sh.applyRecords(rep.Recs) })
	if !ok {
		return 0, false
	}
	if arep.Status != StatusOK {
		// Sequence gap or a worker mid-recovery: skip the ack; the next pull
		// starts from the shard's true applied sequence.
		f.divergences.Add(1)
		return 0, false
	}
	f.applies.Add(uint64(len(rep.Recs)))
	return arep.Seq, true
}

// reseed rebuilds one diverged shard from a primary snapshot, reusing the
// migration transfer machinery (OpMigSnapshot with SlotAll — replicas
// mirror the primary shard for shard, so the snapshot reads the same
// shard index). The shard is wiped with its sequence space restarted at
// base-1, the primary's live pairs are bulk-copied in unlogged chunks,
// and a checkpoint seals the rebuilt state; the next pull resumes
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
		if err := f.shardCtl(sh, func(sh *shard) Reply { return sh.reseedBegin(watermark) }); err != nil {
			return err
		}
		cursor := uint64(0)
		copied := 0
		for {
			done, next, pairs, err := c.MigSnapshot(uint32(si), SlotAll, cursor, MaxScanLimit)
			if err != nil {
				return err
			}
			if err := f.shardCtl(sh, func(sh *shard) Reply { return sh.reseedChunk(pairs) }); err != nil {
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
		if err := f.shardCtl(sh, (*shard).checkpointNow); err != nil {
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

// shardCtl runs one step of a re-seed on the shard's worker and wants OK,
// aborting if the follower is told to stop.
func (f *follower) shardCtl(sh *shard, step func(*shard) Reply) error {
	rep, ok := sh.call(f.stop, step)
	if !ok {
		return errFollowerStopped
	}
	if rep.Status != StatusOK {
		return fmt.Errorf("server: shard %d reseed step: status %d", sh.cfg.id, rep.Status)
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

// FollowerStats is the replica's follower block of a STATS reply. The
// follower runs one puller and one connection per shard; the block stays
// one per server: Connected means any puller holds a connection, and the
// counters sum over the pullers.
type FollowerStats struct {
	Connected     bool   `json:"connected"`
	Pulls         uint64 `json:"pulls"`   // pull replies received
	Applied       uint64 `json:"applied"` // records applied from them
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
		Connected:     f.connected.Load() > 0,
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
