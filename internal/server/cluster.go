package server

// Cluster tier: epoch-versioned slot ownership, MOVED redirects, and live
// slot migration.
//
// Every key hashes to one of the cluster map's slots (cluster.SlotFor),
// and each slot is owned by exactly one node. A node serves only the keys
// of slots it owns; everything else answers StatusMoved with the owner's
// address and the node's map epoch, and a cluster-routing client
// (ClusterClient) refreshes its cached map and re-routes.
//
// Migration is acceptor-driven and live — the donor keeps serving the
// slot until the final handover:
//
//  1. snapshot: the acceptor captures the donor's per-shard applied
//     sequences (S0), then bulk-copies the slot's live pairs shard by
//     shard (OpMigSnapshot), applying them locally as fresh writes.
//  2. catch-up: the acceptor tails each donor shard's durable log after
//     S0 (OpMigPull, slot-filtered) until it has nearly drained the lag.
//     Re-applying records the snapshot already covers is harmless: the
//     whole contiguous suffix replays in order, so the last write per
//     key wins either way.
//  3. fence: OpMigFence makes the donor refuse every later data op for
//     the slot (StatusMoved toward the acceptor), drain its shard queues
//     (a barrier each), and only then capture per-shard fence sequences. The
//     barrier is what makes the watermarks final: the worker runs the
//     ownership check, so once the queues drain, no pre-fence write can
//     still be in flight below the captured sequences.
//  4. final catch-up: the acceptor pulls until every donor shard's
//     cursor reaches its fence sequence. Every acked donor write of the
//     slot is now on the acceptor.
//  5. commit: the acceptor installs map epoch+1 (slot -> acceptor)
//     locally first, then on the donor (required — it releases the fence
//     and audits), then best-effort on the rest of the cluster.
//
// Between fence and commit, writes to the slot bounce MOVED between the
// two nodes; the routing client retries with map refreshes and backoff,
// and the window is one final catch-up long. When the donor learns the
// handover committed, it audits its logs for post-fence writes to the
// slot (any found is a fencing bug, counted in StaleEpochWrites and
// dumped to the flight recorder) and then purges the migrated keys.
//
// The same transfer machinery (OpMigSnapshot with SlotAll) re-seeds a
// diverged replica: see follower.reseed in repl.go.

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"nvref/internal/cluster"
	"nvref/internal/obs"
	"nvref/internal/repl"
)

// clusterState is the server's cluster-tier state: the current map, the
// fences of slots mid-handover (this node donating), and the counters the
// metrics and STATS planes export.
type clusterState struct {
	mu     sync.RWMutex
	cmap   *cluster.Map       // nil until the node is given a map
	fenced map[int]*fenceInfo // slot -> fence, while this node is the donor

	self string // advertised address, immutable after New

	staleEpochWrites atomic.Uint64 // post-fence writes found by the handover audit
	mapFetches       atomic.Uint64 // OpClusterMap served
	mapUpdates       atomic.Uint64 // maps installed (local or OpMapUpdate)
	mapRejects       atomic.Uint64 // map installs refused for a stale epoch
	migratedIn       atomic.Uint64 // slots this node accepted
	migratedOut      atomic.Uint64 // slots this node donated
	snapshotsServed  atomic.Uint64 // OpMigSnapshot chunks served
	pullsServed      atomic.Uint64 // OpMigPull batches served
}

// fenceInfo is one fenced slot on the donor: where its traffic redirects
// and the per-shard log sequences captured after the fence barrier. seqs
// is nil while the barrier is still draining.
type fenceInfo struct {
	dst  string
	seqs []uint64
}

// clusterOn reports whether the cluster tier is configured.
func (s *Server) clusterOn() bool { return s.cluster.self != "" }

// clusterMap returns the node's current map (nil if it has none).
func (s *Server) clusterMap() *cluster.Map {
	s.cluster.mu.RLock()
	defer s.cluster.mu.RUnlock()
	return s.cluster.cmap
}

// slotCheck is the shard workers' ownership check (shardConfig.owns): a
// key in a slot this node does not own — or has fenced for handover — is
// refused with the redirect hint.
func (s *Server) slotCheck(key uint64) (moved bool, epoch uint64, addr string) {
	cs := &s.cluster
	cs.mu.RLock()
	defer cs.mu.RUnlock()
	m := cs.cmap
	if m == nil {
		return false, 0, ""
	}
	slot := cluster.SlotFor(key, m.Slots)
	if fi := cs.fenced[slot]; fi != nil {
		return true, m.Epoch, fi.dst
	}
	if owner := m.OwnerOf(slot); owner != cs.self {
		return true, m.Epoch, owner
	}
	return false, 0, ""
}

// clusterMapReply serves OpClusterMap: the node's current map image.
func (s *Server) clusterMapReply() Reply {
	m := s.clusterMap()
	if m == nil {
		return Reply{Status: StatusBadRequest}
	}
	s.cluster.mapFetches.Add(1)
	return Reply{Status: StatusOK, Blob: m.Encode()}
}

// mapUpdateReply serves OpMapUpdate: decode and install.
func (s *Server) mapUpdateReply(req *Request) Reply {
	m, err := cluster.Decode(req.Blob)
	if err != nil {
		return Reply{Status: StatusBadRequest}
	}
	return s.installMap(m)
}

// installMap adopts a strictly newer map, persists it, and releases any
// fence whose slot the new map assigns away from this node — the donor's
// commit point. Each released slot is audited for post-fence writes (the
// zero-stale-writes invariant) and its keys are purged.
func (s *Server) installMap(m *cluster.Map) Reply {
	cs := &s.cluster
	cs.mu.Lock()
	if cur := cs.cmap; cur != nil && m.Epoch <= cur.Epoch {
		cs.mu.Unlock()
		cs.mapRejects.Add(1)
		return Reply{Status: StatusWrongEpoch, Epoch: cur.Epoch}
	}
	cs.cmap = m
	type release struct {
		slot int
		seqs []uint64
	}
	var released []release
	for slot, fi := range cs.fenced {
		if m.OwnerOf(slot) != cs.self {
			released = append(released, release{slot, fi.seqs})
			delete(cs.fenced, slot)
		}
		// A fence whose slot the new map still assigns here stays: the
		// epoch bump was about some other slot.
	}
	cs.mu.Unlock()
	cs.mapUpdates.Add(1)
	if s.cfg.ClusterStore != nil {
		if err := cluster.Save(s.cfg.ClusterStore, m); err != nil {
			s.logf("cluster: persisting map epoch %d: %v", m.Epoch, err)
		}
	}
	for _, rel := range released {
		s.auditHandover(rel.slot, rel.seqs, m.Slots)
		s.purgeSlot(rel.slot, m.Slots)
		cs.migratedOut.Add(1)
		if s.flight != nil {
			s.trigger(TriggerMigration, fmt.Sprintf("slot %d handed over to %s at epoch %d",
				rel.slot, m.OwnerOf(rel.slot), m.Epoch))
		}
		s.logf("cluster: slot %d handed over to %s (epoch %d)", rel.slot, m.OwnerOf(rel.slot), m.Epoch)
	}
	return Reply{Status: StatusOK}
}

// auditHandover scans each shard's log past the slot's fence sequence for
// writes to the released slot. The fence barrier makes any hit a fencing
// bug — an acked write the acceptor's final catch-up never saw — so hits
// are counted (the bench gate asserts zero) and dump the flight recorder.
// The scan is bounded by the log's sequence at audit time, before the
// purge below appends its deletes, so reclamation never pollutes it.
func (s *Server) auditHandover(slot int, seqs []uint64, slots int) {
	var stale uint64
	for i, sh := range s.shards {
		if sh.cfg.oplog == nil || i >= len(seqs) {
			continue
		}
		through := sh.cfg.oplog.LastSeq()
		for _, rec := range sh.cfg.oplog.Since(seqs[i], 0) {
			if rec.Seq > through {
				break
			}
			if cluster.SlotFor(rec.Key, slots) == slot {
				stale++
			}
		}
	}
	if stale > 0 {
		s.cluster.staleEpochWrites.Add(stale)
		s.trigger(TriggerEpoch, fmt.Sprintf("%d post-fence writes to slot %d escaped the handover", stale, slot))
		s.logf("cluster: AUDIT FAILURE: %d post-fence writes to migrated slot %d", stale, slot)
	}
}

// purgeSlot deletes the migrated slot's keys from every shard through the
// logged delete path. Run after the audit: its deletes carry sequences
// past the audit's bound.
func (s *Server) purgeSlot(slot, slots int) {
	for _, sh := range s.shards {
		sh.call(nil, func(sh *shard) Reply { return sh.purgeSlot(uint32(slot), slots) })
	}
}

// migSnapshotReply serves one OpMigSnapshot chunk from the addressed
// shard's worker.
func (s *Server) migSnapshotReply(req *Request) Reply {
	if int(req.Shard) >= len(s.shards) {
		return Reply{Status: StatusBadRequest}
	}
	slots := 0
	if req.Slot != SlotAll {
		m := s.clusterMap()
		if m == nil || int(req.Slot) >= m.Slots {
			return Reply{Status: StatusBadRequest}
		}
		slots = m.Slots
	}
	rep, _ := s.shards[req.Shard].call(nil, func(sh *shard) Reply {
		return sh.snapshotChunk(req.Key, req.Limit, req.Slot, slots)
	})
	s.cluster.snapshotsServed.Add(1)
	return rep
}

// migPullReply serves OpMigPull: durable log records of one shard after a
// cursor, filtered to the requested slot. The reply reports the highest
// sequence examined (Seq — the next cursor; filtered-out records advance
// it without being shipped), the shard's newest logged sequence (Value),
// and whether the retained log still covers cursor+1 (Found): when it
// does not, the acceptor's cursor fell behind a truncation and it must
// restart from a snapshot.
func (s *Server) migPullReply(req *Request) Reply {
	if int(req.Shard) >= len(s.shards) {
		return Reply{Status: StatusBadRequest}
	}
	sh := s.shards[req.Shard]
	if sh.cfg.oplog == nil {
		return Reply{Status: StatusBadRequest}
	}
	var slots int
	if req.Slot != SlotAll {
		m := s.clusterMap()
		if m == nil || int(req.Slot) >= m.Slots {
			return Reply{Status: StatusBadRequest}
		}
		slots = m.Slots
	}
	recs, base := shipDurable(sh.cfg.oplog, req.Seq, req.Limit)
	contiguous := base <= req.Seq+1
	through := req.Seq
	kept := recs[:0]
	for _, rec := range recs {
		through = rec.Seq
		if req.Slot == SlotAll || cluster.SlotFor(rec.Key, slots) == int(req.Slot) {
			kept = append(kept, rec)
		}
	}
	s.cluster.pullsServed.Add(1)
	return Reply{
		Status: StatusOK, Found: contiguous, Seq: through,
		Value: sh.cfg.oplog.LastSeq(), Recs: kept,
	}
}

// migFenceReply serves OpMigFence: fence the slot toward the acceptor,
// drain every shard queue, then capture the per-shard fence sequences.
// Idempotent for the same acceptor (a retried fence returns the already-
// captured watermarks); a second acceptor is refused.
func (s *Server) migFenceReply(req *Request) Reply {
	cs := &s.cluster
	cs.mu.Lock()
	m := cs.cmap
	if m == nil || int(req.Slot) >= m.Slots {
		cs.mu.Unlock()
		return Reply{Status: StatusBadRequest}
	}
	if owner := m.OwnerOf(int(req.Slot)); owner != cs.self {
		cs.mu.Unlock()
		return Reply{Status: StatusMoved, Epoch: m.Epoch, Addr: owner}
	}
	if fi := cs.fenced[int(req.Slot)]; fi != nil {
		seqs := fi.seqs
		dst := fi.dst
		cs.mu.Unlock()
		if dst != req.Addr {
			return Reply{Status: StatusBadRequest}
		}
		if seqs == nil {
			// Another fence for the same handover is still draining the
			// barrier; the acceptor retries.
			return Reply{Status: StatusUnavailable}
		}
		return Reply{Status: StatusOK, Seqs: seqs}
	}
	fi := &fenceInfo{dst: req.Addr}
	cs.fenced[int(req.Slot)] = fi
	cs.mu.Unlock()
	// The flag is visible to the workers; drain every queue so each write
	// admitted before it has fully executed (and appended) — only then are
	// the captured sequences final watermarks.
	for _, sh := range s.shards {
		sh.call(nil, (*shard).barrier)
	}
	seqs := make([]uint64, len(s.shards))
	for i, sh := range s.shards {
		if sh.cfg.oplog != nil {
			seqs[i] = sh.cfg.oplog.LastSeq()
		}
	}
	cs.mu.Lock()
	fi.seqs = seqs
	cs.mu.Unlock()
	s.logf("cluster: slot %d fenced toward %s", req.Slot, req.Addr)
	return Reply{Status: StatusOK, Seqs: seqs}
}

// fencedSlots counts slots currently fenced on this node.
func (s *Server) fencedSlots() int {
	s.cluster.mu.RLock()
	defer s.cluster.mu.RUnlock()
	return len(s.cluster.fenced)
}

// clusterDial resolves the migration dialer (nil: plain TCP).
func clusterDial(dial func(addr string) (net.Conn, error)) func(addr string) (net.Conn, error) {
	if dial != nil {
		return dial
	}
	return func(addr string) (net.Conn, error) { return net.Dial("tcp", addr) }
}

// ingestRecords routes transferred records to their local shards and
// applies them as fresh writes (shard.ingest). Donor and acceptor shard
// counts are independent; per-key order survives the regrouping because a
// key lives in exactly one donor shard and arrives in donor-log order.
func (s *Server) ingestRecords(recs []repl.Record) {
	if len(recs) == 0 {
		return
	}
	groups := make(map[int][]repl.Record)
	for _, rec := range recs {
		id := ShardFor(rec.Key, len(s.shards))
		groups[id] = append(groups[id], rec)
	}
	for id, g := range groups {
		s.shards[id].call(nil, func(sh *shard) Reply { return sh.ingest(g) })
	}
}

// pairsToRecords converts snapshot pairs to put records for ingest.
func pairsToRecords(pairs []KV) []repl.Record {
	recs := make([]repl.Record, len(pairs))
	for i, kv := range pairs {
		recs[i] = repl.Record{Op: repl.RecPut, Key: kv.Key, Value: kv.Value}
	}
	return recs
}

// errMigrationRestart reports a catch-up cursor that fell behind the
// donor's log truncation; the caller restarts from a fresh snapshot.
var errMigrationRestart = errors.New("server: migration cursor truncated; restart from snapshot")

// errMigrationStopped reports a migration interrupted by server
// shutdown; the slot stays with the donor (or fenced for this
// acceptor, in which case a re-run after restart completes it).
var errMigrationStopped = errors.New("server: migration interrupted by shutdown")

// MigrateIn takes ownership of one cluster slot: snapshot, catch-up,
// fence, final catch-up, commit (see the package comment's state
// machine). dial, when non-nil, replaces the TCP dialer — the hook fault
// injectors use. The donor keeps serving the slot until the fence.
func (s *Server) MigrateIn(slot int, dial func(addr string) (net.Conn, error)) error {
	if !s.clusterOn() {
		return errors.New("server: cluster tier not configured")
	}
	m := s.clusterMap()
	if m == nil {
		return errors.New("server: no cluster map")
	}
	if slot < 0 || slot >= m.Slots {
		return fmt.Errorf("server: no slot %d", slot)
	}
	donor := m.OwnerOf(slot)
	if donor == s.cluster.self {
		return nil
	}
	if !s.migEnter() {
		return errMigrationStopped
	}
	defer s.migExit()
	dialer := clusterDial(dial)
	for attempt := 0; ; attempt++ {
		err := s.migrateOnce(slot, donor, dialer)
		if err == nil {
			return nil
		}
		if errors.Is(err, errMigrationRestart) && attempt < 3 {
			s.logf("cluster: slot %d migration restarting (%v)", slot, err)
			continue
		}
		return err
	}
}

// migrateOnce runs one attempt of the migration state machine against the
// donor.
func (s *Server) migrateOnce(slot int, donor string, dial func(addr string) (net.Conn, error)) error {
	conn, err := dial(donor)
	if err != nil {
		return fmt.Errorf("server: dialing donor %s: %w", donor, err)
	}
	cl := NewClient(conn)
	cl.SetTimeout(10 * time.Second) // bound each RPC so shutdown's drain wait is bounded too
	defer cl.Close()

	// Donor shape and pre-snapshot applied sequences (the catch-up bases:
	// every record at or below them is reflected in the snapshot).
	st, err := cl.Stats()
	if err != nil {
		return fmt.Errorf("server: donor stats: %w", err)
	}
	cursors := make([]uint64, st.Shards)
	for i, ps := range st.PerShard {
		if i < len(cursors) && ps.Repl != nil {
			cursors[i] = ps.Repl.Applied
		}
	}

	// Snapshot: bulk-copy the slot's live pairs, shard by shard.
	for ds := 0; ds < st.Shards; ds++ {
		cursor := uint64(0)
		for {
			if s.migStopped() {
				return errMigrationStopped
			}
			done, next, pairs, err := cl.MigSnapshot(uint32(ds), uint32(slot), cursor, MaxScanLimit)
			if err != nil {
				return fmt.Errorf("server: snapshot of donor shard %d: %w", ds, err)
			}
			s.ingestRecords(pairsToRecords(pairs))
			if done {
				break
			}
			cursor = next
		}
	}

	// Catch-up: tail each donor shard's durable log until drained.
	for ds := 0; ds < st.Shards; ds++ {
		if err := s.pullUntil(cl, uint32(ds), uint32(slot), &cursors[ds], nil); err != nil {
			return err
		}
	}

	// Fence: the donor stops serving the slot and reports the final
	// per-shard watermarks. Unavailable means its barrier is still
	// draining a concurrent fence of the same handover; retry briefly.
	var fenceSeqs []uint64
	for {
		if s.migStopped() {
			return errMigrationStopped
		}
		seqs, err := cl.MigFence(uint32(slot), s.cluster.self)
		if err == nil {
			fenceSeqs = seqs
			break
		}
		if errors.Is(err, ErrUnavailable) {
			time.Sleep(time.Millisecond)
			continue
		}
		return fmt.Errorf("server: fencing slot %d on %s: %w", slot, donor, err)
	}

	// Final catch-up: reach every fence watermark. After this, every
	// donor-acked write of the slot is applied locally.
	for ds := 0; ds < st.Shards && ds < len(fenceSeqs); ds++ {
		target := fenceSeqs[ds]
		if err := s.pullUntil(cl, uint32(ds), uint32(slot), &cursors[ds], &target); err != nil {
			return err
		}
	}

	if s.migStopped() {
		return errMigrationStopped
	}
	// Commit: build epoch+1 from the donor's map (the epoch the fence was
	// validated under), install locally first — this node must serve the
	// slot before the donor releases it — then on the donor (required:
	// it releases the fence, audits, and purges), then best-effort
	// elsewhere.
	img, err := cl.ClusterMap()
	if err != nil {
		return fmt.Errorf("server: donor map: %w", err)
	}
	base, err := cluster.Decode(img)
	if err != nil {
		return fmt.Errorf("server: donor map: %w", err)
	}
	next, err := base.WithOwner(slot, s.cluster.self)
	if err != nil {
		return err
	}
	if rep := s.installMap(next); rep.Status != StatusOK {
		return fmt.Errorf("server: installing handover map: %v", rep.Err())
	}
	if err := cl.MapUpdate(next); err != nil && !errors.Is(err, ErrWrongEpoch) {
		return fmt.Errorf("server: committing handover on donor %s: %w", donor, err)
	}
	s.cluster.migratedIn.Add(1)
	if s.flight != nil {
		s.trigger(TriggerMigration, fmt.Sprintf("slot %d accepted from %s at epoch %d", slot, donor, next.Epoch))
	}
	s.logf("cluster: slot %d accepted from %s (epoch %d)", slot, donor, next.Epoch)
	for _, node := range next.Nodes {
		if node == s.cluster.self || node == donor {
			continue
		}
		s.gossipMap(node, next, dial)
	}
	return nil
}

// pullUntil tails one donor shard's log from *cursor: with target nil,
// until the cursor reaches the shard's newest logged sequence; with a
// target, until the cursor reaches it. A non-contiguous reply means the
// donor truncated past the cursor — restart from a snapshot.
func (s *Server) pullUntil(cl *Client, shard, slot uint32, cursor *uint64, target *uint64) error {
	for {
		if s.migStopped() {
			return errMigrationStopped
		}
		contiguous, through, last, recs, err := cl.MigPull(shard, slot, *cursor, MaxReplBatch)
		if err != nil {
			return fmt.Errorf("server: catch-up pull of donor shard %d: %w", shard, err)
		}
		if !contiguous {
			return fmt.Errorf("%w (donor shard %d, cursor %d)", errMigrationRestart, shard, *cursor)
		}
		s.ingestRecords(recs)
		*cursor = through
		goal := last
		if target != nil {
			goal = *target
		}
		if *cursor >= goal {
			return nil
		}
	}
}

// gossipMap pushes a map to one node, best-effort: stale-epoch rejection
// and unreachability are both fine — the node will learn the map from a
// MOVED-triggered refresh instead.
func (s *Server) gossipMap(addr string, m *cluster.Map, dial func(addr string) (net.Conn, error)) {
	conn, err := clusterDial(dial)(addr)
	if err != nil {
		return
	}
	cl := NewClient(conn)
	defer cl.Close()
	cl.SetTimeout(2 * time.Second)
	_ = cl.MapUpdate(m)
}

// JoinCluster adopts the map of a running node: the joiner owns nothing
// (it answers MOVED for every key) until a Rebalance migrates slots onto
// it. dial, when non-nil, replaces the TCP dialer.
func (s *Server) JoinCluster(seed string, dial func(addr string) (net.Conn, error)) error {
	if !s.clusterOn() {
		return errors.New("server: cluster tier not configured")
	}
	conn, err := clusterDial(dial)(seed)
	if err != nil {
		return fmt.Errorf("server: dialing seed %s: %w", seed, err)
	}
	cl := NewClient(conn)
	defer cl.Close()
	img, err := cl.ClusterMap()
	if err != nil {
		return fmt.Errorf("server: fetching map from %s: %w", seed, err)
	}
	m, err := cluster.Decode(img)
	if err != nil {
		return fmt.Errorf("server: map from %s: %w", seed, err)
	}
	if rep := s.installMap(m); rep.Status != StatusOK && rep.Status != StatusWrongEpoch {
		return fmt.Errorf("server: installing seed map: %v", rep.Err())
	}
	return nil
}

// Rebalance migrates slots onto this node until it owns its fair share
// (cluster.RebalanceTarget), one live migration at a time, and returns
// how many slots it took. The scale-out path: JoinCluster, then
// Rebalance under load.
func (s *Server) Rebalance(dial func(addr string) (net.Conn, error)) (int, error) {
	n := 0
	for {
		moved, err := s.RebalanceOnce(dial)
		if err != nil || !moved {
			return n, err
		}
		n++
	}
}

// RebalanceOnce is one step of Rebalance: it migrates the first slot the
// plan towards this node's fair share moves onto it, and reports whether
// there was one. A caller that paces the steps itself (the simulator,
// from its schedule) gets each handover synchronously.
func (s *Server) RebalanceOnce(dial func(addr string) (net.Conn, error)) (bool, error) {
	if !s.clusterOn() {
		return false, errors.New("server: cluster tier not configured")
	}
	m := s.clusterMap()
	if m == nil {
		return false, errors.New("server: no cluster map")
	}
	target, err := cluster.RebalanceTarget(m, s.cluster.self)
	if err != nil {
		return false, err
	}
	for _, mv := range cluster.PlanMoves(m, target) {
		if mv.To == s.cluster.self {
			return true, s.MigrateIn(mv.Slot, dial)
		}
	}
	return false, nil
}

// ClusterStats is the cluster block of a STATS reply.
type ClusterStats struct {
	Self             string `json:"self"`
	Epoch            uint64 `json:"epoch"`
	Slots            int    `json:"slots"`
	SlotsOwned       int    `json:"slots_owned"`
	FencedSlots      int    `json:"fenced_slots"`
	Nodes            int    `json:"nodes"`
	Moved            uint64 `json:"moved"` // data ops answered StatusMoved
	StaleEpochWrites uint64 `json:"stale_epoch_writes"`
	MapFetches       uint64 `json:"map_fetches"`
	MapUpdates       uint64 `json:"map_updates"`
	MapRejects       uint64 `json:"map_rejects"`
	MigratedIn       uint64 `json:"migrated_in"`
	MigratedOut      uint64 `json:"migrated_out"`
	SnapshotsServed  uint64 `json:"snapshots_served"`
	PullsServed      uint64 `json:"pulls_served"`
	Ingested         uint64 `json:"ingested"` // records applied by migration ingest
	Purged           uint64 `json:"purged"`   // keys reclaimed from donated slots
}

func (s *Server) clusterStats() *ClusterStats {
	if !s.clusterOn() {
		return nil
	}
	cs := &s.cluster
	st := &ClusterStats{
		Self:             cs.self,
		FencedSlots:      s.fencedSlots(),
		StaleEpochWrites: cs.staleEpochWrites.Load(),
		MapFetches:       cs.mapFetches.Load(),
		MapUpdates:       cs.mapUpdates.Load(),
		MapRejects:       cs.mapRejects.Load(),
		MigratedIn:       cs.migratedIn.Load(),
		MigratedOut:      cs.migratedOut.Load(),
		SnapshotsServed:  cs.snapshotsServed.Load(),
		PullsServed:      cs.pullsServed.Load(),
	}
	if m := s.clusterMap(); m != nil {
		st.Epoch = m.Epoch
		st.Slots = m.Slots
		st.SlotsOwned = m.Owned(cs.self)
		st.Nodes = len(m.Nodes)
	}
	for _, sh := range s.shards {
		st.Moved += sh.moved.Load()
		st.Ingested += sh.ingested.Load()
		st.Purged += sh.purged.Load()
	}
	return st
}

// registerClusterMetrics exports the cluster-tier series.
func (s *Server) registerClusterMetrics(reg *obs.Registry) {
	cs := &s.cluster
	reg.GaugeFunc("server_cluster_epoch", "current cluster map epoch (0: no map)", func() int64 {
		if m := s.clusterMap(); m != nil {
			return int64(m.Epoch)
		}
		return 0
	})
	reg.GaugeFunc("server_cluster_slots_owned", "cluster slots this node owns", func() int64 {
		if m := s.clusterMap(); m != nil {
			return int64(m.Owned(cs.self))
		}
		return 0
	})
	reg.GaugeFunc("server_cluster_fenced_slots", "slots fenced mid-handover on this node", func() int64 {
		return int64(s.fencedSlots())
	})
	reg.CounterFunc("server_cluster_moved_total", "data operations answered StatusMoved",
		s.sumShards(func(sh *shard) uint64 { return sh.moved.Load() }))
	reg.CounterFunc("server_cluster_stale_epoch_writes_total", "post-fence writes found by handover audits", func() uint64 { return cs.staleEpochWrites.Load() })
	reg.CounterFunc("server_cluster_map_fetches_total", "cluster map images served", func() uint64 { return cs.mapFetches.Load() })
	reg.CounterFunc("server_cluster_map_updates_total", "cluster maps installed", func() uint64 { return cs.mapUpdates.Load() })
	reg.CounterFunc("server_cluster_map_rejects_total", "map installs refused for a stale epoch", func() uint64 { return cs.mapRejects.Load() })
	reg.CounterFunc("server_cluster_migrated_in_total", "slots accepted by live migration", func() uint64 { return cs.migratedIn.Load() })
	reg.CounterFunc("server_cluster_migrated_out_total", "slots donated by live migration", func() uint64 { return cs.migratedOut.Load() })
	reg.CounterFunc("server_cluster_ingested_total", "records applied by migration ingest",
		s.sumShards(func(sh *shard) uint64 { return sh.ingested.Load() }))
	reg.CounterFunc("server_cluster_purged_total", "keys reclaimed from donated slots",
		s.sumShards(func(sh *shard) uint64 { return sh.purged.Load() }))
}
