package server

import (
	"math"
	"reflect"
	"testing"
	"time"

	"nvref/internal/cluster"
	"nvref/internal/repl"
)

// clusteredPrimary boots a one-node-of-two cluster member on a manual clock
// with no network front: the tests below drive its shards directly. It
// returns a key the node owns and one it must redirect.
func clusteredPrimary(t *testing.T, shards int, tweak func(*Config)) (s *Server, clk *manualClock, own, foreign uint64) {
	t.Helper()
	m, err := cluster.New(8, []string{"self", "other"})
	if err != nil {
		t.Fatal(err)
	}
	clk = newManualClock()
	cfg := Config{Shards: shards, PoolSize: testPoolSize, CheckpointEvery: -1, Clock: clk, ClusterSelf: "self", ClusterMap: m}
	if tweak != nil {
		tweak(&cfg)
	}
	if s, err = New(cfg); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Abort)
	for k := uint64(1); own == 0 || foreign == 0; k++ {
		if ShardFor(k, shards) != 0 {
			continue
		}
		if m.OwnerOf(cluster.SlotFor(k, m.Slots)) == "self" {
			own = k
		} else {
			foreign = k
		}
	}
	return s, clk, own, foreign
}

// TestRefuseOrder pins the order of the worker's refusal checks — deadline,
// slot ownership, replica read-only, self-fence, seq gate — by sending
// requests that several checks would refuse at once: the first in that
// order answers, exactly its counter moves, and neither the op counter,
// the log nor the store sees the request.
func TestRefuseOrder(t *testing.T) {
	const fenceAfter = 100 * time.Millisecond
	s, clk, own, foreign := clusteredPrimary(t, 1, func(c *Config) { c.FenceAfter = fenceAfter })
	sh := s.shards[0]
	counters := map[string]func() uint64{
		"deadline": sh.deadlineDrops.Load, "moved": sh.moved.Load, "readonly": sh.readOnlyRejects.Load,
		"fenced": sh.fencedWrites.Load, "lagging": sh.laggingReads.Load,
	}
	for _, tc := range []struct {
		name                         string
		op                           byte
		late, moved, replica, fenced bool
		gate                         uint64
		want                         byte
		counter                      string // "": admitted, no refusal counter moves
	}{
		{"late, moved and fenced write", OpPut, true, true, false, true, 0, StatusDeadline, "deadline"},
		{"moved and fenced write", OpPut, false, true, false, true, 0, StatusMoved, "moved"},
		{"moved write on a replica", OpDelete, false, true, true, false, 0, StatusMoved, "moved"},
		{"write on a replica", OpPut, false, false, true, false, 0, StatusReadOnly, "readonly"},
		{"fenced write", OpDelete, false, false, false, true, 0, StatusReadOnly, "fenced"},
		{"late and lagging read", OpGet, true, false, false, false, 99, StatusDeadline, "deadline"},
		{"moved and lagging read", OpGet, false, true, false, false, 99, StatusMoved, "moved"},
		{"lagging read on a fenced primary", OpGet, false, false, false, true, 99, StatusLagging, "lagging"},
		{"read on a fenced primary", OpGet, false, false, false, true, 0, StatusOK, ""},
		{"read on a replica", OpGet, false, false, true, false, 0, StatusOK, ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			req := &request{op: tc.op, key: own, value: 1, gate: tc.gate, start: clk.Now(), resp: make(chan Reply, 1)}
			if tc.moved {
				req.key = foreign
			}
			if tc.late {
				req.deadline = clk.Now().Add(-time.Millisecond)
			}
			role, contact := RolePrimary, int64(0) // a primary that never saw a replica is not fenced
			if tc.replica {
				role = RoleReplica
			}
			if tc.fenced {
				contact = clk.Now().Add(-2 * fenceAfter).UnixNano()
			}
			s.repl.role.Store(role)
			s.repl.lastPull.Store(contact)
			defer s.repl.role.Store(RolePrimary)

			before := make(map[string]uint64)
			for name, load := range counters {
				before[name] = load()
			}
			ops, gets, seq, keys := sh.ops.Load(), sh.gets.Load(), sh.cfg.oplog.LastSeq(), len(scanShard(sh))

			sh.submit(req)
			rep := <-req.resp
			if rep.Status != tc.want {
				t.Fatalf("status %d, want %d", rep.Status, tc.want)
			}
			if tc.want == StatusMoved && (rep.Addr != "other" || rep.Epoch != s.clusterMap().Epoch) {
				t.Fatalf("redirect hint %q epoch %d", rep.Addr, rep.Epoch)
			}
			for name, load := range counters {
				want := before[name]
				if name == tc.counter {
					want++
				}
				if got := load(); got != want {
					t.Errorf("counter %s = %d, want %d", name, got, want)
				}
			}
			if tc.counter == "" { // admitted: a read, executed and counted
				ops, gets = ops+1, gets+1
			}
			if sh.ops.Load() != ops || sh.gets.Load() != gets || sh.cfg.oplog.LastSeq() != seq || len(scanShard(sh)) != keys {
				t.Errorf("ops %d gets %d last seq %d keys %d, want %d %d %d %d",
					sh.ops.Load(), sh.gets.Load(), sh.cfg.oplog.LastSeq(), len(scanShard(sh)), ops, gets, seq, keys)
			}
		})
	}
}

// scanShard reads one shard's whole store, on its worker.
func scanShard(sh *shard) map[uint64]uint64 {
	rep, _ := sh.call(nil, func(sh *shard) Reply {
		var rep Reply
		sh.st.ScanVisit(0, math.MaxInt32, func(k, v uint64) { rep.Pairs = append(rep.Pairs, KV{k, v}) })
		return rep
	})
	out := make(map[uint64]uint64, len(rep.Pairs))
	for _, kv := range rep.Pairs {
		out[kv.Key] = kv.Value
	}
	return out
}

// TestWriteAheadAtEverySite drives every way a shard takes a new mutation —
// client PUT and DELETE, a migration ingest, a slot purge — and then
// rebuilds each shard from its last checkpoint plus its retained log. The
// rebuilt store must equal the live one: a site that applied without
// logging first would leave the live store holding something the log
// cannot reproduce.
func TestWriteAheadAtEverySite(t *testing.T) {
	const shards = 2
	s, clk, _, _ := clusteredPrimary(t, shards, nil)
	m := s.clusterMap()
	var owned []uint64
	for k := uint64(1); len(owned) < 60; k++ {
		if m.OwnerOf(cluster.SlotFor(k, m.Slots)) == "self" {
			owned = append(owned, k)
		}
	}
	do := func(op byte, key, value uint64) {
		t.Helper()
		req := &request{op: op, key: key, value: value, start: clk.Now(), resp: make(chan Reply, 1)}
		s.shards[ShardFor(key, shards)].submit(req)
		if rep := <-req.resp; rep.Status != StatusOK {
			t.Fatalf("op %d key %d: status %d", op, key, rep.Status)
		}
	}
	for _, k := range owned[:20] {
		do(OpPut, k, k)
	}
	if err := s.Checkpoint(); err != nil { // truncates the logs: the base of the rebuild
		t.Fatal(err)
	}
	base := make([]map[uint64]uint64, shards)
	for i, sh := range s.shards {
		base[i] = scanShard(sh)
		if got := sh.cfg.oplog.Len(); got != 0 {
			t.Fatalf("shard %d: %d records retained past a checkpoint with no replica", i, got)
		}
	}

	for _, k := range owned[10:40] {
		do(OpPut, k, k+1000)
	}
	for _, k := range owned[:5] {
		do(OpDelete, k, 0)
	}
	var migrated []repl.Record
	for _, k := range owned[40:] {
		migrated = append(migrated, repl.Record{Op: repl.RecPut, Key: k, Value: k + 2000})
	}
	migrated = append(migrated, repl.Record{Op: repl.RecDelete, Key: owned[12]})
	s.ingestRecords(migrated)
	purgedSlot := cluster.SlotFor(owned[30], m.Slots)
	s.purgeSlot(purgedSlot, m.Slots)

	var puts, purged uint64
	for i, sh := range s.shards {
		rebuilt := base[i]
		for _, rec := range sh.cfg.oplog.Since(0, 0) {
			switch rec.Op {
			case repl.RecPut:
				rebuilt[rec.Key] = rec.Value
			case repl.RecDelete:
				delete(rebuilt, rec.Key)
			}
		}
		if live := scanShard(sh); !reflect.DeepEqual(rebuilt, live) {
			t.Errorf("shard %d: checkpoint + log rebuilds %d keys, the live store holds %d:\n rebuilt %v\n live    %v",
				i, len(rebuilt), len(live), rebuilt, live)
		}
		if applied, last := sh.applied.Load(), sh.cfg.oplog.LastSeq(); applied != last {
			t.Errorf("shard %d: applied %d, log at %d", i, applied, last)
		}
		puts += sh.puts.Load()
		purged += sh.purged.Load()
	}
	if want := uint64(20 + 30 + len(owned[40:])); puts != want || purged == 0 {
		t.Errorf("puts counted %d (want %d), purged %d (want some): a site stopped counting", puts, want, purged)
	}
	for _, k := range owned {
		if cluster.SlotFor(k, m.Slots) == purgedSlot {
			if _, found := scanShard(s.shards[ShardFor(k, shards)])[k]; found {
				t.Errorf("key %d of purged slot %d is still stored", k, purgedSlot)
			}
		}
	}
}

// TestCallGivesUpOnClosedStop: a call whose stop is already closed queues
// nothing — checked against a held worker, under which a queued request
// would stay visible — and says so.
func TestCallGivesUpOnClosedStop(t *testing.T) {
	ts := startServer(t, Config{Shards: 1})
	sh := ts.shards[0]
	holdWorker(t, sh) // released by its cleanup
	stop := make(chan struct{})
	close(stop)
	for i := 0; i < 100; i++ { // a select that chose at random would send about half of these
		if _, ok := sh.call(stop, (*shard).barrier); ok {
			t.Fatal("call reported a reply with its stop closed")
		}
	}
	if n := len(sh.queue); n != 0 {
		t.Fatalf("%d requests queued by calls that had been told to stop", n)
	}
}
