package server

import (
	"net"
	"sync"
	"testing"

	"nvref/internal/fault"
	"nvref/internal/obs"
	"nvref/internal/pmem"
	"nvref/internal/rt"
	"nvref/internal/ycsb"
)

// testPoolSize keeps checkpoints (whole-pool snapshots) cheap in tests.
const testPoolSize = 1 << 20

// testServer wraps a Server so cleanup tolerates tests that already closed
// or aborted it themselves (shard queues may be closed only once).
type testServer struct {
	*Server
	addr string
	done bool
}

func (ts *testServer) close() {
	if !ts.done {
		ts.done = true
		ts.Server.Close()
	}
}

func (ts *testServer) abort() {
	if !ts.done {
		ts.done = true
		ts.Server.Abort()
	}
}

func startServer(t *testing.T, cfg Config) *testServer {
	t.Helper()
	if cfg.PoolSize == 0 {
		cfg.PoolSize = testPoolSize
	}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ts := &testServer{Server: srv, addr: addr.String()}
	t.Cleanup(ts.close)
	return ts
}

func dial(t *testing.T, ts *testServer) *Client {
	t.Helper()
	cl, err := Dial(ts.addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	return cl
}

// keyVal is the deterministic value every test stores under a key, so
// recovery checks can recompute expectations.
func keyVal(k uint64) uint64 { return k*2654435761 + 1 }

func TestCRUD(t *testing.T) {
	ts := startServer(t, Config{Shards: 4})
	cl := dial(t, ts)

	const n = 200
	for k := uint64(0); k < n; k++ {
		if err := cl.Put(k, keyVal(k)); err != nil {
			t.Fatalf("put %d: %v", k, err)
		}
	}
	for k := uint64(0); k < n; k++ {
		v, ok, err := cl.Get(k)
		if err != nil || !ok || v != keyVal(k) {
			t.Fatalf("get %d: v=%d ok=%v err=%v", k, v, ok, err)
		}
	}
	if _, ok, err := cl.Get(n + 1); err != nil || ok {
		t.Fatalf("get miss: ok=%v err=%v", ok, err)
	}

	// Overwrite.
	if err := cl.Put(0, 999); err != nil {
		t.Fatal(err)
	}
	if v, _, _ := cl.Get(0); v != 999 {
		t.Fatalf("overwrite: got %d", v)
	}

	// Delete half the keys; they must vanish, the rest must stay.
	for k := uint64(0); k < n; k += 2 {
		found, err := cl.Delete(k)
		if err != nil || !found {
			t.Fatalf("delete %d: found=%v err=%v", k, found, err)
		}
	}
	if found, err := cl.Delete(0); err != nil || found {
		t.Fatalf("re-delete: found=%v err=%v", found, err)
	}
	for k := uint64(0); k < n; k++ {
		_, ok, err := cl.Get(k)
		if err != nil {
			t.Fatal(err)
		}
		if want := k%2 == 1; ok != want {
			t.Fatalf("after delete, key %d: ok=%v want %v", k, ok, want)
		}
	}
}

func TestScanMergesShards(t *testing.T) {
	ts := startServer(t, Config{Shards: 4})
	cl := dial(t, ts)

	const n = 100
	for k := uint64(0); k < n; k++ {
		if err := cl.Put(k, keyVal(k)); err != nil {
			t.Fatal(err)
		}
	}
	// Keys are hash-sharded, so an ordered range crosses every shard; the
	// server must merge the partial results back into global key order.
	pairs, err := cl.Scan(10, 20)
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) != 20 {
		t.Fatalf("scan returned %d pairs, want 20", len(pairs))
	}
	for i, kv := range pairs {
		want := uint64(10 + i)
		if kv.Key != want || kv.Value != keyVal(want) {
			t.Fatalf("pair %d: got (%d,%d), want (%d,%d)", i, kv.Key, kv.Value, want, keyVal(want))
		}
	}
	// Range past the end.
	pairs, err = cl.Scan(n-5, 50)
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) != 5 {
		t.Fatalf("tail scan returned %d pairs, want 5", len(pairs))
	}
}

func TestBatchPreservesOrder(t *testing.T) {
	ts := startServer(t, Config{Shards: 4})
	cl := dial(t, ts)

	// One batch mixing PUTs and GETs whose sub-requests scatter across
	// shards; replies must come back in request order.
	var sub []Request
	const n = 64
	for k := uint64(0); k < n; k++ {
		sub = append(sub, Request{Op: OpPut, Key: k, Value: keyVal(k)})
	}
	reps, err := cl.Batch(sub)
	if err != nil {
		t.Fatal(err)
	}
	if len(reps) != n {
		t.Fatalf("got %d replies, want %d", len(reps), n)
	}

	sub = sub[:0]
	for k := uint64(0); k < n; k++ {
		sub = append(sub, Request{Op: OpGet, Key: k})
	}
	sub = append(sub, Request{Op: OpScan, Key: 0, Limit: 3})
	reps, err = cl.Batch(sub)
	if err != nil {
		t.Fatal(err)
	}
	for k := uint64(0); k < n; k++ {
		rep := reps[k]
		if rep.Status != StatusOK || !rep.Found || rep.Value != keyVal(k) {
			t.Fatalf("reply %d out of order or wrong: %+v", k, rep)
		}
	}
	if got := reps[n]; len(got.Pairs) != 3 || got.Pairs[0].Key != 0 {
		t.Fatalf("scan inside batch: %+v", got)
	}
}

func TestPipelining(t *testing.T) {
	ts := startServer(t, Config{Shards: 2})
	cl := dial(t, ts)

	p := cl.Pipeline()
	const n = 128
	for k := uint64(0); k < n; k++ {
		p.Put(k, keyVal(k))
	}
	reps, err := p.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(reps) != n {
		t.Fatalf("got %d replies, want %d", len(reps), n)
	}

	for k := uint64(0); k < n; k++ {
		p.Get(k)
	}
	p.Delete(0)
	reps, err = p.Run()
	if err != nil {
		t.Fatal(err)
	}
	for k := uint64(0); k < n; k++ {
		if !reps[k].Found || reps[k].Value != keyVal(k) {
			t.Fatalf("pipelined reply %d: %+v", k, reps[k])
		}
	}
	if !reps[n].Found {
		t.Fatalf("pipelined delete: %+v", reps[n])
	}
}

func TestStatsAndMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	ts := startServer(t, Config{Shards: 4, Reg: reg})
	cl := dial(t, ts)

	const n = 100
	for k := uint64(0); k < n; k++ {
		if err := cl.Put(k, keyVal(k)); err != nil {
			t.Fatal(err)
		}
	}
	for k := uint64(0); k < n; k++ {
		if _, _, err := cl.Get(k); err != nil {
			t.Fatal(err)
		}
	}

	st, err := cl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Shards != 4 || len(st.PerShard) != 4 {
		t.Fatalf("stats shards: %+v", st)
	}
	if st.Connections < 1 {
		t.Errorf("connections = %d, want >= 1", st.Connections)
	}
	var ops, gets, puts, keys, cycles uint64
	for _, sh := range st.PerShard {
		ops += sh.Ops
		gets += sh.Gets
		puts += sh.Puts
		keys += sh.Keys
		cycles += sh.Cycles
		if sh.Ops == 0 {
			t.Errorf("shard %d executed no ops; keys should spread", sh.ID)
		}
	}
	if ops != 2*n || gets != n || puts != n || keys != n {
		t.Errorf("ops=%d gets=%d puts=%d keys=%d; want %d/%d/%d/%d", ops, gets, puts, keys, 2*n, n, n, n)
	}
	if cycles == 0 {
		t.Error("no simulated cycles recorded")
	}

	// The same numbers must be visible through the obs registry, and the
	// latency histograms must have observed every data op.
	snap := reg.Snapshot()
	if got := snap.Value("server_requests_total"); got < int64(2*n) {
		t.Errorf("server_requests_total = %d, want >= %d", got, 2*n)
	}
	if got := snap.Value("server_shards"); got != 4 {
		t.Errorf("server_shards = %d", got)
	}
	var snapOps, latCount int64
	for i := 0; i < 4; i++ {
		snapOps += snap.Value(obsName(i, "ops_total"))
		ser, ok := snap.Find(obsName(i, "latency_us"))
		if !ok {
			t.Fatalf("latency histogram for shard %d missing", i)
		}
		latCount += ser.Value
		if _, ok := snap.Find(obsName(i, "queue_depth")); !ok {
			t.Errorf("queue depth gauge for shard %d missing", i)
		}
	}
	if snapOps != int64(ops) {
		t.Errorf("metrics ops %d != stats ops %d", snapOps, ops)
	}
	if latCount != int64(ops) {
		t.Errorf("latency histogram count %d != ops %d", latCount, ops)
	}
}

// The checkpoint cadence counts mutations, not requests: reads never bring a
// checkpoint closer. Every checkpoint — periodic or explicit — is observed
// in checkpoint_us, and its write set reaches checkpoint_dirty_pages_total.
func TestCheckpointCadenceCountsMutations(t *testing.T) {
	reg := obs.NewRegistry()
	ts := startServer(t, Config{Shards: 1, CheckpointEvery: 16, Reg: reg})
	cl := dial(t, ts)
	checkpoints := func() uint64 { return ts.CollectStats().PerShard[0].Checkpoints }

	for k := uint64(0); k < 15; k++ {
		if err := cl.Put(k, keyVal(k)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 200; i++ {
		if _, _, err := cl.Get(uint64(i % 15)); err != nil {
			t.Fatal(err)
		}
	}
	if n := checkpoints(); n != 0 {
		t.Fatalf("15 mutations and 200 reads made %d checkpoints, want 0", n)
	}
	if _, err := cl.Delete(3); err != nil { // the 16th mutation
		t.Fatal(err)
	}
	if err := cl.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if n := checkpoints(); n != 2 {
		t.Fatalf("checkpoints = %d, want 2 (one periodic, one explicit)", n)
	}
	// The worker publishes after the drain that replied; a barrier, run in
	// a later drain, returns only once that publish is done.
	ts.shards[0].call(nil, (*shard).barrier)
	snap := reg.Snapshot()
	if h, ok := snap.Find("checkpoint_us"); !ok || h.Value != 2 {
		t.Fatalf("checkpoint_us = %+v (found %v), want 2 observations", h, ok)
	}
	// The first checkpoint checksums every page of the fresh pool; the
	// second, with no mutation in between, next to none.
	pages := int64(testPoolSize / 4096)
	if got := snap.Value("checkpoint_dirty_pages_total"); got < pages || got > pages+8 {
		t.Fatalf("checkpoint_dirty_pages_total = %d, want a full pool (%d) plus a few pages", got, pages)
	}
}

func obsName(shard int, suffix string) string {
	return "server_shard" + string(rune('0'+shard)) + "_" + suffix
}

func TestBadFrameDropsConnection(t *testing.T) {
	ts := startServer(t, Config{Shards: 1})
	conn, err := net.Dial("tcp", ts.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := WriteFrame(conn, []byte{99}); err != nil {
		t.Fatal(err)
	}
	body, err := ReadFrame(conn)
	if err != nil {
		t.Fatalf("want a BadRequest reply before the drop: %v", err)
	}
	if len(body) == 0 || body[0] != StatusBadRequest {
		t.Fatalf("reply status = %v, want BadRequest", body)
	}
	// The connection must now be closed by the server.
	if _, err := ReadFrame(conn); err == nil {
		t.Fatal("connection still open after protocol error")
	}
}

func TestGracefulShutdownPersists(t *testing.T) {
	stores := sharedStores(4)
	cfg := Config{Shards: 4, StoreFor: stores, CheckpointEvery: -1}

	ts := startServer(t, cfg)
	cl := dial(t, ts)
	const n = 300
	for k := uint64(0); k < n; k++ {
		if err := cl.Put(k, keyVal(k)); err != nil {
			t.Fatal(err)
		}
	}
	// Graceful Close drains and checkpoints every shard even though no
	// explicit barrier was ever requested.
	cl.Close()
	ts.close()

	ts2 := startServer(t, cfg)
	cl2 := dial(t, ts2)
	for k := uint64(0); k < n; k++ {
		v, ok, err := cl2.Get(k)
		if err != nil || !ok || v != keyVal(k) {
			t.Fatalf("after restart, get %d: v=%d ok=%v err=%v", k, v, ok, err)
		}
	}
	var keys, fsckErrs uint64
	for _, sh := range ts2.CollectStats().PerShard {
		keys += sh.Keys
		fsckErrs += sh.FsckErrors
	}
	if keys != n {
		t.Errorf("recovered %d keys, want %d", keys, n)
	}
	if fsckErrs != 0 {
		t.Errorf("fsck errors on clean restart: %d", fsckErrs)
	}
}

// TestAbortRollsBackToCheckpoint: an abort (a kill -9: no final
// checkpoint) rolls a standalone server back to its last checkpoint, with a
// writer still in flight when the plug is pulled. Every checkpointed key
// survives with its value, nothing written after the checkpoint does —
// acknowledged or in flight — and the reopened pools fsck clean.
func TestAbortRollsBackToCheckpoint(t *testing.T) {
	stores := sharedStores(4)
	cfg := Config{Shards: 4, StoreFor: stores, CheckpointEvery: -1}

	ts := startServer(t, cfg)
	cl := dial(t, ts)
	const durable = 200
	for k := uint64(0); k < durable; k++ {
		if err := cl.Put(k, keyVal(k)); err != nil {
			t.Fatal(err)
		}
	}
	if err := cl.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// Acknowledged but never checkpointed: rolled back by the abort.
	for k := uint64(durable); k < 2*durable; k++ {
		if err := cl.Put(k, keyVal(k)); err != nil {
			t.Fatal(err)
		}
	}
	cl.Close()
	// A writer on its own connection, still putting fresh keys when the
	// abort lands; it stops at the first error.
	wcl := dial(t, ts)
	acked := make(chan uint64, 1)
	var started sync.WaitGroup
	started.Add(1)
	go func() {
		k := uint64(2 * durable)
		for ; ; k++ {
			if k == 2*durable+16 {
				started.Done()
			}
			if err := wcl.Put(k, keyVal(k)); err != nil {
				break
			}
		}
		acked <- k - 2*durable
	}()
	started.Wait()
	ts.abort()
	inFlight := <-acked

	ts2 := startServer(t, cfg)
	cl2 := dial(t, ts2)
	for k := uint64(0); k < durable; k++ {
		v, ok, err := cl2.Get(k)
		if err != nil || !ok || v != keyVal(k) {
			t.Fatalf("checkpointed key %d lost: v=%d ok=%v err=%v", k, v, ok, err)
		}
	}
	for k := uint64(durable); k < 2*durable+inFlight+1; k++ {
		if _, ok, err := cl2.Get(k); err != nil {
			t.Fatal(err)
		} else if ok {
			t.Fatalf("uncheckpointed key %d survived the abort (%d acked by the in-flight writer)", k, inFlight)
		}
	}
	for _, sh := range ts2.CollectStats().PerShard {
		if sh.FsckErrors != 0 {
			t.Errorf("shard %d: %d fsck errors after abort recovery", sh.ID, sh.FsckErrors)
		}
	}
}

// TestShardScalingInSimulatedTime: each shard runs its own simulated core,
// so sharding divides the makespan — the most simulated cycles any one
// shard spent — of one fixed YCSB-A stream. At 4 shards the stream must
// run more than 1.5x faster in simulated time than at 1. Simulated cycles
// do not depend on the host, so neither does the gate.
func TestShardScalingInSimulatedTime(t *testing.T) {
	w := ycsb.Generate(ycsb.WorkloadA(1000, 4000, 7))
	makespan := func(shards int) uint64 {
		ts := startServer(t, Config{Shards: shards, Mode: rt.HW, CheckpointEvery: -1})
		defer ts.close()
		cl := dial(t, ts)
		var v uint64
		for _, rec := range w.Load {
			v++
			if err := cl.Put(rec.Key, v); err != nil {
				t.Fatal(err)
			}
		}
		before := ts.ShardCycles()
		for _, op := range w.Ops {
			var err error
			if op.Type == ycsb.Get {
				_, _, err = cl.Get(op.Key)
			} else {
				v++
				err = cl.Put(op.Key, v)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		var most uint64
		for i, c := range ts.ShardCycles() {
			most = max(most, c-before[i])
		}
		return most
	}
	one, four := makespan(1), makespan(4)
	if one == 0 || four == 0 {
		t.Fatalf("makespans %d and %d cycles: the shards ran nothing", one, four)
	}
	if speedup := float64(one) / float64(four); speedup <= 1.5 {
		t.Fatalf("4 shards ran the stream in %d simulated cycles, 1 shard in %d: speedup %.2fx, want > 1.5x", four, one, speedup)
	}
}

// sharedStores returns a StoreFor closure over one fixed set of MemStores,
// so successive servers see the same "disk".
func sharedStores(n int) func(int) pmem.Store {
	stores := make([]pmem.Store, n)
	for i := range stores {
		stores[i] = pmem.NewMemStore()
	}
	return func(i int) pmem.Store { return stores[i] }
}

func TestInjectCrashRecoversShard(t *testing.T) {
	ts := startServer(t, Config{Shards: 4, CheckpointEvery: -1})
	cl := dial(t, ts)

	const n = 100
	for k := uint64(0); k < n; k++ {
		if err := cl.Put(k, keyVal(k)); err != nil {
			t.Fatal(err)
		}
	}
	if err := cl.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// One uncheckpointed key destined for shard 0.
	var extra uint64
	for extra = n; ShardFor(extra, 4) != 0; extra++ {
	}
	if err := cl.Put(extra, 1); err != nil {
		t.Fatal(err)
	}

	if err := ts.InjectCrash(0); err != nil {
		t.Fatal(err)
	}
	if err := ts.InjectCrash(99); err == nil {
		t.Error("crash of nonexistent shard succeeded")
	}

	// Checkpointed keys survive; the uncheckpointed one rolled back.
	for k := uint64(0); k < n; k++ {
		v, ok, err := cl.Get(k)
		if err != nil || !ok || v != keyVal(k) {
			t.Fatalf("after crash, get %d: v=%d ok=%v err=%v", k, v, ok, err)
		}
	}
	if _, ok, _ := cl.Get(extra); ok {
		t.Error("uncheckpointed key survived the shard crash")
	}
	st := ts.CollectStats()
	if st.PerShard[0].Crashes != 1 || st.PerShard[0].Recoveries != 1 {
		t.Errorf("shard 0 crash counters: %+v", st.PerShard[0])
	}
	for _, sh := range st.PerShard[1:] {
		if sh.Crashes != 0 {
			t.Errorf("shard %d crashed collaterally", sh.ID)
		}
	}
}

func TestScheduledCrashPoint(t *testing.T) {
	// Arm a fault trigger on shard 0's fifth operation; the worker must
	// crash there, recover, and keep serving.
	trig := fault.NewTrigger(CrashPointOp, 5)
	ts := startServer(t, Config{
		Shards: 2,
		SchedFor: func(i int) fault.Scheduler {
			if i == 0 {
				return trig
			}
			return nil
		},
	})
	cl := dial(t, ts)
	for k := uint64(0); k < 200; k++ {
		if err := cl.Put(k, keyVal(k)); err != nil {
			t.Fatal(err)
		}
	}
	if !trig.Fired() {
		t.Fatal("trigger never fired")
	}
	st := ts.CollectStats()
	if st.PerShard[0].Crashes != 1 || st.PerShard[0].Recoveries != 1 {
		t.Errorf("shard 0: %+v", st.PerShard[0])
	}
	if st.PerShard[1].Crashes != 0 {
		t.Errorf("shard 1 crashed: %+v", st.PerShard[1])
	}
	// The service stayed up throughout.
	if _, _, err := cl.Get(0); err != nil {
		t.Fatal(err)
	}
}

func TestServeAfterClose(t *testing.T) {
	ts := startServer(t, Config{Shards: 1})
	ts.close()
	if err := ts.ListenAndServe("127.0.0.1:0"); err == nil {
		t.Fatal("serving after close succeeded")
	}
}
