package main

// Isolated layer timings: each layer's public functions called directly at
// a fixed iteration count, the reported figure being the median of
// layerReps repetitions. They depend on no workload, so every traced leg
// reports the same set.

import (
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"time"

	"nvref/internal/kvstore"
	"nvref/internal/parity"
	"nvref/internal/pmem"
	"nvref/internal/repl"
	"nvref/internal/rt"
	"nvref/internal/server"
	"nvref/internal/structures"
	"nvref/internal/txn"
	"nvref/internal/ycsb"
)

const layerReps = 5

// sink keeps the compiler from discarding a measured call's result.
var sink any

// timeReps runs fn (iters operations per call) layerReps times, with prep
// — when non-nil — run untimed before each, and returns the median time
// per operation in nanoseconds.
func timeReps(iters int, prep func() error, fn func() error) (float64, error) {
	per := make([]float64, 0, layerReps)
	for r := 0; r < layerReps; r++ {
		if prep != nil {
			if err := prep(); err != nil {
				return 0, err
			}
		}
		t0 := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		per = append(per, float64(time.Since(t0).Nanoseconds())/float64(iters))
	}
	return median(per), nil
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

func isolatedLayers(ms *metricSet, o runOpts) error {
	dir, err := os.MkdirTemp(o.tmpRoot, "layers-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	scale := 1
	if o.quick {
		scale = 16
	}
	steps := []struct {
		layer string
		run   func() error
	}{
		{"server.proto", func() error { return protoLayer(ms, 20000/scale) }},
		{"kvstore", func() error { return kvstoreLayer(ms, o.p, o.seed, 20000/scale) }},
		{"txn", func() error { return txnLayer(ms, 20000/scale) }},
		{"pmem+parity", func() error { return checkpointLayer(ms, o.p, dir) }},
		{"parity", func() error { return parityLayer(ms, o.p, o.seed) }},
		{"repl.log", func() error { return replLogLayer(ms, dir, 8192/scale) }},
	}
	for _, s := range steps {
		if err := s.run(); err != nil {
			return fmt.Errorf("isolated %s: %w", s.layer, err)
		}
	}
	return nil
}

// protoLayer times the wire codec's four halves for PUT and GET, a 64-op
// BATCH round trip, and the allocations of one PUT round trip.
func protoLayer(ms *metricSet, iters int) error {
	shapes := []struct {
		name string
		req  server.Request
		rep  server.Reply
	}{
		{"put", server.Request{Op: server.OpPut, Key: 0x1234567, Value: 0x89abcdef},
			server.Reply{Status: server.StatusOK, Shard: 1, Seq: 77}},
		{"get", server.Request{Op: server.OpGet, Key: 0x1234567},
			server.Reply{Status: server.StatusOK, Found: true, Value: 0x89abcdef}},
	}
	roundTrip := func(req *server.Request, rep *server.Reply, buf []byte) ([]byte, error) {
		body, err := server.AppendRequest(buf[:0], req)
		if err != nil {
			return buf, err
		}
		dreq, err := server.DecodeRequest(body)
		if err != nil {
			return buf, err
		}
		if dreq.Op == server.OpBatch {
			body = server.AppendBatchReply(body[:0], dreq, rep)
		} else {
			body = server.AppendReply(body[:0], dreq.Op, rep)
		}
		drep, err := server.DecodeReply(req, body)
		sink = drep
		return body, err
	}
	buf := make([]byte, 0, 4096)
	for i := range shapes {
		sh := &shapes[i]
		reqBody, err := server.AppendRequest(nil, &sh.req)
		if err != nil {
			return err
		}
		repBody := server.AppendReply(nil, sh.req.Op, &sh.rep)
		halves := []struct {
			metric string
			call   func() error
		}{
			{"req_encode_ns", func() error { b, err := server.AppendRequest(buf[:0], &sh.req); sink = b; return err }},
			{"req_decode_ns", func() error { r, err := server.DecodeRequest(reqBody); sink = r; return err }},
			{"reply_encode_ns", func() error { sink = server.AppendReply(buf[:0], sh.req.Op, &sh.rep); return nil }},
			{"reply_decode_ns", func() error { r, err := server.DecodeReply(&sh.req, repBody); sink = r; return err }},
		}
		for _, h := range halves {
			ns, err := timeReps(iters, nil, func() error {
				for i := 0; i < iters; i++ {
					if err := h.call(); err != nil {
						return err
					}
				}
				return nil
			})
			if err != nil {
				return err
			}
			ms.setN("server.proto."+h.metric+"."+sh.name, ns, layerReps)
		}
	}

	batch := server.Request{Op: server.OpBatch}
	batchRep := server.Reply{Status: server.StatusOK}
	for i := 0; i < 64; i++ {
		sh := shapes[i%2]
		sh.req.Key += uint64(i)
		batch.Sub = append(batch.Sub, sh.req)
		batchRep.Sub = append(batchRep.Sub, sh.rep)
	}
	n := iters / 16
	ns, err := timeReps(n, nil, func() error {
		for i := 0; i < n; i++ {
			var err error
			if buf, err = roundTrip(&batch, &batchRep, buf); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	ms.setN("server.proto.batch64_roundtrip_ns", ns, layerReps)

	before := mallocs()
	for i := 0; i < iters; i++ {
		var err error
		if buf, err = roundTrip(&shapes[0].req, &shapes[0].rep, buf); err != nil {
			return err
		}
	}
	ms.setN("server.proto.allocs_per_roundtrip", float64(mallocs()-before)/float64(iters), iters)
	return nil
}

// kvstoreLayer times the shard's exact engine — an RB index under the HW
// model in a pinned-size pool holding the pinned record count — on both
// clocks.
func kvstoreLayer(ms *metricSet, p pinned, seed int64, iters int) error {
	ctx, err := rt.New(rt.Config{Mode: rt.HW, PoolSize: p.PoolSize})
	if err != nil {
		return err
	}
	st := kvstore.New(ctx, func(c *rt.Context) structures.Index { return structures.NewRB(c) })
	defer st.Close()
	for k := 0; k < p.Records; k++ {
		st.Set(uint64(k), uint64(k)+1)
	}
	rng := rand.New(rand.NewSource(seed))
	zipf := ycsb.NewZipfian(uint64(p.Records), p.ZipfTheta, rng)
	keys := make([]uint64, iters)
	for i := range keys {
		keys[i] = zipf.Next()
	}
	both := func(name string, n int, op func(i int)) error {
		var cycles []float64
		ns, err := timeReps(n, nil, func() error {
			c0 := ctx.CPU.Stats.Cycles
			for i := 0; i < n; i++ {
				op(i)
			}
			cycles = append(cycles, float64(ctx.CPU.Stats.Cycles-c0)/float64(n))
			return nil
		})
		ms.setN("kvstore."+name+"_ns", ns, layerReps)
		if name != "scan50" {
			ms.setN("kvstore."+name+"_sim_cycles", median(cycles), layerReps)
		}
		return err
	}
	var acc uint64
	if err := both("get", iters, func(i int) { v, _ := st.Get(keys[i]); acc += v }); err != nil {
		return err
	}
	if err := both("set", iters, func(i int) { st.Set(keys[i], uint64(i)) }); err != nil {
		return err
	}
	if err := both("scan50", iters/10, func(i int) { _, s := st.Scan(keys[i], 50); acc += s }); err != nil {
		return err
	}
	before := mallocs()
	for i := 0; i < iters; i++ {
		v, _ := st.Get(keys[i])
		st.Set(keys[i], v+1)
	}
	ms.setN("kvstore.allocs_per_op", float64(mallocs()-before)/float64(2*iters), 2*iters)
	sink = acc
	return nil
}

// txnLayer times a 4-word undo-logged transaction. txn sits on no serving
// path today; the figure is the "before" for a later flush-elision change.
func txnLayer(ms *metricSet, iters int) error {
	ctx, err := rt.New(rt.Config{Mode: rt.HW, PoolSize: 4 << 20})
	if err != nil {
		return err
	}
	m, _, err := txn.Install(ctx.Pool, ctx.AS, 64)
	if err != nil {
		return err
	}
	off, err := ctx.Pool.Alloc(4 * 8)
	if err != nil {
		return err
	}
	ns, err := timeReps(iters, nil, func() error {
		for i := 0; i < iters; i++ {
			if err := m.Begin(); err != nil {
				return err
			}
			for w := uint64(0); w < 4; w++ {
				if err := m.WriteWord(off+8*w, uint64(i)); err != nil {
					return err
				}
			}
			if err := m.Commit(); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	ms.setN("txn.commit_ns", ns, layerReps)
	ms.setN("txn.log_bytes_per_commit", float64(m.Stats.LogBytes())/float64(m.Stats.Commits), int(m.Stats.Commits))
	return nil
}

// checkpointer is one pinned-size pool whose checkpoints are timed in
// steady state: the first, untimed checkpoint is taken at construction
// (with parity on, that is the full sidecar build), and 64 pages are
// dirtied before each timed one.
type checkpointer struct {
	ctx *rt.Context
	off uint64
	gen uint64
	ms  []float64
}

const checkpointRegion = 1 << 20

func newCheckpointer(p pinned, store pmem.Store, pol parity.Policy) (*checkpointer, error) {
	ctx, err := rt.New(rt.Config{Mode: rt.HW, PoolSize: p.PoolSize, Store: store, Parity: pol})
	if err != nil {
		return nil, err
	}
	off, err := ctx.Pool.Alloc(checkpointRegion)
	if err != nil {
		return nil, err
	}
	return &checkpointer{ctx: ctx, off: off}, ctx.Persist()
}

func (c *checkpointer) timeOne() error {
	c.gen++
	for pg := uint64(0); pg < 64; pg++ {
		if err := c.ctx.AS.Store64(c.ctx.Pool.Base()+c.off+pg*(checkpointRegion/64), c.gen); err != nil {
			return err
		}
	}
	t0 := time.Now()
	if err := c.ctx.Persist(); err != nil {
		return err
	}
	c.ms = append(c.ms, float64(time.Since(t0).Nanoseconds())/1e6)
	return nil
}

// checkpointLayer times rt.Context.Persist onto a MemStore, a DirStore, and
// a DirStore with parity on. The three take turns, so a slow spell of the
// disk falls on all of them and not on one side of the parity tax.
func checkpointLayer(ms *metricSet, p pinned, dir string) error {
	plainStore, err := pmem.NewDirStore(dir + "/ckpt-plain")
	if err != nil {
		return err
	}
	parityStore, err := pmem.NewDirStore(dir + "/ckpt-parity")
	if err != nil {
		return err
	}
	var cks [3]*checkpointer
	for i, c := range []struct {
		store pmem.Store
		pol   parity.Policy
	}{{pmem.NewMemStore(), parity.Policy{}}, {plainStore, parity.Policy{}}, {parityStore, parity.Default()}} {
		if cks[i], err = newCheckpointer(p, c.store, c.pol); err != nil {
			return err
		}
	}
	for r := 0; r < layerReps; r++ {
		for _, c := range cks {
			if err := c.timeOne(); err != nil {
				return err
			}
		}
	}
	plain := median(cks[1].ms)
	ms.setN("pmem.checkpoint_ms.memstore", median(cks[0].ms), layerReps)
	ms.setN("pmem.checkpoint_ms.dirstore", plain, layerReps)
	ms.setN("parity.checkpoint_tax_frac", median(cks[2].ms)/plain-1, layerReps)
	return nil
}

// parityLayer times a full sidecar build over a pinned-size image and the
// incremental update after 64 pages changed.
func parityLayer(ms *metricSet, p pinned, seed int64) error {
	img := make([]byte, p.PoolSize)
	rand.New(rand.NewSource(seed)).Read(img)
	pol := parity.Default()
	var side *parity.Sidecar
	ns, err := timeReps(1, nil, func() error { side = parity.Build(img, pol); return nil })
	if err != nil {
		return err
	}
	ms.setN("parity.build_mb_per_s", float64(len(img))/(1<<20)/(ns/1e9), layerReps)

	const dirty = 64
	next := append([]byte(nil), img...)
	stride := len(img) / dirty
	ns, err = timeReps(dirty, func() error {
		img, next = next, img
		copy(next, img)
		for i := 0; i < dirty; i++ {
			next[i*stride]++
		}
		return nil
	}, func() error {
		if st := side.Update(img, next); st.DirtyPages != dirty {
			return fmt.Errorf("update saw %d dirty pages, want %d", st.DirtyPages, dirty)
		}
		return nil
	})
	if err != nil {
		return err
	}
	ms.setN("parity.update_us_per_dirty_page", ns/1e3, layerReps)
	return nil
}

// replLogLayer times the op log on a DirStore: append, flush of 64 pending
// appends at two retained lengths (the flush rewrites the whole image, so
// its cost grows with the log), durable shipping, and the record codec.
func replLogLayer(ms *metricSet, dir string, long int) error {
	ds, err := pmem.NewDirStore(dir + "/oplog")
	if err != nil {
		return err
	}
	store := &meterStore{Store: ds}
	log, err := repl.OpenLog(store, "bench-oplog", -1)
	if err != nil {
		return err
	}
	// empty drops every retained record, so each repetition starts from
	// the same length.
	empty := func() error { return log.TruncateThrough(log.LastSeq()) }
	appendN := func(n int) {
		for i := 0; i < n; i++ {
			log.Append(server.OpPut, uint64(i), uint64(i))
		}
	}

	ns, err := timeReps(long, empty, func() error { appendN(long); return nil })
	if err != nil {
		return err
	}
	ms.setN("repl.log.append_ns", ns, layerReps)

	const pending = 64
	var flushBytes uint64
	for _, retained := range []int{pending, long} {
		ns, err := timeReps(1, func() error {
			if err := empty(); err != nil {
				return err
			}
			if retained > pending {
				appendN(retained - pending)
				if err := log.Flush(); err != nil {
					return err
				}
			}
			appendN(pending)
			flushBytes = store.saved.Load()
			return nil
		}, log.Flush)
		if err != nil {
			return err
		}
		flushBytes = store.saved.Load() - flushBytes
		name := "repl.log.flush_us.len64"
		if retained > pending {
			name = "repl.log.flush_us.len8192"
			ms.setN("repl.log.flush_bytes_per_record", float64(flushBytes)/pending, 1)
		}
		ms.setN(name, ns/1e3, layerReps)
	}

	const ship = 1024
	ns, err = timeReps(1, func() error {
		if err := empty(); err != nil {
			return err
		}
		appendN(ship)
		return nil
	}, func() error {
		recs := log.SinceDurable(0, ship)
		if len(recs) != ship {
			return fmt.Errorf("SinceDurable shipped %d records, want %d", len(recs), ship)
		}
		sink = recs
		return nil
	})
	if err != nil {
		return err
	}
	ms.setN("repl.log.since_durable_us.1024", ns/1e3, layerReps)

	recs := log.Since(0, ship)
	ns, err = timeReps(len(recs)*16, nil, func() error {
		for i := 0; i < 16; i++ {
			sink = repl.EncodeRecords(recs)
		}
		return nil
	})
	if err != nil {
		return err
	}
	ms.setN("repl.codec.encode_ns_per_record", ns, layerReps)
	return nil
}
