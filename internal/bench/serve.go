// The serve experiment drives the nvserved serving tier end to end: an
// in-process sharded server on a loopback listener, closed-loop clients
// replaying a YCSB-A mix, swept over shard counts. Because the host may
// give the simulator a single real core, scaling is judged in simulated
// time: each shard's engine is one simulated core, so the aggregate
// simulated throughput is ops / max-over-shards(cycles) — the makespan a
// real multi-core NVM machine would see. Wall-clock numbers are reported
// alongside for the serving-path overheads the simulation cannot see.
package bench

import (
	"fmt"
	"io"
	"time"

	"nvref/internal/obs"
	"nvref/internal/pmem"
	"nvref/internal/rt"
	"nvref/internal/server"
)

// ServeSpec parameterizes the serve experiment: the LoadSpec is run once
// per entry of ShardCounts (LoadSpec.Shards is set per point).
type ServeSpec struct {
	LoadSpec
	ShardCounts []int
}

// ServeSpecFor returns the standard serve experiment sizes.
func ServeSpecFor(quick bool) ServeSpec {
	s := ServeSpec{
		LoadSpec: LoadSpec{
			Records:         10000,
			Operations:      30000,
			Clients:         4,
			Mode:            rt.HW,
			PoolSize:        4 << 20,
			CheckpointEvery: 8192,
			Seed:            7,
		},
		ShardCounts: []int{1, 2, 4},
	}
	if quick {
		s.Records, s.Operations, s.Clients = 2000, 6000, 2
	}
	return s
}

// ServePoint is one (shards, clients) run of the closed-loop generator.
type ServePoint struct {
	Shards  int `json:"shards"`
	Clients int `json:"clients"`
	Ops     int `json:"ops"`
	Errors  int `json:"errors"`

	WallSeconds   float64 `json:"wall_seconds"`
	WallOpsPerSec float64 `json:"wall_ops_per_sec"`

	// MakespanCycles is the max over shards of simulated cycles consumed
	// during the measured phase; SimOpsPerMCycle is the aggregate
	// simulated throughput (operations per million cycles).
	MakespanCycles  uint64  `json:"makespan_cycles"`
	SimOpsPerMCycle float64 `json:"sim_ops_per_mcycle"`

	P50us float64 `json:"p50_us"`
	P95us float64 `json:"p95_us"`
	P99us float64 `json:"p99_us"`

	ShardOps []uint64 `json:"shard_ops"`

	// Metrics is the server obs registry snapshot at the end of the run:
	// per-shard queue depths, op counters, latency histograms, connection
	// counts.
	Metrics *obs.Snapshot `json:"metrics,omitempty"`
}

// ServeRecovery reports the kill/restart leg: the server is aborted (no
// final checkpoint) mid-load and a new server reopens the same per-shard
// stores through pmem.Open + Fsck.
type ServeRecovery struct {
	Shards             int    `json:"shards"`
	KeysCheckpointed   int    `json:"keys_checkpointed"`
	OpsAfterCheckpoint int    `json:"ops_after_checkpoint"`
	FsckErrors         uint64 `json:"fsck_errors"`
	FsckWarns          uint64 `json:"fsck_warns"`
	MissingKeys        int    `json:"missing_keys"`
	BadValues          int    `json:"bad_values"`
	Recovered          bool   `json:"recovered"`
}

// ServeResult is the full serve experiment document.
type ServeResult struct {
	Records    int           `json:"records"`
	Operations int           `json:"operations"`
	Clients    int           `json:"clients"`
	Mode       string        `json:"mode"`
	Points     []ServePoint  `json:"points"`
	SimSpeedup float64       `json:"sim_speedup_max_vs_1"`
	Recovery   ServeRecovery `json:"recovery"`
}

// Pass applies the experiment's acceptance gates: >1.5x aggregate
// simulated throughput at the largest shard count vs one shard, and a
// clean kill/restart recovery.
func (r *ServeResult) Pass() bool {
	return r.SimSpeedup > 1.5 && r.Recovery.Recovered
}

// RunServe executes the shard sweep and the kill/restart recovery leg.
func RunServe(spec ServeSpec) (*ServeResult, error) {
	res := &ServeResult{
		Records:    spec.Records,
		Operations: spec.Operations,
		Clients:    spec.Clients,
		Mode:       spec.Mode.String(),
	}
	for _, shards := range spec.ShardCounts {
		point := spec.LoadSpec
		point.Shards = shards
		pt, err := runServePoint(point)
		if err != nil {
			return nil, fmt.Errorf("serve: %d shards: %w", shards, err)
		}
		res.Points = append(res.Points, *pt)
	}
	if len(res.Points) > 1 {
		first, last := res.Points[0], res.Points[len(res.Points)-1]
		if first.SimOpsPerMCycle > 0 {
			res.SimSpeedup = last.SimOpsPerMCycle / first.SimOpsPerMCycle
		}
	}
	rec, err := runServeRecovery(spec)
	if err != nil {
		return nil, fmt.Errorf("serve: recovery: %w", err)
	}
	res.Recovery = *rec
	return res, nil
}

func runServePoint(spec LoadSpec) (*ServePoint, error) {
	reg := obs.NewRegistry()
	cfg := spec.config()
	cfg.Reg = reg
	srv, addr, err := startServer(cfg)
	if err != nil {
		return nil, err
	}
	defer srv.Close()

	h := newAcceptance(spec)
	loader, err := server.Dial(addr)
	if err != nil {
		return nil, err
	}
	if err := h.load(loader); err != nil {
		return nil, err
	}

	// Measured phase: closed-loop clients, each on its own connection.
	cycles0 := srv.ShardCycles()
	if err := h.drive(func(int) (kv, error) { return server.Dial(addr) }); err != nil {
		return nil, err
	}
	cycles1 := srv.ShardCycles()

	pt := &ServePoint{
		Shards:      spec.Shards,
		Clients:     spec.Clients,
		Ops:         len(h.w.Ops),
		Errors:      h.res.OpsFailed,
		WallSeconds: h.wall.Seconds(),
	}
	var makespan uint64
	for i := range cycles1 {
		if d := cycles1[i] - cycles0[i]; d > makespan {
			makespan = d
		}
	}
	pt.MakespanCycles = makespan
	if makespan > 0 {
		pt.SimOpsPerMCycle = float64(pt.Ops) / (float64(makespan) / 1e6)
	}
	if h.wall > 0 {
		pt.WallOpsPerSec = float64(pt.Ops) / h.wall.Seconds()
	}
	pt.P50us, pt.P95us, pt.P99us = percentile(h.lats, 50), percentile(h.lats, 95), percentile(h.lats, 99)
	for _, sh := range srv.CollectStats().PerShard {
		pt.ShardOps = append(pt.ShardOps, sh.Ops)
	}
	snap := reg.Snapshot()
	pt.Metrics = &snap
	return pt, nil
}

// runServeRecovery loads keys, checkpoints, keeps loading fresh keys, then
// aborts the server mid-load (the simulated kill -9) and restarts over the
// same stores, verifying fsck findings and every checkpointed key.
func runServeRecovery(spec ServeSpec) (*ServeRecovery, error) {
	shards := spec.ShardCounts[len(spec.ShardCounts)-1]
	stores := make([]pmem.Store, shards)
	for i := range stores {
		stores[i] = pmem.NewMemStore()
	}
	cfg := spec.config()
	cfg.Shards = shards
	cfg.StoreFor = func(i int) pmem.Store { return stores[i] }

	srv1, addr, err := startServer(cfg)
	if err != nil {
		return nil, err
	}
	cl, err := server.Dial(addr)
	if err != nil {
		return nil, err
	}

	// Phase 1: durable prefix. Key i holds i*2654435761+1, checkpointed.
	keys := spec.Records
	value := func(k uint64) uint64 { return k*2654435761 + 1 }
	for k := 0; k < keys; k++ {
		if err := cl.Put(uint64(k), value(uint64(k))); err != nil {
			return nil, err
		}
	}
	if err := cl.Checkpoint(); err != nil {
		return nil, err
	}

	// Phase 2: keep loading fresh keys (disjoint from the durable prefix)
	// until the plug is pulled. Some of these may have been made durable
	// by periodic checkpoints; none may damage the prefix.
	rec := &ServeRecovery{Shards: shards, KeysCheckpointed: keys}
	stop := make(chan struct{})
	loaderDone := make(chan int)
	go func() {
		n := 0
		cl2, err := server.Dial(addr)
		if err != nil {
			loaderDone <- 0
			return
		}
		defer cl2.Close()
		for k := keys; ; k++ {
			select {
			case <-stop:
				loaderDone <- n
				return
			default:
			}
			if err := cl2.Put(uint64(k), value(uint64(k))); err != nil {
				// The plug was pulled mid-request: expected.
				loaderDone <- n
				return
			}
			n++
		}
	}()
	time.Sleep(20 * time.Millisecond)
	srv1.Abort()
	close(stop)
	rec.OpsAfterCheckpoint = <-loaderDone
	cl.Close()

	// Restart over the same stores: every shard reopens its pool image
	// through pmem.Open and fscks it.
	srv2, addr2, err := startServer(cfg)
	if err != nil {
		return nil, err
	}
	defer srv2.Close()
	for _, sh := range srv2.CollectStats().PerShard {
		rec.FsckErrors += sh.FsckErrors
		rec.FsckWarns += sh.FsckWarns
	}
	cl3, err := server.Dial(addr2)
	if err != nil {
		return nil, err
	}
	defer cl3.Close()
	for k := 0; k < keys; k++ {
		v, ok, err := cl3.Get(uint64(k))
		if err != nil {
			return nil, err
		}
		if !ok {
			rec.MissingKeys++
		} else if v != value(uint64(k)) {
			rec.BadValues++
		}
	}
	rec.Recovered = rec.MissingKeys == 0 && rec.BadValues == 0 && rec.FsckErrors == 0
	return rec, nil
}

// WriteText renders the serve experiment as a table.
func (r *ServeResult) WriteText(w io.Writer) {
	fmt.Fprintf(w, "nvserved closed-loop: YCSB-A, %d records / %d ops, %d clients, %s mode\n",
		r.Records, r.Operations, r.Clients, r.Mode)
	fmt.Fprintf(w, "%-7s %-8s %-12s %-13s %-8s %-8s %-8s %s\n",
		"shards", "ops", "wall-ops/s", "sim-ops/Mcyc", "p50(us)", "p95(us)", "p99(us)", "errors")
	for _, p := range r.Points {
		fmt.Fprintf(w, "%-7d %-8d %-12.0f %-13.1f %-8.1f %-8.1f %-8.1f %d\n",
			p.Shards, p.Ops, p.WallOpsPerSec, p.SimOpsPerMCycle, p.P50us, p.P95us, p.P99us, p.Errors)
	}
	fmt.Fprintf(w, "aggregate simulated speedup (%d vs 1 shards): %.2fx  (gate: >1.50x)\n",
		r.Points[len(r.Points)-1].Shards, r.SimSpeedup)
	rec := r.Recovery
	fmt.Fprintf(w, "kill/restart: %d shards aborted mid-load after checkpointing %d keys (+%d uncheckpointed ops); restart fsck: %d errors, %d warnings; verified %d/%d keys (%d missing, %d bad) -> %s\n",
		rec.Shards, rec.KeysCheckpointed, rec.OpsAfterCheckpoint,
		rec.FsckErrors, rec.FsckWarns,
		rec.KeysCheckpointed-rec.MissingKeys-rec.BadValues, rec.KeysCheckpointed,
		rec.MissingKeys, rec.BadValues, verdict(rec.Recovered))
}
