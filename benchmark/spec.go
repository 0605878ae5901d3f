package main

// The pinned configuration — the benchmark's fingerprint — and the metric
// vocabulary. Everything a result depends on that is not the code under
// test lives here; change any field and the fingerprint changes, so results
// from different configurations are refused by -compare instead of being
// read as a regression.

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"time"

	"nvref/internal/rt"
	"nvref/internal/server"
)

// pinned is the topology and load every serve_* workload shares: nvserved's
// defaults except the shard count.
type pinned struct {
	Shards          int    `json:"shards"`
	Mode            string `json:"mode"`
	PoolSize        uint64 `json:"pool_size"`
	CheckpointEvery int    `json:"checkpoint_every"`
	QueueDepth      int    `json:"queue_depth"`
	LogFlushEvery   int    `json:"log_flush_every"`
	// ReplLiveWindowMS is how recently the replica must have pulled for the
	// primary to hold acks for it. nvserved's default is 1000; on a shared
	// 2-core box a follower can be descheduled that long, and the resulting
	// degraded acks would void a serve_repl_pair run for no fault of the
	// program's.
	ReplLiveWindowMS int `json:"repl_live_window_ms"`
	// WedgeTimeoutMS is the watchdog's wedge window. nvserved's default is
	// 2000; this VM's disk now and then holds one fsync longer than that,
	// and the breaker the watchdog then opens would turn a slow slice into
	// failed operations.
	WedgeTimeoutMS int `json:"wedge_timeout_ms"`
	Records        int `json:"records"`
	LoadBatch      int `json:"load_batch"`
	// WarmOps is how many operations each client runs, batched, between
	// load and the timed warm-up.
	WarmOps   int     `json:"warm_ops"`
	ZipfTheta float64 `json:"zipf_theta"`
	Clients   int     `json:"clients"`
}

var pinnedConfig = pinned{
	Shards:           2,
	Mode:             rt.HW.String(),
	PoolSize:         32 << 20,
	CheckpointEvery:  8192,
	QueueDepth:       128,
	LogFlushEvery:    64,
	ReplLiveWindowMS: 5000,
	WedgeTimeoutMS:   10000,
	Records:          100000,
	LoadBatch:        256,
	WarmOps:          32768,
	ZipfTheta:        0.99,
	Clients:          2,
}

// quickConfig is the -quick smoke scale: same shape, tiny sizes. Its
// fingerprint differs from the pinned one, so a quick result can never be
// compared against a real one.
func quickConfig() pinned {
	p := pinnedConfig
	p.Records = 4000
	p.WarmOps = 1024
	p.WarmOps = 1024
	p.PoolSize = 4 << 20
	p.CheckpointEvery = 1024
	return p
}

// workload is one pinned traffic mix.
type workload struct {
	Name string `json:"name"`
	// Why is the one line BENCHMARK.json carries for the workload.
	Why string `json:"-"`
	// ReadFrac is the GET share of a serve_* mix (the rest are PUTs).
	ReadFrac float64 `json:"read_frac"`
	// Role, Durable, Parity and Replica select the topology.
	Role    string `json:"role"`
	Durable bool   `json:"durable"` // pool and op-log on a DirStore (fsync)
	Parity  bool   `json:"parity"`
	Replica bool   `json:"replica"` // live replica, FollowPoll 1ms
	// CountedRate, when not 0, makes the window counted instead of timed: it
	// measures seconds x CountedRate operations, in whole checkpoint periods,
	// however long they take. serve_write_durable needs it: its primary never
	// truncates the op-log (no replica ever acknowledges), every flush
	// rewrites the whole log, and so what an operation costs depends on how
	// many came before it. A timed window would measure a different stretch
	// of that curve whenever the host ran faster or slower.
	CountedRate int `json:"counted_rate"`
	// Embedded marks the serverless workload (the paper's own use).
	Embedded bool `json:"embedded"`
}

// periodOps is how many operations of the mix make every shard checkpoint
// once: the work a slice of a counted window holds, so that every slice
// pays for the same number of checkpoints.
func (w workload) periodOps(p pinned) int {
	return int(float64(p.Shards*p.CheckpointEvery)/(1-w.ReadFrac) + 0.5)
}

var workloads = []workload{
	{Name: "serve_read", ReadFrac: 0.95, Role: "standalone",
		Why: "95% GET on a standalone MemStore server: wire codec, admission queue and reply framing dominate; op-log, REPLACK and parity are bypassed"},
	{Name: "serve_write_durable", ReadFrac: 0.05, Role: "primary", Durable: true, Parity: true, CountedRate: 4000,
		Why: "95% PUT on a primary with pool and op-log on an fsync DirStore and parity on: repl.Log append/flush, pmem checkpoint and the parity delta own the time"},
	// 40/60, not the even mix one would reach for: GETs take ~30 us and
	// held PUTs ~1 ms, so at 50/50 the median latency sits on the boundary
	// between the two populations and swings by 25 % from run to run. At
	// 60 % PUTs the median is a held PUT — the thing this workload is about.
	{Name: "serve_repl_pair", ReadFrac: 0.40, Role: "primary", Replica: true,
		Why: "40% GET / 60% PUT against a primary with a live replica, acks held for REPLACK: replack_hold, repl_ship and repl_apply own the latency"},
	{Name: "embedded_paper", Embedded: true,
		Why: "no server: Fig. 11 containers x four reference models plus the minc corpus in-process; rt/core/hw/cpu/structures/minc do all the work and every serving layer is bypassed"},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// fingerprint is the SHA-256 of the pinned configuration plus the
// workload's own parameters. The measured window and the seed are not part
// of it: they are recorded beside it in every result.
func fingerprint(p pinned, w workload) string {
	doc, err := json.Marshal(struct {
		Pinned   pinned   `json:"pinned"`
		Workload workload `json:"workload"`
	}{p, w})
	if err != nil {
		panic(err) // plain structs of scalars cannot fail to marshal
	}
	sum := sha256.Sum256(doc)
	return hex.EncodeToString(sum[:])
}

// serverConfig is the pinned server.Config for a serve_* workload, before
// stores, role wiring and the tracing plane are attached.
func serverConfig(p pinned) server.Config {
	return server.Config{
		Shards:          p.Shards,
		Mode:            rt.HW,
		PoolSize:        p.PoolSize,
		CheckpointEvery: p.CheckpointEvery,
		QueueDepth:      p.QueueDepth,
		LogFlushEvery:   p.LogFlushEvery,
		ReplLiveWindow:  time.Duration(p.ReplLiveWindowMS) * time.Millisecond,
		WedgeTimeout:    time.Duration(p.WedgeTimeoutMS) * time.Millisecond,
	}
}

// replicaPoll is serve_repl_pair's follower poll interval.
const replicaPoll = time.Millisecond

// metricDef names one metric and its unit. Direction and bound live in
// BENCHMARK.json, which a unit test holds to these tables.
type metricDef struct {
	Name string
	Unit string
}

// endToEnd lists the metrics a user of the system sees; every workload
// reports every one of them on its untraced leg.
var endToEnd = []metricDef{
	{"ops_per_s", "1/s"},
	{"p50_us", "us"},
	{"cpu_us_per_op", "us"},
	{"sim_cycles_per_op", "cycles"},
	{"setup_s", "s"},
}

// stages is the request-path vocabulary of server/trace.go, in hop order.
var stages = []string{
	server.StageClientSend, server.StageDecode, server.StageQueueWait,
	server.StageExecute, server.StageOplogAppend, server.StageOplogFlush,
	server.StageReplShip, server.StageReplApply, server.StageAckHold,
	server.StageReplyEncode,
}

// perLayer lists the single-layer metrics of the traced leg. A layer a
// workload bypasses reads 0 there.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	var m []metricDef
	add := func(unit string, names ...string) {
		for _, n := range names {
			m = append(m, metricDef{n, unit})
		}
	}
	// server wire codec (isolated).
	for _, op := range []string{"put", "get"} {
		add("ns", "server.proto.req_encode_ns."+op, "server.proto.req_decode_ns."+op,
			"server.proto.reply_encode_ns."+op, "server.proto.reply_decode_ns."+op)
	}
	add("ns", "server.proto.batch64_roundtrip_ns")
	add("count", "server.proto.allocs_per_roundtrip")
	// server pipeline stages (traced).
	for _, s := range stages {
		add("us", "server.stage."+s+".p50_us", "server.stage."+s+".p99_us")
		add("ratio", "server.stage."+s+".share")
	}
	add("ratio", "server.stage.unattributed.share")
	// server admission and worker counters (stats delta over the window).
	add("count", "server.queue.high_water", "server.sheds", "server.unavailable",
		"server.deadline_drops", "server.checkpoints", "server.degraded_acks", "server.timeout_acks")
	// kvstore + structures + rt engine (isolated; the shard's exact engine).
	add("ns", "kvstore.get_ns", "kvstore.set_ns", "kvstore.scan50_ns")
	add("cycles", "kvstore.get_sim_cycles", "kvstore.set_sim_cycles")
	add("count", "kvstore.allocs_per_op")
	// rt/core/hw/cpu model on the Fig. 11 run (embedded_paper).
	add("ratio", "sim_overhead_hw", "sim_overhead_sw", "minc_sim_overhead_sw", "sim_fig11_max_abs_err")
	add("count", "rt.storep_per_op.hw", "rt.ea_translations_per_op.hw",
		"core.dynamic_checks_per_op.hw", "core.dynamic_checks_per_op.sw", "rt.sw_check_branches_per_op.sw")
	add("ratio", "hw.polb_hit_rate.hw", "hw.valb_hit_rate.hw",
		"cpu.branch_mispredict_rate.hw", "cpu.branch_mispredict_rate.sw")
	add("count", "cpu.mem_accesses_per_op.hw", "cpu.mem_accesses_per_op.sw")
	add("ns", "cpu.host_ns_per_sim_cycle")
	// minc (embedded_paper).
	add("ratio", "minc.checked_site_frac", "minc.corpus_sim_cycles_pass_drift")
	add("us", "minc.compile_us_per_program")
	add("ns", "minc.interp_host_ns_per_sim_instr")
	for _, mode := range rt.Modes {
		add("cycles", "minc.corpus_sim_cycles."+modeSuffix(mode))
	}
	// txn (isolated; on no serving path today).
	add("ns", "txn.commit_ns")
	add("bytes", "txn.log_bytes_per_commit")
	// pmem.
	add("ms", "pmem.checkpoint_ms.memstore", "pmem.checkpoint_ms.dirstore", "pmem.reopen_ms")
	add("bytes", "pmem.bytes_saved_per_put")
	add("count", "pmem.checkpoints")
	// parity.
	add("MB/s", "parity.build_mb_per_s")
	add("us", "parity.update_us_per_dirty_page")
	add("count", "parity.dirty_pages_per_checkpoint")
	add("ratio", "parity.checkpoint_tax_frac")
	// repl log (isolated on a DirStore).
	add("ns", "repl.log.append_ns", "repl.codec.encode_ns_per_record")
	add("us", "repl.log.flush_us.len64", "repl.log.flush_us.len8192", "repl.log.since_durable_us.1024")
	add("bytes", "repl.log.flush_bytes_per_record")
	// repl shipping (serve_repl_pair).
	add("count", "repl.lag_records_max", "repl.records_per_pull")
	add("1/s", "repl.pulls_per_s")
	add("ratio", "repl.empty_pull_frac")
	add("us", "repl.apply_p50_us")
	// The client-observed tail: an end-to-end figure by nature, demoted to
	// this table because no run-to-run bound holds it on a shared host.
	add("us", "p99_us")
	// process.
	add("count", "process.allocs_per_op")
	add("ms/s", "process.gc_pause_ms_per_s")
	add("MB", "process.peak_heap_mb")
	add("ratio", "trace.overhead_frac")
	return m
}

func modeSuffix(m rt.Mode) string {
	switch m {
	case rt.Volatile:
		return "volatile"
	case rt.Explicit:
		return "explicit"
	case rt.SW:
		return "sw"
	default:
		return "hw"
	}
}

// metric is one reported value. Samples is how many observations stand
// behind it (0 when it is a plain count or ratio).
type metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
}

// metricSet collects a leg's metrics against one of the tables above —
// every name present from the start, reading 0 — and refuses names the
// table does not hold.
type metricSet struct {
	vals map[string]metric
}

func newMetricSet(defs []metricDef) *metricSet {
	ms := &metricSet{vals: make(map[string]metric, len(defs))}
	for _, d := range defs {
		ms.vals[d.Name] = metric{Unit: d.Unit}
	}
	return ms
}

func (ms *metricSet) set(name string, v float64) { ms.setN(name, v, 0) }

func (ms *metricSet) setN(name string, v float64, samples int) {
	m, ok := ms.vals[name]
	if !ok {
		panic(fmt.Sprintf("benchmark: metric %q is not in the table", name))
	}
	m.Value, m.Samples = v, samples
	ms.vals[name] = m
}
