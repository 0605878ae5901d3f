// The replication experiment proves the replication tier's core promise:
// a primary/replica pair under closed-loop YCSB load over a flaky network
// loses zero acknowledged writes when the primary is killed mid-stream and
// the replica is promoted in its place — and in steady state the
// replication lag drains back to zero once writes stop, without any
// process restart.
//
// Zero-loss detection is the harness's oracle (harness.go), swept on the
// promoted replica. Its soundness here rests on the primary's
// semi-synchronous ack counters, collected the instant before it is
// killed: zero degraded acks (every write ack waited for replica coverage)
// and zero timeout acks (no held ack was abandoned) mean an acknowledged
// write is, by construction, applied and logged on the replica.
package bench

import (
	"fmt"
	"io"
	"sync"
	"time"

	"nvref/internal/obs"
	"nvref/internal/rt"
	"nvref/internal/server"
)

// ReplicationSpec parameterizes the replication experiment. Checkpoints
// truncate the op log, so a mid-size CheckpointEvery exercises truncation
// under load.
type ReplicationSpec struct {
	LoadSpec
	// KillAfterFrac is the fraction of operations after which the primary
	// is killed (0.4 = after 40% of the stream completed).
	KillAfterFrac float64
	// PromoteAfter is how long the replica's follower tolerates primary
	// silence before promoting itself.
	PromoteAfter time.Duration
}

// ReplicationSpecFor returns the standard experiment sizes.
func ReplicationSpecFor(quick bool) ReplicationSpec {
	s := ReplicationSpec{
		LoadSpec: LoadSpec{
			Records:         4000,
			Operations:      24000,
			Clients:         4,
			Shards:          4,
			Mode:            rt.HW,
			PoolSize:        4 << 20,
			CheckpointEvery: 4000,
			NetFaultEvery:   200,
			ProbeOps:        500,
			Seed:            17,
		},
		KillAfterFrac: 0.4,
		PromoteAfter:  150 * time.Millisecond,
	}
	if quick {
		s.Records, s.Operations = 1500, 10000
		s.Shards = 2
	}
	return s
}

// ReplicationResult is the experiment document. The client-side fields
// cover the full run (flaky network, primary killed mid-stream); the probe
// pass and the sweep ran on the promoted replica.
type ReplicationResult struct {
	LoadResult

	// Steady state: lag observed while the pair was healthy, and the
	// drain-to-zero check after the load phase.
	MaxLagRecords uint64  `json:"max_lag_records"`
	LagDrained    bool    `json:"lag_drained"`
	DrainSeconds  float64 `json:"drain_seconds"`

	Retries   uint64 `json:"retries"`
	Failovers uint64 `json:"failovers"`

	// Old-primary ack discipline, sampled immediately before the kill.
	// Both must be zero for the zero-loss verdict to be sound.
	DegradedAcks uint64 `json:"degraded_acks"`
	TimeoutAcks  uint64 `json:"timeout_acks"`

	// Replica-side replication work.
	Pulls      uint64 `json:"pulls"`
	Applies    uint64 `json:"applies"`
	Reconnects uint64 `json:"reconnects"`
	Promotions uint64 `json:"promotions"`

	// Metrics is the promoted replica's obs registry snapshot: role,
	// promotion count, replication lag and apply counters.
	Metrics *obs.Snapshot `json:"metrics,omitempty"`
}

// Pass applies the acceptance gates: real traffic moved over a really
// faulty network, the pre-kill lag drained to zero in place, the primary's
// ack discipline held (making the sweep sound), exactly one promotion
// happened, no acknowledged write was lost, and the promoted replica
// serves an error-free probe pass.
func (r *ReplicationResult) Pass() bool {
	return r.OpsOK > 0 && r.NetFaults > 0 &&
		r.LagDrained &&
		r.DegradedAcks == 0 && r.TimeoutAcks == 0 &&
		r.Promotions == 1 &&
		r.LostWrites == 0 && r.MissingKeys == 0 &&
		r.AckedKeys > 0 &&
		r.ProbeOps > 0 && r.ProbeErrors == 0
}

// RunReplication executes the experiment against an in-process
// primary/replica pair on loopback listeners.
func RunReplication(spec ReplicationSpec) (*ReplicationResult, error) {
	res := &ReplicationResult{}
	reg := obs.NewRegistry()
	rcfg := spec.config()
	rcfg.PromoteAfter = spec.PromoteAfter
	rcfg.Reg = reg
	p, err := startPair(spec.config(), rcfg)
	if err != nil {
		return nil, fmt.Errorf("replication: %w", err)
	}
	defer p.close()

	h := newAcceptance(spec.LoadSpec)
	loader, err := server.DialResilient(p.paddr, h.loaderPolicy())
	if err != nil {
		return nil, err
	}
	if err := h.load(loader); err != nil {
		return nil, err
	}

	// Steady-state gate: with writes paused, the replication lag must
	// drain to zero in place.
	td := time.Now()
	res.LagDrained = waitUntil(5*time.Second, func() bool {
		return p.primary.CollectStats().ReplLagRecords == 0
	}) == nil
	res.DrainSeconds = time.Since(td).Seconds()

	// Lag sampler: records the worst lag seen while the primary lives.
	samplerStop := make(chan struct{})
	samplerDone := make(chan struct{})
	go func() {
		defer close(samplerDone)
		for {
			select {
			case <-samplerStop:
				return
			case <-time.After(2 * time.Millisecond):
			}
			if lag := p.primary.CollectStats().ReplLagRecords; lag > res.MaxLagRecords {
				res.MaxLagRecords = lag
			}
		}
	}()
	var stopOnce sync.Once
	stopSampler := func() { stopOnce.Do(func() { close(samplerStop); <-samplerDone }) }
	defer stopSampler()

	// The killer: on the op that completes the configured fraction of the
	// stream, sample the primary's ack discipline and kill it.
	h.at(spec.KillAfterFrac, func() {
		stopSampler()
		for _, sh := range p.primary.CollectStats().PerShard {
			if sh.Repl != nil {
				res.DegradedAcks += sh.Repl.DegradedAcks
				res.TimeoutAcks += sh.Repl.TimeoutAcks
			}
		}
		p.kill()
	})

	// Closed-loop clients on failover lists through the flaky network:
	// every client knows both endpoints and rotates on endpoint failure,
	// which is how writers find the promoted replica after the kill.
	clients := make([]*server.ResilientClient, spec.Clients)
	if err := h.drive(func(ci int) (kv, error) {
		cl, err := server.DialResilientList([]string{p.paddr, p.raddr}, h.policy(ci), h.dialer(ci))
		clients[ci] = cl
		return rywClient{cl}, err
	}); err != nil {
		return nil, fmt.Errorf("replication: %w", err)
	}
	for _, cl := range clients {
		res.Retries += cl.Retries()
		res.Failovers += cl.Failovers()
	}

	// The replica must have noticed the silence and promoted itself.
	if err := p.awaitPromotion(); err != nil {
		return nil, fmt.Errorf("replication: %w", err)
	}
	rs := p.replica.CollectStats()
	res.Promotions = rs.Promotions
	if rs.Follower != nil {
		res.Pulls = rs.Follower.Pulls
		res.Applies = rs.Follower.Applied
		res.Reconnects = rs.Follower.Reconnects
	}

	// Probe pass and zero-loss sweep on the promoted replica: it must serve
	// reads and accept writes error-free, no process restart anywhere, and
	// hold every acknowledged write.
	probe, err := server.Dial(p.raddr)
	if err != nil {
		return nil, err
	}
	if err := h.verify(probe); err != nil {
		return nil, fmt.Errorf("replication: %w", err)
	}
	res.LoadResult = h.res

	snap := reg.Snapshot()
	res.Metrics = &snap
	return res, nil
}

// WriteText renders the experiment as text.
func (r *ReplicationResult) WriteText(w io.Writer) {
	fmt.Fprintf(w, "replication: YCSB-A, %d records / %d ops, %d clients, %d shards, %s mode\n",
		r.Records, r.Operations, r.Clients, r.Shards, r.Mode)
	drained := "drained to 0"
	if !r.LagDrained {
		drained = "DID NOT DRAIN"
	}
	fmt.Fprintf(w, "steady state: max lag %d records; after load, lag %s in %.2fs\n",
		r.MaxLagRecords, drained, r.DrainSeconds)
	fmt.Fprintf(w, "faulty window: %d ok / %d failed ops (error rate %.2f%%) in %.2fs; %d retries, %d failovers, %d net faults\n",
		r.OpsOK, r.OpsFailed, r.ErrorRate*100, r.WallSeconds, r.Retries, r.Failovers, r.NetFaults)
	fmt.Fprintf(w, "old primary ack discipline: %d degraded, %d timed out (both must be 0)\n",
		r.DegradedAcks, r.TimeoutAcks)
	fmt.Fprintf(w, "replica: %d pulls, %d records applied, %d reconnects, %d promotion(s)\n",
		r.Pulls, r.Applies, r.Reconnects, r.Promotions)
	fmt.Fprintf(w, "probe on promoted replica: %d ops, %d errors\n", r.ProbeOps, r.ProbeErrors)
	r.writeVerdict(w, r.Pass())
}
