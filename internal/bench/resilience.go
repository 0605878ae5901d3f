// The resilience experiment proves the serving tier self-heals: a
// closed-loop YCSB load runs while shard workers are repeatedly killed
// (software crashes the supervisor must catch and repair) and the network
// between clients and server drops, truncates, and delays frames. The
// gates are the ones an operator cares about: zero acknowledged writes
// lost, every killed shard restarted by its supervisor without a process
// restart, and a clean (error-free) probe pass once the faults stop.
// Loading, driving and the zero-loss oracle are the harness's (harness.go).
package bench

import (
	"fmt"
	"io"
	"time"

	"nvref/internal/rt"
	"nvref/internal/server"
)

// ResilienceSpec parameterizes the resilience experiment. Keep
// CheckpointEvery large enough that kills land between checkpoints, so
// surviving acked writes prove salvage (not checkpoint luck).
type ResilienceSpec struct {
	LoadSpec
	// Kills is how many shard workers are killed (round-robin) during the
	// run.
	Kills int
}

// ResilienceSpecFor returns the standard experiment sizes.
func ResilienceSpecFor(quick bool) ResilienceSpec {
	s := ResilienceSpec{
		LoadSpec: LoadSpec{
			Records:         4000,
			Operations:      24000,
			Clients:         4,
			Shards:          4,
			Mode:            rt.HW,
			PoolSize:        4 << 20,
			CheckpointEvery: 100000,
			NetFaultEvery:   150,
			ProbeOps:        500,
			Seed:            11,
		},
		Kills: 8,
	}
	if quick {
		s.Records, s.Operations, s.Kills = 1500, 8000, 4
	}
	return s
}

// ResilienceResult is the experiment document.
type ResilienceResult struct {
	LoadResult

	// Kills is the fault load actually delivered (with NetFaults).
	Kills   int    `json:"kills"`
	Retries uint64 `json:"retries"`
	Redials uint64 `json:"redials"`

	// Server-side supervision counters, summed over shards.
	Panics       uint64 `json:"panics"`
	Restarts     uint64 `json:"restarts"`
	Salvages     uint64 `json:"salvages"`
	Rollbacks    uint64 `json:"rollbacks"`
	Sheds        uint64 `json:"sheds"`
	Unavailable  uint64 `json:"unavailable"`
	BreakerOpens uint64 `json:"breaker_opens"`
	Scrubs       uint64 `json:"scrubs"`
}

// Pass applies the acceptance gates: faults were actually injected, every
// kill was caught and the worker restarted in place, no acknowledged write
// was lost, and the post-fault probe ran clean (the client-observed error
// rate returned to zero without a process restart).
func (r *ResilienceResult) Pass() bool {
	return r.Kills > 0 &&
		r.Restarts >= uint64(r.Kills) &&
		r.LostWrites == 0 && r.MissingKeys == 0 &&
		r.OpsOK > 0 &&
		r.ProbeOps > 0 && r.ProbeErrors == 0
}

// RunResilience executes the experiment against an in-process server on a
// loopback listener.
func RunResilience(spec ResilienceSpec) (*ResilienceResult, error) {
	cfg := spec.config()
	cfg.AdmitWait = 20 * time.Millisecond
	cfg.BreakerCooldown = 20 * time.Millisecond
	cfg.WedgeTimeout = 500 * time.Millisecond
	cfg.ScrubEvery = 2 * time.Millisecond
	srv, addr, err := startServer(cfg)
	if err != nil {
		return nil, err
	}
	defer srv.Close()

	// Load over a clean network (retries cover any shed during warm-up).
	h := newAcceptance(spec.LoadSpec)
	loader, err := server.DialResilient(addr, h.loaderPolicy())
	if err != nil {
		return nil, err
	}
	if err := h.load(loader); err != nil {
		return nil, err
	}

	// The killer: exactly Kills software crashes, spread across shards and
	// across the run. InjectPanic returns only after the supervisor has
	// restarted the worker, so kills never overlap on one shard.
	killerDone := make(chan error, 1)
	go func() {
		for k := 0; k < spec.Kills; k++ {
			time.Sleep(15 * time.Millisecond)
			if err := srv.InjectPanic(k % spec.Shards); err != nil {
				killerDone <- err
				return
			}
		}
		killerDone <- nil
	}()

	// Faulty window: closed-loop clients over the flaky network while the
	// killer murders shard workers round-robin.
	clients := make([]*server.ResilientClient, spec.Clients)
	err = h.drive(func(ci int) (kv, error) {
		cl, err := server.DialResilientFunc(addr, h.policy(ci), h.dialer(ci))
		clients[ci] = cl
		return cl, err
	})
	if kerr := <-killerDone; kerr != nil {
		return nil, fmt.Errorf("resilience: killer: %w", kerr)
	}
	if err != nil {
		return nil, err
	}
	res := &ResilienceResult{Kills: spec.Kills}
	for _, cl := range clients {
		res.Retries += cl.Retries()
		res.Redials += cl.Redials()
	}

	// Faults are over. Probe and sweep on a clean connection: the error
	// rate must be back to zero with no process restart.
	probe, err := server.Dial(addr)
	if err != nil {
		return nil, err
	}
	if err := h.verify(probe); err != nil {
		return nil, fmt.Errorf("resilience: %w", err)
	}
	res.LoadResult = h.res

	for _, sh := range srv.CollectStats().PerShard {
		res.Panics += sh.Panics
		res.Restarts += sh.Restarts
		res.Salvages += sh.Salvages
		res.Rollbacks += sh.Rollbacks
		res.Sheds += sh.Sheds
		res.Unavailable += sh.Unavailable
		res.BreakerOpens += sh.BreakerOpens
		res.Scrubs += sh.Scrubs
	}
	return res, nil
}

// WriteText renders the experiment as text.
func (r *ResilienceResult) WriteText(w io.Writer) {
	fmt.Fprintf(w, "resilience: YCSB-A, %d records / %d ops, %d clients, %d shards, %s mode\n",
		r.Records, r.Operations, r.Clients, r.Shards, r.Mode)
	fmt.Fprintf(w, "faults: %d worker kills, %d network faults injected\n", r.Kills, r.NetFaults)
	fmt.Fprintf(w, "faulty window: %d ok / %d failed ops (error rate %.2f%%) in %.2fs; %d retries, %d redials\n",
		r.OpsOK, r.OpsFailed, r.ErrorRate*100, r.WallSeconds, r.Retries, r.Redials)
	fmt.Fprintf(w, "supervision: %d panics caught, %d restarts (%d salvaged, %d rolled back), %d breaker opens, %d shed, %d unavailable, %d scrubs\n",
		r.Panics, r.Restarts, r.Salvages, r.Rollbacks, r.BreakerOpens, r.Sheds, r.Unavailable, r.Scrubs)
	fmt.Fprintf(w, "probe after faults: %d ops, %d errors in %.2fs\n", r.ProbeOps, r.ProbeErrors, r.ProbeSeconds)
	r.writeVerdict(w, r.Pass())
}
