// The sim experiment drives the deterministic cluster simulator and its
// durable-linearizability checker as an acceptance gate: every schedule a
// gate rests on must replay byte-identically from its seed, the unfenced
// split-brain schedule must be flagged as a durable-linearizability
// violation while the fenced variant checks clean, and a multi-seed
// nemesis sweep (partition+heal, crash-restarts with failover over a flaky
// network, a cluster joiner killed between live migrations, shard kills
// under a flaky network, and media corruption under load) must pass every
// run's verdict (sim.Run's judge) on the default configuration.
package bench

import (
	"bytes"
	"fmt"
	"io"
	"time"

	"nvref/internal/sim"
)

// SimSpec parameterizes the simulation experiment.
type SimSpec struct {
	// Ops is the per-run operation count for sweep schedules.
	Ops int
	// Seeds are swept over every sweep schedule.
	Seeds []int64
	// Schedules are the sweep schedule names (sim.Schedules).
	Schedules []string
	// HistoryDir, when set, receives one JSONL history per run, named
	// <schedule>-seed<seed>.jsonl — the replay artifact for a failure.
	HistoryDir string
}

// SimSpecFor returns the standard experiment sizes: the full sweep is
// the 10-seed acceptance matrix, quick is the verify.sh leg.
func SimSpecFor(quick bool) SimSpec {
	s := SimSpec{
		Ops:   90,
		Seeds: []int64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10},
		Schedules: []string{
			"partition-heal", "crash-restart-replica",
			"crash-failover-restart", "migration-kill", "flaky-steady",
			"corrupt-under-load",
		},
	}
	if quick {
		s.Ops = 60
		s.Seeds = []int64{1, 2, 3}
	}
	return s
}

// SimRun is one simulator run in the experiment document: the run's
// verdict and counters, and what it cost.
type SimRun struct {
	*sim.RunResult
	WallSeconds float64 `json:"wall_seconds"`
}

// SimResult is the experiment document.
type SimResult struct {
	Ops       int `json:"ops"`
	SeedCount int `json:"seed_count"`

	// DeterminismOK: every schedule of sim.Replayed replayed three times
	// per seed to byte-identical histories, every run passed, and
	// different seeds of a schedule produced different histories.
	DeterminismOK bool `json:"determinism_ok"`

	// The fencing gate pair.
	UnfencedViolation bool `json:"unfenced_violation"`
	FencedOK          bool `json:"fenced_ok"`

	// Gates holds the determinism and split-brain runs; Sweep the
	// schedule × seed nemesis matrix.
	Gates []SimRun `json:"gates"`
	Sweep []SimRun `json:"sweep"`

	SweepRuns       int `json:"sweep_runs"`
	SweepViolations int `json:"sweep_violations"`
	SweepFailures   int `json:"sweep_failures"`

	// Client operations completed and wall time spent across every run.
	OpsTotal    int     `json:"ops_total"`
	WallSeconds float64 `json:"wall_seconds"`
}

// Pass applies the acceptance gates: reproducibility, the checker
// catching the unfenced split-brain while passing the fenced one, and a
// sweep that actually ran with every run's verdict passing.
func (r *SimResult) Pass() bool {
	return r.DeterminismOK &&
		r.UnfencedViolation && r.FencedOK &&
		r.SweepRuns > 0 && r.SweepViolations == 0 && r.SweepFailures == 0
}

// RunSim executes the experiment.
func RunSim(spec SimSpec) (*SimResult, error) {
	res := &SimResult{Ops: spec.Ops, SeedCount: len(spec.Seeds)}

	runOne := func(sched sim.Schedule, seed int64) (SimRun, error) {
		t0 := time.Now()
		r, err := sim.Run(sim.RunConfig{Schedule: sched, Seed: seed, HistoryDir: spec.HistoryDir})
		if err != nil {
			return SimRun{}, fmt.Errorf("sim: %s seed %d: %w", sched.Name, seed, err)
		}
		run := SimRun{RunResult: r, WallSeconds: time.Since(t0).Seconds()}
		res.OpsTotal += r.OpsOK + r.OpsFail + r.OpsInfo
		res.WallSeconds += run.WallSeconds
		return run, nil
	}

	// Reproducibility: each (schedule, seed) three times must replay to
	// the byte; a different seed of a seeded schedule must not.
	res.DeterminismOK = true
	for _, rp := range sim.Replayed(spec.Ops) {
		var prev []byte
		for _, seed := range rp.Seeds {
			var first []byte
			for i := 0; i < 3; i++ {
				run, err := runOne(rp.Schedule, seed)
				if err != nil {
					return nil, err
				}
				res.Gates = append(res.Gates, run)
				if i == 0 {
					first = run.History
				}
				res.DeterminismOK = res.DeterminismOK && run.Ok && bytes.Equal(first, run.History)
			}
			res.DeterminismOK = res.DeterminismOK && !bytes.Equal(prev, first)
			prev = first
			switch last := res.Gates[len(res.Gates)-1]; rp.Schedule.Name {
			case "split-brain-unfenced":
				res.UnfencedViolation = last.Ok && !last.LinzOK
			case "split-brain-fenced":
				res.FencedOK = last.Ok && last.LinzOK
			}
		}
	}

	// The nemesis sweep.
	for _, name := range spec.Schedules {
		sched, err := sim.Schedules(name, spec.Ops)
		if err != nil {
			return nil, err
		}
		for _, seed := range spec.Seeds {
			run, err := runOne(sched, seed)
			if err != nil {
				return nil, err
			}
			res.SweepRuns++
			if !run.LinzOK {
				res.SweepViolations++
			}
			if !run.Ok {
				res.SweepFailures++
			}
			res.Sweep = append(res.Sweep, run)
		}
	}
	return res, nil
}

func verdict(pass bool) string {
	if pass {
		return "PASS"
	}
	return "FAIL"
}

// WriteText renders the experiment as text.
func (r *SimResult) WriteText(w io.Writer) {
	fmt.Fprintf(w, "sim: deterministic cluster simulation, %d ops/run, %d seeds\n", r.Ops, r.SeedCount)
	fmt.Fprintf(w, "determinism: same-seed histories byte-identical -> %s\n", verdict(r.DeterminismOK))
	fmt.Fprintf(w, "fence gate: unfenced split-brain flagged=%v, fenced clean=%v -> %s\n",
		r.UnfencedViolation, r.FencedOK, verdict(r.UnfencedViolation && r.FencedOK))
	fmt.Fprintf(w, "nemesis sweep: %d runs, %d checker violations, %d run failures\n",
		r.SweepRuns, r.SweepViolations, r.SweepFailures)
	for _, run := range append(r.Gates, r.Sweep...) {
		if run.Ok {
			continue
		}
		fmt.Fprintf(w, "  FAIL %s seed %d: %s %v (history %s)\n",
			run.Schedule, run.Seed, run.Detail, run.Violations, run.HistoryPath)
	}
	fmt.Fprintf(w, "total: %d ops in %.2fs -> %s\n", r.OpsTotal, r.WallSeconds, verdict(r.Pass()))
}
