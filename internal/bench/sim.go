// The sim experiment drives the deterministic cluster simulator and its
// durable-linearizability checker as an acceptance gate: same-seed runs
// must replay byte-identically, the unfenced split-brain schedule must
// be flagged as a durable-linearizability violation while the fenced
// variant checks clean, and a multi-seed nemesis sweep (partition+heal,
// crash-restarts with failover, a mid-migration kill, and flaky-network
// steady state) must complete with zero violations on the default
// configuration.
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
		s.Schedules = []string{"partition-heal", "crash-failover-restart", "migration-kill", "corrupt-under-load"}
	}
	return s
}

// SimRun is one simulator run in the experiment document.
type SimRun struct {
	Schedule    string   `json:"schedule"`
	Seed        int64    `json:"seed"`
	Ok          bool     `json:"ok"`
	LinzOK      bool     `json:"linz_ok"`
	OpsOK       int      `json:"ops_ok"`
	OpsFail     int      `json:"ops_fail"`
	OpsInfo     int      `json:"ops_info"`
	Crashes     int      `json:"crashes"`
	States      int      `json:"states_visited"`
	WallSeconds float64  `json:"wall_seconds"`
	Detail      string   `json:"detail,omitempty"`
	Violations  []string `json:"violations,omitempty"`
	HistoryPath string   `json:"history_path,omitempty"`
}

// SimResult is the experiment document.
type SimResult struct {
	Ops       int `json:"ops"`
	SeedCount int `json:"seed_count"`

	// DeterminismOK: two identical-seed steady runs produced
	// byte-identical histories (and a different seed produced a
	// different one).
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
// violation-free, failure-free sweep that actually ran.
func (r *SimResult) Pass() bool {
	return r.DeterminismOK &&
		r.UnfencedViolation && r.FencedOK &&
		r.SweepRuns > 0 && r.SweepViolations == 0 && r.SweepFailures == 0
}

// RunSim executes the experiment.
func RunSim(spec SimSpec) (*SimResult, error) {
	res := &SimResult{Ops: spec.Ops, SeedCount: len(spec.Seeds)}

	runOne := func(sched sim.Schedule, seed int64) (*sim.RunResult, SimRun, error) {
		t0 := time.Now()
		r, err := sim.Run(sim.RunConfig{Schedule: sched, Seed: seed, HistoryDir: spec.HistoryDir})
		if err != nil {
			return nil, SimRun{}, fmt.Errorf("sim: %s seed %d: %w", sched.Name, seed, err)
		}
		wall := time.Since(t0).Seconds()
		res.OpsTotal += r.OpsOK + r.OpsFail + r.OpsInfo
		res.WallSeconds += wall
		return r, SimRun{
			Schedule:    sched.Name,
			Seed:        seed,
			Ok:          r.Ok,
			LinzOK:      r.LinzOK,
			OpsOK:       r.OpsOK,
			OpsFail:     r.OpsFail,
			OpsInfo:     r.OpsInfo,
			Crashes:     r.Crashes,
			States:      r.StatesVisited,
			WallSeconds: wall,
			Detail:      r.Detail,
			Violations:  r.Violations,
			HistoryPath: r.HistoryPath,
		}, nil
	}

	// Reproducibility: the same (schedule, seed) twice must replay to the
	// byte; a different seed must not.
	d1, row1, err := runOne(sim.Steady(spec.Ops), 11)
	if err != nil {
		return nil, err
	}
	d2, row2, err := runOne(sim.Steady(spec.Ops), 11)
	if err != nil {
		return nil, err
	}
	d3, row3, err := runOne(sim.Steady(spec.Ops), 12)
	if err != nil {
		return nil, err
	}
	res.DeterminismOK = d1.Ok && d2.Ok && d3.Ok &&
		bytes.Equal(d1.History, d2.History) &&
		!bytes.Equal(d1.History, d3.History)
	res.Gates = append(res.Gates, row1, row2, row3)

	// The fencing gate: the run's Ok already encodes "violation expected
	// and flagged" for the unfenced schedule.
	uf, rowU, err := runOne(sim.SplitBrain(false), 1)
	if err != nil {
		return nil, err
	}
	fn, rowF, err := runOne(sim.SplitBrain(true), 1)
	if err != nil {
		return nil, err
	}
	res.UnfencedViolation = uf.Ok && !uf.LinzOK
	res.FencedOK = fn.Ok && fn.LinzOK
	res.Gates = append(res.Gates, rowU, rowF)

	// The nemesis sweep.
	for _, name := range spec.Schedules {
		sched, err := sim.Schedules(name, spec.Ops)
		if err != nil {
			return nil, err
		}
		for _, seed := range spec.Seeds {
			r, row, err := runOne(sched, seed)
			if err != nil {
				return nil, err
			}
			res.SweepRuns++
			if !r.LinzOK {
				res.SweepViolations++
			}
			if !r.Ok {
				res.SweepFailures++
			}
			res.Sweep = append(res.Sweep, row)
		}
	}
	return res, nil
}

// WriteText renders the experiment as text.
func (r *SimResult) WriteText(w io.Writer) {
	fmt.Fprintf(w, "sim: deterministic cluster simulation, %d ops/run, %d seeds\n", r.Ops, r.SeedCount)
	fmt.Fprintf(w, "determinism: same-seed histories byte-identical -> %s\n", verdict(r.DeterminismOK))
	fmt.Fprintf(w, "fence gate: unfenced split-brain flagged=%v, fenced clean=%v -> %s\n",
		r.UnfencedViolation, r.FencedOK, verdict(r.UnfencedViolation && r.FencedOK))
	fmt.Fprintf(w, "nemesis sweep: %d runs, %d checker violations, %d run failures\n",
		r.SweepRuns, r.SweepViolations, r.SweepFailures)
	for _, run := range r.Sweep {
		if run.Ok {
			continue
		}
		fmt.Fprintf(w, "  FAIL %s seed %d: %s %v (history %s)\n",
			run.Schedule, run.Seed, run.Detail, run.Violations, run.HistoryPath)
	}
	fmt.Fprintf(w, "total: %d ops in %.2fs -> %s\n", r.OpsTotal, r.WallSeconds, verdict(r.Pass()))
}
