// Command benchmark is nvref's one pinned benchmark: four workloads, two
// clocks, and a per-layer budget (see README.md in this directory).
//
// With no flags it runs every workload, the untraced leg (end-to-end
// metrics) and then the traced leg (per-layer metrics) of each, and prints
// one JSON result line per leg. The acceptance driver runs one leg at a
// time: -workload <name> -seed <n> -seconds <s> -trace <0|1>.
//
// Host clock and simulated clock (internal/cpu cycles) are both reported
// and never mixed: a metric whose name contains "sim_" or "sim." counts
// simulated cycles; everything else is host time.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"time"
)

// record is one leg's full result as appended to -out: the result line's
// content plus provenance and per-metric sample counts.
type record struct {
	Workload    string            `json:"workload"`
	Trace       int               `json:"trace"`
	Seed        int64             `json:"seed"`
	Seconds     float64           `json:"seconds"`
	Warmup      float64           `json:"warmup"`
	Quick       bool              `json:"quick,omitempty"`
	Fingerprint string            `json:"fingerprint"`
	Commit      string            `json:"commit"`
	GoVersion   string            `json:"go"`
	NProc       int               `json:"nproc"`
	GOMAXPROCS  int               `json:"gomaxprocs"`
	Time        string            `json:"time"`
	Correct     bool              `json:"correct"`
	Attempted   int               `json:"attempted"`
	Failed      int               `json:"failed"`
	FailedFrac  float64           `json:"failed_frac"`
	Notes       []string          `json:"notes,omitempty"`
	Metrics     map[string]metric `json:"metrics"`
	// Slices is what each median was taken over: the per-slice (serve_*) or
	// per-pass (embedded_paper) values, in window order.
	Slices map[string][]float64 `json:"slices,omitempty"`
}

// resultLine is the last line of standard output for a leg, in the shape
// the acceptance driver reads.
type resultLine struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]lineMetric `json:"metrics"`
}

type lineMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// commit is the VCS revision the binary was built from, when the build
// could see one (a plain source checkout has none).
func commit() string {
	rev, dirty := "unknown", false
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
	}
	if dirty {
		rev += "+dirty"
	}
	return rev
}

func main() { os.Exit(run()) }

// run is main with an exit code, so deferred clean-up happens before exit:
// 0 all correct, 1 a failed output check or a worse -compare verdict, 2 the
// benchmark itself could not run.
func run() int {
	var (
		workloadFlag = flag.String("workload", "all", "workload to run: all, or one of serve_read, serve_write_durable, serve_repl_pair, embedded_paper")
		seed         = flag.Int64("seed", 42, "workload seed: the same seed gives the same inputs")
		seconds      = flag.Float64("seconds", 16, "length of the measured window, seconds (a counted window measures seconds x the workload's counted_rate operations instead)")
		warmup       = flag.Float64("warmup", 1, "timed warm-up between the op-counted warm-up and the measured window, seconds")
		trace        = flag.Int("trace", -1, "0: untraced leg (end-to-end metrics); 1: traced leg (per-layer metrics); -1: both")
		quick        = flag.Bool("quick", false, "smoke scale: tiny topology and windows (results are not comparable with pinned ones)")
		out          = flag.String("out", "", "append every leg's full record (provenance, fingerprint, sample counts) to this JSONL file")
		spansOut     = flag.String("spans-out", "", "write the traced leg's raw spans (bounded sample) to this JSONL file after the window closes")
		tmp          = flag.String("tmp", ".bench_build", "directory for the durable workload's stores (created if missing; what a run puts there it removes)")
		compare      = flag.Bool("compare", false, "compare two -out files given as arguments: benchmark -compare a.jsonl b.jsonl")
		specPath     = flag.String("spec", "BENCHMARK.json", "BENCHMARK.json holding the per-metric bounds -compare judges by")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			return fail("usage: benchmark -compare a.jsonl b.jsonl")
		}
		worse, err := runCompare(os.Stdout, *specPath, flag.Arg(0), flag.Arg(1))
		if err != nil {
			return fail("%v", err)
		}
		if worse {
			return 1
		}
		return 0
	}

	selected := workloads
	if *workloadFlag != "all" {
		w, ok := workloadByName(*workloadFlag)
		if !ok {
			return fail("unknown workload %q", *workloadFlag)
		}
		selected = []workload{w}
	}
	var legs []bool
	switch *trace {
	case 0:
		legs = []bool{false}
	case 1:
		legs = []bool{true}
	case -1:
		legs = []bool{false, true}
	default:
		return fail("-trace must be 0, 1 or -1")
	}
	if *seconds <= 0 || *warmup < 0 {
		return fail("-seconds must be positive and -warmup not negative")
	}
	if err := os.MkdirAll(*tmp, 0o755); err != nil {
		return fail("%v", err)
	}
	tmpRoot, err := os.MkdirTemp(*tmp, "run-")
	if err != nil {
		return fail("%v", err)
	}
	defer os.RemoveAll(tmpRoot)

	o := runOpts{
		p:         pinnedConfig,
		quick:     *quick,
		seed:      *seed,
		seconds:   time.Duration(*seconds * float64(time.Second)),
		warmup:    time.Duration(*warmup * float64(time.Second)),
		setupReps: maxSetups,
		tmpRoot:   tmpRoot,
		spansOut:  *spansOut,
	}
	if *quick {
		o.p = quickConfig()
		o.setupReps = 1
	}

	code := 0
	for _, w := range selected {
		for _, traced := range legs {
			o.trace = traced
			fmt.Fprintf(os.Stderr, "benchmark: %s trace=%v seed=%d seconds=%g\n", w.Name, traced, *seed, *seconds)
			res, err := runLeg(w, o)
			if err != nil {
				return fail("%v", err)
			}
			for _, n := range res.Notes {
				fmt.Fprintf(os.Stderr, "benchmark: %s: %s\n", w.Name, n)
			}
			if !res.Correct {
				code = 1
			}
			if *out != "" {
				if err := appendRecord(*out, makeRecord(w, o, res)); err != nil {
					return fail("%v", err)
				}
			}
			line := resultLine{Correct: res.Correct, Attempted: res.Attempted, Failed: res.Failed,
				Metrics: make(map[string]lineMetric, len(res.Metrics))}
			for name, m := range res.Metrics {
				line.Metrics[name] = lineMetric{m.Value, m.Unit}
			}
			doc, err := json.Marshal(line)
			if err != nil {
				return fail("%v", err)
			}
			fmt.Printf("%s\n", doc)
		}
	}
	return code
}

func makeRecord(w workload, o runOpts, res *legResult) record {
	rec := record{
		Workload:    w.Name,
		Seed:        o.seed,
		Seconds:     o.seconds.Seconds(),
		Warmup:      o.warmup.Seconds(),
		Quick:       o.quick,
		Fingerprint: fingerprint(o.p, w),
		Commit:      commit(),
		GoVersion:   runtime.Version(),
		NProc:       runtime.NumCPU(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		Time:        time.Now().UTC().Format(time.RFC3339),
		Correct:     res.Correct,
		Attempted:   res.Attempted,
		Failed:      res.Failed,
		Notes:       res.Notes,
		Metrics:     res.Metrics,
		Slices:      res.Slices,
	}
	if o.trace {
		rec.Trace = 1
	}
	if res.Attempted > 0 {
		rec.FailedFrac = float64(res.Failed) / float64(res.Attempted)
	}
	return rec
}

func appendRecord(path string, rec record) error {
	doc, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(doc, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// fail reports why the benchmark could not run and returns its exit code.
func fail(format string, args ...any) int {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
	return 2
}
