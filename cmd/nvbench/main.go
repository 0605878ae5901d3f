// Command nvbench regenerates the paper's evaluation tables and figures
// from the simulated system.
//
// Usage:
//
//	nvbench -experiment all
//	nvbench -experiment fig11 [-quick]
//	nvbench -experiment fig13|fig14|fig15|table2|table3|table5|knn|inference|soundness
//
// -quick runs a scaled-down workload (1,000 records / 10,000 operations)
// instead of the paper's 10,000 / 100,000.
package main

import (
	"flag"
	"fmt"
	"net/http"
	"os"

	"nvref/internal/bench"
	"nvref/internal/obs"
	"nvref/internal/rt"
)

func main() {
	experiment := flag.String("experiment", "all",
		"which experiment to run: all, fig11, fig13, fig14, fig15, table2, table3, table5, knn, inference, soundness, ablations, scaling, or mixes")
	quick := flag.Bool("quick", false, "run the scaled-down workload")
	format := flag.String("format", "table", "output format: table, csv (fig11, fig13, fig14, fig15, table5, knn, scaling), or json (every measurement of -experiment all)")
	httpAddr := flag.String("http", "", "serve /metrics, /metrics.json and /debug/pprof on this address while running (e.g. localhost:9090)")
	flag.Parse()

	cfg := bench.PaperRunConfig()
	if *quick {
		cfg = bench.QuickRunConfig()
	}

	if *httpAddr != "" {
		// Every freshly built context rebinds the live registry, so /metrics
		// follows the run currently executing.
		liveReg := obs.NewRegistry()
		cfg.Observe = func(c *rt.Context) { c.RegisterMetrics(liveReg) }
		go func() {
			if err := http.ListenAndServe(*httpAddr, obs.Mux(liveReg)); err != nil {
				fmt.Fprintln(os.Stderr, "nvbench: http:", err)
			}
		}()
		fmt.Fprintf(os.Stderr, "nvbench: serving metrics on http://%s/metrics\n", *httpAddr)
	}

	var err error
	switch {
	case *format == "csv":
		err = runCSV(*experiment, cfg)
	case *format == "json" && *experiment != "all":
		err = fmt.Errorf("experiment %q has no JSON form (-format json writes every measurement of -experiment all)", *experiment)
	case *format == "json":
		err = runJSON(cfg)
	default:
		err = run(*experiment, cfg)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "nvbench:", err)
		os.Exit(1)
	}
}

// runJSON emits the full measurement document, each run carrying its own
// schema-versioned metrics snapshot.
func runJSON(cfg bench.RunConfig) error {
	cfg.Metrics = true
	all, err := bench.RunAll(cfg)
	if err != nil {
		return err
	}
	return bench.WriteJSON(os.Stdout, bench.BuildJSONReport(cfg, all))
}

func run(experiment string, cfg bench.RunConfig) error {
	out := os.Stdout

	needAll := map[string]bool{
		"all": true, "fig11": true, "fig13": true, "fig15": true, "table5": true,
	}
	var all map[string]map[rt.Mode]bench.Measurement
	if needAll[experiment] {
		fmt.Fprintf(out, "running %d-record / %d-operation workloads over %d benchmarks x 4 models...\n\n",
			cfg.Spec.Records, cfg.Spec.Operations, len(bench.Benchmarks))
		var err error
		all, err = bench.RunAll(cfg)
		if err != nil {
			return err
		}
	}

	section := func(f func() error) error {
		if err := f(); err != nil {
			return err
		}
		fmt.Fprintln(out)
		return nil
	}

	switch experiment {
	case "all":
		for _, f := range []func() error{
			func() error { bench.WriteTableII(out); return nil },
			func() error { bench.WriteTableIII(out); return nil },
			func() error { bench.WriteFig11(out, bench.Fig11(all)); return nil },
			func() error { bench.WriteFig13(out, bench.Fig13(all)); return nil },
			func() error { bench.WriteTableV(out, bench.TableV(all)); return nil },
			func() error { return fig14(out, cfg) },
			func() error { bench.WriteFig15(out, bench.Fig15(all)); return nil },
			func() error { return knnStudy(out) },
			func() error { return inference(out) },
			func() error { bench.WriteSoundness(out, bench.RunSoundness()); return nil },
			func() error { return bench.WriteAblations(out, cfg.Spec) },
		} {
			if err := section(f); err != nil {
				return err
			}
		}
		return nil
	case "fig11":
		bench.WriteFig11(out, bench.Fig11(all))
	case "fig13":
		bench.WriteFig13(out, bench.Fig13(all))
	case "fig14":
		return fig14(out, cfg)
	case "fig15":
		bench.WriteFig15(out, bench.Fig15(all))
	case "table2":
		bench.WriteTableII(out)
	case "table3":
		bench.WriteTableIII(out)
	case "table5":
		bench.WriteTableV(out, bench.TableV(all))
	case "knn":
		return knnStudy(out)
	case "inference":
		return inference(out)
	case "soundness":
		bench.WriteSoundness(out, bench.RunSoundness())
	case "ablations":
		return bench.WriteAblations(out, cfg.Spec)
	case "scaling":
		points, err := bench.RunScaleSweep([]int{1000, 5000, 10000, 25000, 50000})
		if err != nil {
			return err
		}
		bench.WriteScaleSweep(out, points)
	case "mixes":
		points, err := bench.RunWorkloadMixes(cfg.Spec.Records, cfg.Spec.Operations)
		if err != nil {
			return err
		}
		bench.WriteWorkloadMixes(out, points)
	default:
		return fmt.Errorf("unknown experiment %q", experiment)
	}
	return nil
}

func fig14(out *os.File, cfg bench.RunConfig) error {
	points, err := bench.Fig14(cfg, []uint64{1, 5, 10, 20, 30, 50})
	if err != nil {
		return err
	}
	bench.WriteFig14(out, points)
	return nil
}

func knnStudy(out *os.File) error {
	cs, err := bench.RunKNNCaseStudy(5)
	if err != nil {
		return err
	}
	bench.WriteKNN(out, cs)
	return nil
}

func inference(out *os.File) error {
	s, err := bench.RunInference()
	if err != nil {
		return err
	}
	bench.WriteInference(out, s)
	return nil
}

// runCSV emits one experiment's data as CSV.
func runCSV(experiment string, cfg bench.RunConfig) error {
	out := os.Stdout
	needAll := map[string]bool{"fig11": true, "fig13": true, "fig15": true, "table5": true}
	var all map[string]map[rt.Mode]bench.Measurement
	if needAll[experiment] {
		var err error
		all, err = bench.RunAll(cfg)
		if err != nil {
			return err
		}
	}
	switch experiment {
	case "fig11":
		return bench.CSVFig11(out, bench.Fig11(all))
	case "fig13":
		return bench.CSVFig13(out, bench.Fig13(all))
	case "fig14":
		points, err := bench.Fig14(cfg, []uint64{1, 5, 10, 20, 30, 50})
		if err != nil {
			return err
		}
		return bench.CSVFig14(out, points)
	case "fig15":
		return bench.CSVFig15(out, bench.Fig15(all))
	case "table5":
		return bench.CSVTableV(out, bench.TableV(all))
	case "knn":
		cs, err := bench.RunKNNCaseStudy(5)
		if err != nil {
			return err
		}
		return bench.CSVKNN(out, cs)
	case "scaling":
		points, err := bench.RunScaleSweep([]int{1000, 5000, 10000, 25000, 50000})
		if err != nil {
			return err
		}
		return bench.CSVScale(out, points)
	}
	return fmt.Errorf("experiment %q has no CSV form", experiment)
}
