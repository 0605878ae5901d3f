package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"

	"nvref/internal/bench"
	"nvref/internal/rt"
)

func TestPercentile(t *testing.T) {
	seq := func(n int) []int64 {
		s := make([]int64, n)
		for i := range s {
			s[i] = int64(i + 1)
		}
		return s
	}
	cases := []struct {
		name string
		in   []int64
		p    float64
		want int64
		ok   bool
	}{
		{"empty", nil, 50, 0, false},
		{"p out of range low", seq(100), 0, 0, false},
		{"p out of range high", seq(100), 100, 0, false},
		{"median of 21 has 10 beyond", seq(21), 50, 11, true},
		{"median of 20 has 10 beyond", seq(20), 50, 10, true},
		{"median of 19 has 9 beyond", seq(19), 50, 0, false},
		{"p99 of 1000 has exactly 10 beyond", seq(1000), 99, 990, true},
		{"p99 of 999 has 9 beyond", seq(999), 99, 0, false},
		{"p99 of 100000", seq(100000), 99, 99000, true},
	}
	for _, c := range cases {
		got, ok := percentile(c.in, c.p)
		if got != c.want || ok != c.ok {
			t.Errorf("%s: percentile = (%d, %v), want (%d, %v)", c.name, got, ok, c.want, c.ok)
		}
	}
}

// The quartiles must be Python's statistics.quantiles(xs, n=4): the values
// below are what CPython 3 prints for these inputs.
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		in     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{10, 3, 7, 1, 9, 4, 8}, 3, 9},
		{[]float64{5, 5, 5, 5}, 5, 5},
	}
	for _, c := range cases {
		q1, q3, ok := quartiles(c.in)
		if !ok || math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = (%g, %g, %v), want (%g, %g)", c.in, q1, q3, ok, c.q1, c.q3)
		}
	}
	if _, _, ok := quartiles([]float64{1}); ok {
		t.Error("quartiles of one value must be refused")
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %g, want 2.5", m)
	}
}

func TestSameSeedSameKeyStream(t *testing.T) {
	draw := func(seed int64, id int) (keys []uint64, puts []bool) {
		s := newOpStream(id, pinnedConfig, workloads[2], seed)
		for i := 0; i < 5000; i++ {
			k, p := s.nextOp()
			if p && !s.owns(k) {
				t.Fatalf("client %d was handed a PUT to key %d, which it does not own", id, k)
			}
			if k >= uint64(pinnedConfig.Records) {
				t.Fatalf("key %d outside the %d records", k, pinnedConfig.Records)
			}
			keys, puts = append(keys, k), append(puts, p)
		}
		return keys, puts
	}
	k1, p1 := draw(7, 0)
	k2, p2 := draw(7, 0)
	if !reflect.DeepEqual(k1, k2) || !reflect.DeepEqual(p1, p2) {
		t.Error("the same seed and client gave different streams")
	}
	if k3, _ := draw(8, 0); reflect.DeepEqual(k1, k3) {
		t.Error("different seeds gave the same stream")
	}
	if k4, _ := draw(7, 1); reflect.DeepEqual(k1, k4) {
		t.Error("two clients of one seed gave the same stream")
	}
}

// Every pinned field and every workload parameter is part of the
// fingerprint: bump each in turn and the hash must move.
func TestFingerprintCoversEveryField(t *testing.T) {
	base := fingerprint(pinnedConfig, workloads[0])
	bump := func(v reflect.Value) {
		switch v.Kind() {
		case reflect.Int, reflect.Int64:
			v.SetInt(v.Int() + 1)
		case reflect.Uint64:
			v.SetUint(v.Uint() + 1)
		case reflect.Float64:
			v.SetFloat(v.Float() + 0.01)
		case reflect.String:
			v.SetString(v.String() + "x")
		case reflect.Bool:
			v.SetBool(!v.Bool())
		default:
			t.Fatalf("field kind %s is not covered by this test", v.Kind())
		}
	}
	p := pinnedConfig
	for i := 0; i < reflect.TypeOf(p).NumField(); i++ {
		q := p
		bump(reflect.ValueOf(&q).Elem().Field(i))
		if fingerprint(q, workloads[0]) == base {
			t.Errorf("changing pinned.%s left the fingerprint unchanged", reflect.TypeOf(p).Field(i).Name)
		}
	}
	for i := 0; i < reflect.TypeOf(workloads[0]).NumField(); i++ {
		f := reflect.TypeOf(workloads[0]).Field(i)
		if f.Name == "Why" {
			continue // prose, not configuration
		}
		w := workloads[0]
		bump(reflect.ValueOf(&w).Elem().Field(i))
		if fingerprint(pinnedConfig, w) == base {
			t.Errorf("changing workload.%s left the fingerprint unchanged", f.Name)
		}
	}
	if fingerprint(quickConfig(), workloads[0]) == base {
		t.Error("the -quick configuration shares the pinned fingerprint")
	}
	seen := map[string]string{}
	for _, w := range workloads {
		fp := fingerprint(pinnedConfig, w)
		if other, dup := seen[fp]; dup {
			t.Errorf("%s and %s share a fingerprint", w.Name, other)
		}
		seen[fp] = w.Name
	}
}

// A timed window is cut into sliceLen long slices behind the timed warm-up; a
// counted one measures whole checkpoint periods, at least minCountedSlices
// of them, whatever -seconds says, and its clock ends each phase on an exact
// operation count.
func TestWindowPhases(t *testing.T) {
	o := runOpts{p: pinnedConfig, seconds: 16 * time.Second, warmup: time.Second}
	timed, _ := workloadByName("serve_read")
	ph := windowPhases(timed, o, 0)
	if len(ph) != int(o.seconds/sliceLen)+1 || ph[0].record || ph[0].dur != time.Second || newOpClock(ph) != nil {
		t.Fatalf("timed window: %+v", ph)
	}
	for _, p := range ph[1:] {
		if !p.record || p.dur != sliceLen || p.ops != 0 {
			t.Errorf("timed slice: %+v", p)
		}
	}

	counted, _ := workloadByName("serve_write_durable")
	period := counted.periodOps(o.p)
	if puts := float64(period) * (1 - counted.ReadFrac); math.Abs(puts-float64(o.p.Shards*o.p.CheckpointEvery)) > 1 {
		t.Errorf("a period of %d operations holds %.1f PUTs, want one checkpoint interval per shard", period, puts)
	}
	for _, c := range []struct {
		seconds time.Duration
		parts   int
		slices  int
	}{{16 * time.Second, 0, 4}, {time.Second, 0, minCountedSlices}, {16 * time.Second, 2, 2}} {
		o.seconds = c.seconds
		ph := windowPhases(counted, o, c.parts)
		if len(ph) != c.slices+1 || ph[0].record || ph[0].ops != counted.CountedRate {
			t.Fatalf("counted window at %v: %+v", c.seconds, ph)
		}
		total := 0
		for _, p := range ph[1:] {
			if !p.record || p.dur != 0 {
				t.Errorf("counted slice: %+v", p)
			}
			total += p.ops
		}
		if total%period != 0 || (c.parts == 0 && ph[1].ops != period) {
			t.Errorf("counted window at %v measures %d operations, not whole periods of %d", c.seconds, total, period)
		}
		clock := newOpClock(ph)
		if clock == nil || clock.cum[len(clock.cum)-1] != int64(total+ph[0].ops) {
			t.Errorf("op clock of %+v: %+v", ph, clock)
		}
	}
}

// benchmarkJSON is BENCHMARK.json at the root of the repository.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// nameRE is the shape BENCHMARK.json demands of every metric name.
var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func TestMetricNamesAndBenchmarkJSON(t *testing.T) {
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !nameRE.MatchString(d.Name) {
			t.Errorf("metric name %q does not match %s", d.Name, nameRE)
		}
		if seen[d.Name] {
			t.Errorf("metric name %q is used twice", d.Name)
		}
		seen[d.Name] = true
		if len(d.Unit) == 0 || len(d.Unit) > 16 {
			t.Errorf("metric %q: unit %q is not 1..16 characters", d.Name, d.Unit)
		}
	}
	if len(perLayer) > 128 || len(endToEnd) > 16 {
		t.Errorf("%d end-to-end and %d per-layer metrics exceed the 16 / 128 caps", len(endToEnd), len(perLayer))
	}

	doc, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(doc))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.Name || spec.Workloads[i].Why != w.Why {
			t.Errorf("BENCHMARK.json workload %d is %+v, the benchmark has %s: %s", i, spec.Workloads[i], w.Name, w.Why)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if len(spec.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the benchmark %d", len(spec.EndToEnd), len(endToEnd))
	}
	hasSetup := false
	for i, d := range endToEnd {
		m := spec.EndToEnd[i]
		if m.Name != d.Name || m.Unit != d.Unit {
			t.Errorf("BENCHMARK.json end_to_end[%d] is %s [%s], the benchmark emits %s [%s]", i, m.Name, m.Unit, d.Name, d.Unit)
		}
		if m.Bound == nil || *m.Bound <= 0 || *m.Bound > 0.25 {
			t.Errorf("%s: bound must be in (0, 0.25]", m.Name)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better is %q", m.Name, m.Better)
		}
		if m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower" {
			hasSetup = true
		}
	}
	if !hasSetup {
		t.Error("BENCHMARK.json lacks the setup_s metric")
	}
	if len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the benchmark %d", len(spec.PerLayer), len(perLayer))
	}
	for i, d := range perLayer {
		m := spec.PerLayer[i]
		if m.Name != d.Name || m.Unit != d.Unit {
			t.Errorf("BENCHMARK.json per_layer[%d] is %s [%s], the benchmark emits %s [%s]", i, m.Name, m.Unit, d.Name, d.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better is %q", m.Name, m.Better)
		}
	}
}

func TestVerdict(t *testing.T) {
	steady := []float64{100, 101, 99, 100, 100.5, 99.5}
	cases := []struct {
		name         string
		a, b         []float64
		higherBetter bool
		bound        float64
		want         string
	}{
		{"same", steady, steady, false, 0.10, "ok"},
		{"lower-is-better got 20% higher", steady, scale(steady, 1.2), false, 0.10, "worse"},
		{"lower-is-better got 20% lower", steady, scale(steady, 0.8), false, 0.10, "ok"},
		{"higher-is-better got 20% lower", steady, scale(steady, 0.8), true, 0.10, "worse"},
		{"within the bound", steady, scale(steady, 1.05), false, 0.10, "ok"},
		{"noisy side hides a change", []float64{60, 100, 140, 80, 120}, scale(steady, 1.05), false, 0.10, "unresolved"},
		{"noisy but every run better", []float64{60, 100, 140, 80, 120}, scale(steady, 0.5), false, 0.10, "ok"},
	}
	for _, c := range cases {
		if got, _ := verdict(c.a, c.b, c.higherBetter, c.bound); got != c.want {
			t.Errorf("%s: verdict = %s, want %s", c.name, got, c.want)
		}
	}
}

func scale(xs []float64, f float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * f
	}
	return out
}

func TestEmbeddedSimCountsRepeat(t *testing.T) {
	cfg := embeddedConfig(true, 3)
	a, _, err := embeddedPass(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := embeddedPass(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !a.repeats(b) {
		t.Error("two embedded_paper passes over the same inputs disagree on a simulated count")
	}
	other, _, err := embeddedPass(embeddedConfig(true, 4), nil)
	if err != nil {
		t.Fatal(err)
	}
	if a.repeats(other) {
		t.Error("a different seed produced identical simulated counts: the seed is not reaching the workload")
	}
}

// At the paper's own seed the Fig. 11 leg must print the table
// EXPERIMENTS.md commits. The tolerance is one unit in the table's last
// printed place plus rounding: at HEAD every cell rounds to the committed
// value except SG under SW, which reads 3.46 against the committed 3.47.
func TestEmbeddedReproducesCommittedFig11(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full Fig. 11 configuration")
	}
	sim, _, err := embeddedPass(embeddedConfig(false, 1), nil)
	if err != nil {
		t.Fatal(err)
	}
	for name, row := range fig11Committed {
		for mode, want := range row {
			got := float64(sim.Cells[name][mode].Cycles) / float64(sim.Cells[name][rt.Volatile].Cycles)
			if math.Abs(got-want) > 0.015 {
				t.Errorf("%s %s: overhead %.4f, committed %.2f", name, mode, got, want)
			}
		}
	}
	if len(fig11Committed) != len(bench.Benchmarks) {
		t.Errorf("committed table has %d rows, the suite %d containers", len(fig11Committed), len(bench.Benchmarks))
	}
}

// The -quick smoke: every workload's untraced leg and the traced legs at
// tiny scale (serve_read's traced leg adds nothing serve_repl_pair's does
// not cover), then -compare of the result file against itself.
func TestQuickSmoke(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "runs.jsonl")
	o := runOpts{
		p: quickConfig(), quick: true, seed: 5,
		seconds: 700 * time.Millisecond, warmup: 100 * time.Millisecond,
		setupReps: 1, tmpRoot: dir, spansOut: filepath.Join(dir, "spans.jsonl"),
	}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			if traced && w.Name == "serve_read" {
				continue
			}
			o.trace = traced
			t0 := time.Now()
			res, err := runLeg(w, o)
			t.Logf("%s trace=%v took %v", w.Name, traced, time.Since(t0).Round(time.Millisecond))
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d notes=%v",
					w.Name, traced, res.Correct, res.Attempted, res.Failed, res.Notes)
			}
			want := endToEnd
			if traced {
				want = perLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w.Name, traced, len(res.Metrics), len(want))
			}
			for _, d := range want {
				m, ok := res.Metrics[d.Name]
				if !ok || m.Unit != d.Unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s trace=%v: metric %s = %+v (present %v)", w.Name, traced, d.Name, m, ok)
				}
				if !traced && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %g, must be positive", w.Name, d.Name, m.Value)
				}
			}
			if traced && !w.Embedded {
				sum := res.Metrics["server.stage.unattributed.share"].Value
				for _, s := range stages {
					sum += res.Metrics["server.stage."+s+".share"].Value
				}
				if math.Abs(sum-1) > 1e-9 {
					t.Errorf("%s: stage shares sum to %g, want 1", w.Name, sum)
				}
				if res.Metrics["server.stage.execute.share"].Value <= 0 {
					t.Errorf("%s: no execute spans were aggregated", w.Name)
				}
			}
			if err := appendRecord(out, makeRecord(w, o, res)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if fi, err := os.Stat(o.spansOut); err != nil || fi.Size() == 0 {
		t.Errorf("-spans-out wrote nothing: %v", err)
	}

	var table bytes.Buffer
	worse, err := runCompare(&table, filepath.Join("..", "BENCHMARK.json"), out, out)
	if err != nil || worse {
		t.Errorf("a result file compared with itself: worse=%v err=%v\n%s", worse, err, table.String())
	}
	for _, w := range workloads {
		if !strings.Contains(table.String(), w.Name) {
			t.Errorf("-compare table lacks %s:\n%s", w.Name, table.String())
		}
	}

	// A result at another fingerprint is refused, not compared.
	recs, err := readRecords(out)
	if err != nil {
		t.Fatal(err)
	}
	other := filepath.Join(dir, "other.jsonl")
	for _, r := range recs {
		r.Fingerprint = fingerprint(pinnedConfig, workloads[0])
		if err := appendRecord(other, r); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := runCompare(&table, filepath.Join("..", "BENCHMARK.json"), out, other); err == nil || !strings.Contains(err.Error(), "fingerprints differ") {
		t.Errorf("comparing different fingerprints: err = %v, want a refusal", err)
	}
}
