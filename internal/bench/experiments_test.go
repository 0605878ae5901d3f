package bench

import (
	"bytes"
	"os"
	"regexp"
	"strings"
	"sync"
	"testing"

	"nvref/internal/rt"
)

// The quick Fig. 11 matrix is deterministic (TestFig11Golden pins every
// counter of it), so the test binary computes it once and every test reads
// the one result.
var (
	quickOnce sync.Once
	quickRes  map[string]map[rt.Mode]Measurement
	quickErr  error
)

// quickAll returns the shared RunAll(QuickRunConfig()) result. Callers must
// not modify it.
func quickAll(t *testing.T) map[string]map[rt.Mode]Measurement {
	t.Helper()
	quickOnce.Do(func() { quickRes, quickErr = RunAll(QuickRunConfig()) })
	if quickErr != nil {
		t.Fatal(quickErr)
	}
	return quickRes
}

func TestFig11Shape(t *testing.T) {
	rows := Fig11(quickAll(t))
	if len(rows) != 6 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.HW < 1.0 || r.HW > 1.35 {
			t.Errorf("%s: HW = %.2fx outside [1.0, 1.35]", r.Benchmark, r.HW)
		}
		if r.Explicit <= r.HW {
			t.Errorf("%s: Explicit (%.2fx) not slower than HW (%.2fx)", r.Benchmark, r.Explicit, r.HW)
		}
		if r.SW <= r.Explicit {
			t.Errorf("%s: SW (%.2fx) not slower than Explicit (%.2fx)", r.Benchmark, r.SW, r.Explicit)
		}
	}
	gm := GeoMeanSpeedupHWOverExplicit(rows)
	if gm < 1.1 || gm > 2.5 {
		t.Errorf("geomean HW/Explicit speedup = %.2fx; paper reports 1.33x", gm)
	}
}

func TestFig13Shape(t *testing.T) {
	rows := Fig13(quickAll(t))
	for _, r := range rows {
		if r.SW <= r.HW {
			t.Errorf("%s: SW mispredictions (%.1fx) not above HW (%.1fx)", r.Benchmark, r.SW, r.HW)
		}
		if r.HW > 1.05 {
			t.Errorf("%s: HW mispredictions %.2fx above Volatile; should be ~1", r.Benchmark, r.HW)
		}
	}
}

func TestTableVShape(t *testing.T) {
	rows := TableV(quickAll(t))
	for _, r := range rows {
		if r.DynamicChecks == 0 {
			t.Errorf("%s: no dynamic checks recorded", r.Benchmark)
		}
		if r.DynamicChecks < r.AbsToRel+r.RelToAbs {
			t.Errorf("%s: conversions (%d+%d) exceed checks (%d)",
				r.Benchmark, r.AbsToRel, r.RelToAbs, r.DynamicChecks)
		}
	}
}

func TestFig14Flat(t *testing.T) {
	cfg := QuickRunConfig()
	points, err := Fig14(cfg, []uint64{1, 50})
	if err != nil {
		t.Fatal(err)
	}
	// Group into per-benchmark (lat1, lat50) pairs and bound the growth:
	// the paper reports < 10% increase even at 50 cycles.
	byBench := map[string][]Fig14Point{}
	for _, p := range points {
		byBench[p.Benchmark] = append(byBench[p.Benchmark], p)
	}
	for b, ps := range byBench {
		if len(ps) != 2 {
			t.Fatalf("%s: %d points", b, len(ps))
		}
		growth := ps[1].Normalized / ps[0].Normalized
		if growth > 1.10 {
			t.Errorf("%s: 50-cycle VALB grew time by %.1f%%; paper reports <10%%", b, 100*(growth-1))
		}
		if ps[0].Normalized >= 1.0 {
			t.Errorf("%s: HW (%.3f) not below Explicit at 1-cycle VALB", b, ps[0].Normalized)
		}
	}
}

func TestFig15Shape(t *testing.T) {
	rows := Fig15(quickAll(t))
	for _, r := range rows {
		if r.Benchmark == "LL" {
			if r.StorePFrac != 0 {
				t.Errorf("LL iteration phase executed storeP: %.4f", r.StorePFrac)
			}
			continue
		}
		if r.StorePFrac <= 0 {
			t.Errorf("%s: no storeP traffic", r.Benchmark)
		}
		if r.VALBFrac > r.POLBFrac {
			t.Errorf("%s: VALB traffic (%.4f) above POLB traffic (%.4f); paper reports POLB >> VALB",
				r.Benchmark, r.VALBFrac, r.POLBFrac)
		}
	}
}

func TestTableIIMatchesPaper(t *testing.T) {
	c := TableII()
	if c.TotalBytes() != 1280 {
		t.Errorf("total bytes = %d, want 1280", c.TotalBytes())
	}
}

func TestTableIIIComplete(t *testing.T) {
	rows := TableIII()
	if len(rows) != 6 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Lines == 0 {
			t.Errorf("%s: zero lines for %s", r.Benchmark, r.File)
		}
	}
}

func TestKNNCaseStudy(t *testing.T) {
	cs, err := RunKNNCaseStudy(5)
	if err != nil {
		t.Fatal(err)
	}
	if len(cs.Rows) != 4 {
		t.Fatalf("rows = %d", len(cs.Rows))
	}
	for _, r := range cs.Rows {
		if r.Accuracy != cs.Rows[0].Accuracy {
			t.Errorf("%s accuracy %.3f differs from Volatile %.3f", r.Mode, r.Accuracy, cs.Rows[0].Accuracy)
		}
	}
	var hwNorm, swNorm float64
	for _, r := range cs.Rows {
		switch r.Mode {
		case rt.HW:
			hwNorm = r.Normalized
		case rt.SW:
			swNorm = r.Normalized
		}
	}
	if hwNorm > 1.15 {
		t.Errorf("HW normalized = %.3f; case study reports marginal overhead", hwNorm)
	}
	if swNorm < 1.5 {
		t.Errorf("SW normalized = %.3f; case study reports a large slowdown", swNorm)
	}
	if cs.TransparentLoC >= cs.ExplicitLoC {
		t.Error("transparent approach should change far fewer lines than explicit")
	}
}

// TestExplicitSiteCountInSync recounts the matrix/knn access sites the
// explicit model would rewrite and pins the constant.
func TestExplicitSiteCountInSync(t *testing.T) {
	matSites := regexp.MustCompile(`ctx\.(LoadWord|StoreWord|LoadPtr|StorePtr)\(`)
	knnCalls := regexp.MustCompile(`\.(AtData|SetData|Data|At|Set|Fill|Col)\(`)
	count := 0
	mat, err := os.ReadFile("../matrix/matrix.go")
	if err != nil {
		t.Fatal(err)
	}
	count += len(matSites.FindAll(mat, -1))
	kn, err := os.ReadFile("../knn/knn.go")
	if err != nil {
		t.Fatal(err)
	}
	count += len(knnCalls.FindAll(kn, -1))
	if count != explicitSiteCount {
		t.Errorf("explicitSiteCount = %d, but sources contain %d access sites; update the constant",
			explicitSiteCount, count)
	}
}

func TestRunInference(t *testing.T) {
	s, err := RunInference()
	if err != nil {
		t.Fatal(err)
	}
	if s.Programs == 0 || s.PtrSites == 0 {
		t.Fatalf("stats = %+v", s)
	}
	if s.Fraction <= 0 || s.Fraction >= 1 {
		t.Errorf("checked fraction = %.3f; expected partial elimination (paper: ~0.42)", s.Fraction)
	}
}

func TestRunSoundness(t *testing.T) {
	r := RunSoundness()
	if r.Passed != r.Programs {
		t.Errorf("soundness: %d/%d passed; failures: %v", r.Passed, r.Programs, r.Failures)
	}
}

func TestWriters(t *testing.T) {
	all := quickAll(t)
	var buf bytes.Buffer
	WriteFig11(&buf, Fig11(all))
	WriteFig13(&buf, Fig13(all))
	WriteTableV(&buf, TableV(all))
	WriteFig15(&buf, Fig15(all))
	WriteTableII(&buf)
	WriteTableIII(&buf)
	points, err := Fig14(QuickRunConfig(), []uint64{1})
	if err != nil {
		t.Fatal(err)
	}
	WriteFig14(&buf, points)
	cs, err := RunKNNCaseStudy(5)
	if err != nil {
		t.Fatal(err)
	}
	WriteKNN(&buf, cs)
	inf, err := RunInference()
	if err != nil {
		t.Fatal(err)
	}
	WriteInference(&buf, inf)
	WriteSoundness(&buf, SoundnessReport{Programs: 2, Passed: 1, Failures: []string{"x: boom"}})
	sweep, err := RunScaleSweep([]int{300})
	if err != nil {
		t.Fatal(err)
	}
	WriteScaleSweep(&buf, sweep)

	out := buf.String()
	for _, want := range []string{
		"Figure 11", "Figure 13", "Table V", "Figure 14", "Figure 15",
		"Table II", "Table III", "geometric-mean", "KNN case study",
		"inference", "soundness sweep", "FAILED: x: boom", "Scale sweep",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
	if cfg := PaperRunConfig(); cfg.Spec.Records != 10000 || cfg.Spec.Operations != 100000 {
		t.Errorf("PaperRunConfig = %+v", cfg.Spec)
	}
}

func TestRunUnknownBenchmark(t *testing.T) {
	if _, err := Run("nope", rt.HW, QuickRunConfig()); err == nil {
		t.Error("unknown benchmark accepted")
	}
}
