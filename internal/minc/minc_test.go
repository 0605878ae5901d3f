package minc

import (
	"errors"
	"strings"
	"testing"

	"nvref/internal/obs"
	"nvref/internal/rt"
)

func mustRun(t *testing.T, src string, mode rt.Mode) RunResult {
	t.Helper()
	res, _, err := RunSource(src, mode)
	if err != nil {
		t.Fatalf("run failed: %v", err)
	}
	return res
}

func TestLexBasics(t *testing.T) {
	toks, err := Lex(`int main() { return 0x10 + 'a'; } // comment`)
	if err != nil {
		t.Fatal(err)
	}
	var texts []string
	for _, tok := range toks {
		if tok.Kind != TokEOF {
			texts = append(texts, tok.Text)
		}
	}
	joined := strings.Join(texts, " ")
	if !strings.Contains(joined, "0x10") || !strings.Contains(joined, "'a'") {
		t.Errorf("tokens = %s", joined)
	}
	// Number values.
	for _, tok := range toks {
		if tok.Text == "0x10" && tok.Num != 16 {
			t.Errorf("0x10 lexed as %d", tok.Num)
		}
		if tok.Text == "'a'" && tok.Num != 97 {
			t.Errorf("'a' lexed as %d", tok.Num)
		}
	}
}

func TestLexErrors(t *testing.T) {
	if _, err := Lex("int @"); err == nil {
		t.Error("bad character accepted")
	}
	if _, err := Lex("/* unterminated"); err == nil {
		t.Error("unterminated comment accepted")
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"int main( { return 0; }",
		"int main() { return 0 }",
		"int main() { int; }",
		"struct S { int }; int main() { return 0; }",
		"int main() { x +; }",
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("parsed invalid program: %s", src)
		}
	}
}

func TestCheckErrors(t *testing.T) {
	bad := map[string]string{
		"undefined variable": `int main() { return x; }`,
		"undefined function": `int main() { return f(); }`,
		"no main":            `int f() { return 0; }`,
		"deref non-pointer":  `int main() { int x = 1; return *x; }`,
		"bad member":         `struct S { int a; }; int main() { struct S* s = (struct S*)malloc(8); return s->b; }`,
		"arg count":          `int f(int a) { return a; } int main() { return f(1, 2); }`,
		"void var":           `int main() { void v; return 0; }`,
	}
	for name, src := range bad {
		prog, err := Parse(src)
		if err != nil {
			continue // also acceptable: rejected earlier
		}
		if err := Check(prog); err == nil {
			t.Errorf("%s: invalid program checked OK", name)
		}
	}
}

func TestBasicExecution(t *testing.T) {
	res := mustRun(t, `int main() { return 6 * 7; }`, rt.Volatile)
	if res.Exit != 42 {
		t.Errorf("exit = %d", res.Exit)
	}
}

func TestPrintOutput(t *testing.T) {
	res := mustRun(t, `int main() { print(1); print(2); print(3); return 0; }`, rt.HW)
	if len(res.Output) != 3 || res.Output[0] != 1 || res.Output[2] != 3 {
		t.Errorf("output = %v", res.Output)
	}
}

func TestDivisionByZero(t *testing.T) {
	_, _, err := RunSource(`int main() { int z = 0; return 1 / z; }`, rt.Volatile)
	if !errors.Is(err, ErrDivZero) {
		t.Errorf("err = %v", err)
	}
}

// TestInfiniteLoopFuel: a loop that never ends exhausts the step budget.
// The machine starts a few thousand steps short of it, so the test spends
// milliseconds, not the whole budget.
func TestInfiniteLoopFuel(t *testing.T) {
	prog, _, err := Compile(`int main() { while (1) {} return 0; }`)
	if err != nil {
		t.Fatal(err)
	}
	ctx, err := rt.New(rt.Config{Mode: rt.Volatile})
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMachine(prog, ctx)
	if err != nil {
		t.Fatal(err)
	}
	m.steps = maxSteps - 5000
	if _, err := m.Run(); !errors.Is(err, ErrFuel) {
		t.Fatalf("infinite loop: err = %v, want ErrFuel", err)
	}
}

func TestStackOverflow(t *testing.T) {
	_, _, err := RunSource(`int f(int n) { return f(n + 1); } int main() { return f(0); }`, rt.Volatile)
	if !errors.Is(err, ErrStackDepth) {
		t.Errorf("err = %v", err)
	}
}

// TestCorpusExpectedOutputs verifies programs with known outputs under the
// Volatile model.
func TestCorpusExpectedOutputs(t *testing.T) {
	for _, p := range Corpus() {
		if p.Expect == nil {
			continue
		}
		p := p
		t.Run(p.Name, func(t *testing.T) {
			res := mustRun(t, p.Source, rt.Volatile)
			if len(res.Output) != len(p.Expect) {
				t.Fatalf("output = %v, want %v", res.Output, p.Expect)
			}
			for i := range p.Expect {
				if res.Output[i] != p.Expect[i] {
					t.Fatalf("output[%d] = %d, want %d (full: %v)", i, res.Output[i], p.Expect[i], res.Output)
				}
			}
		})
	}
}

// TestCorpusMetricsEqualLegacyStats: the exported core_* series are the
// legacy counters, not approximations of them. Summed over the whole
// corpus under SW (the model where core.Stats moves most), each series
// equals its core.Stats source, and each moved.
func TestCorpusMetricsEqualLegacyStats(t *testing.T) {
	var obsSum [3]int64
	var legacySum [3]uint64
	names := [3]string{"core_dynamic_checks_total", "core_abs_to_rel_total", "core_rel_to_abs_total"}
	for _, p := range Corpus() {
		prog, _, err := Compile(p.Source)
		if err != nil {
			t.Fatalf("compile %s: %v", p.Name, err)
		}
		_, ctx, err := Run(prog, rt.SW)
		if err != nil {
			t.Fatalf("run %s: %v", p.Name, err)
		}
		reg := obs.NewRegistry()
		ctx.RegisterMetrics(reg)
		snap := reg.Snapshot()
		legacy := [3]uint64{ctx.Env.Stats.DynamicChecks, ctx.Env.Stats.AbsToRel, ctx.Env.Stats.RelToAbs}
		for i, name := range names {
			obsSum[i] += snap.Value(name)
			legacySum[i] += legacy[i]
		}
	}
	for i, name := range names {
		if obsSum[i] != int64(legacySum[i]) {
			t.Errorf("%s = %d, legacy counter %d", name, obsSum[i], legacySum[i])
		}
		if legacySum[i] == 0 {
			t.Errorf("%s never moved over the corpus — check is vacuous", name)
		}
	}
}

// TestCorpusSoundnessAllModes is the Section VII-B reproduction: every
// corpus program produces identical results under all four models.
func TestCorpusSoundnessAllModes(t *testing.T) {
	for _, p := range Corpus() {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			if _, err := VerifyAllModes(p.Source); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestStoredPointersAreRelative verifies the second soundness property:
// pointers held in persistent objects are in relative format throughout.
func TestStoredPointersAreRelative(t *testing.T) {
	src := `
struct Node { long v; struct Node* next; };
int main() {
    struct Node* a = (struct Node*)pmalloc(sizeof(struct Node));
    struct Node* b = (struct Node*)pmalloc(sizeof(struct Node));
    a->next = b;
    b->next = NULL;
    return 0;
}`
	prog, _, err := Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []rt.Mode{rt.SW, rt.HW} {
		ctx, err := rt.New(rt.Config{Mode: mode})
		if err != nil {
			t.Fatal(err)
		}
		m, err := NewMachine(prog, ctx)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.Run(); err != nil {
			t.Fatal(err)
		}
		// Scan the pool heap for stored pointer words: the next field of
		// node a (first allocation) is at pool offset HeapStart+16+8.
		va := ctx.Pool.Base() + 128 + 16 + 8
		raw, err := ctx.AS.Load64(va)
		if err != nil {
			t.Fatal(err)
		}
		if raw>>63 != 1 {
			t.Errorf("%s: pointer stored in NVM has virtual form %#x", mode, raw)
		}
	}
}

func TestInferenceAnchors(t *testing.T) {
	src := `
int main() {
    long* p = (long*)pmalloc(8);
    long* v = (long*)malloc(8);
    *p = 1;
    *v = 2;
    return 0;
}`
	prog, report, err := Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	// Both derefs operate on statically known pointers: no checks remain.
	if report.Checked != 0 {
		t.Errorf("checked sites = %d, want 0 (anchored locals)", report.Checked)
	}
	if report.PtrSites == 0 {
		t.Error("no pointer sites counted")
	}
	_ = prog
}

func TestInferenceUnknownParameters(t *testing.T) {
	// The paper's Figure 9 scenario: library function parameters have
	// unknown properties, so its pointer ops keep their checks.
	src := `
struct Node { long value; struct Node* next; };
void Append(struct Node* p, struct Node* n) {
    if (p != n) p->next = n;
}
int main() {
    struct Node* a = (struct Node*)pmalloc(sizeof(struct Node));
    struct Node* b = (struct Node*)malloc(sizeof(struct Node));
    Append(a, b);
    Append(b, a);
    return 0;
}`
	_, report, err := Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	if report.Checked == 0 {
		t.Error("mixed-provenance parameters produced no residual checks")
	}
	frac := report.CheckedFraction()
	if frac <= 0 || frac > 1 {
		t.Errorf("checked fraction = %f", frac)
	}
}

func TestInferencePropagatesThroughLocals(t *testing.T) {
	src := `
int main() {
    long* p = (long*)pmalloc(8);
    long* q = p;
    long* r = q;
    *r = 5;
    return (int)*r;
}`
	prog, report, err := Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	if report.Checked != 0 {
		t.Errorf("copy chain lost the property: %d residual checks", report.Checked)
	}
	res, _, err := Run(prog, rt.SW)
	if err != nil {
		t.Fatal(err)
	}
	if res.Exit != 5 {
		t.Errorf("exit = %d", res.Exit)
	}
}

// TestSWChecksFollowInference runs the same program twice and confirms the
// SW build executes checks only at residual sites.
func TestSWChecksFollowInference(t *testing.T) {
	anchored := `
int main() {
    long* p = (long*)pmalloc(80);
    int i;
    long s = 0;
    for (i = 0; i < 10; i++) { p[i] = i; }
    for (i = 0; i < 10; i++) { s += p[i]; }
    return (int)s;
}`
	prog, report, err := Compile(anchored)
	if err != nil {
		t.Fatal(err)
	}
	if report.Checked != 0 {
		t.Fatalf("anchored program has %d residual checks", report.Checked)
	}
	_, ctx, err := Run(prog, rt.SW)
	if err != nil {
		t.Fatal(err)
	}
	if ctx.Stats.SWCheckBranches != 0 {
		t.Errorf("SW executed %d checks on a fully inferred program", ctx.Stats.SWCheckBranches)
	}
}

func TestModesDifferInCostNotResult(t *testing.T) {
	src := RegressionTests[1].Source // linked-list-append
	var exits []int64
	var cycles []uint64
	for _, mode := range rt.Modes {
		res, ctx, err := RunSource(src, mode)
		if err != nil {
			t.Fatal(err)
		}
		exits = append(exits, res.Exit)
		cycles = append(cycles, ctx.CPU.Stats.Cycles)
	}
	for i := 1; i < len(exits); i++ {
		if exits[i] != exits[0] {
			t.Errorf("exit codes differ: %v", exits)
		}
	}
	// SW must cost more than Volatile on a pointer workload.
	if cycles[2] <= cycles[0] {
		t.Errorf("SW (%d cycles) not slower than Volatile (%d)", cycles[2], cycles[0])
	}
}
