package bench

import (
	"strings"
	"testing"
)

// TestTraceSmoke runs a scaled-down trace experiment and checks the pass
// criteria the nvbench gate enforces: every traced request's echo comes
// back (including each batch sub-reply), each traced op's stage chain is
// ordered and fits the measured end-to-end latency, all stages of the vocabulary are
// observed, and killing the primary freezes the replica's flight recorder
// with a promotion trigger plus spans. The overhead timing phase is
// skipped — wall-clock gates are meaningless under the race detector.
func TestTraceSmoke(t *testing.T) {
	spec := TraceSpecFor(true)
	spec.OverheadReps = 0
	res, err := RunTrace(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !res.OverheadSkipped {
		t.Error("OverheadReps=0 did not skip the overhead phase")
	}
	if !res.Pass() {
		t.Fatalf("trace gate failed: %+v", res)
	}
	if res.EchoMissing != 0 || res.BatchSubEchoMissing != 0 {
		t.Errorf("lost echoes: %d requests, %d batch subs", res.EchoMissing, res.BatchSubEchoMissing)
	}
	if res.SumViolations != 0 {
		t.Errorf("%d traces whose stage chain is out of order or exceeds their e2e latency", res.SumViolations)
	}
	if len(res.MissingStages) != 0 {
		t.Errorf("stages never observed: %v", res.MissingStages)
	}
	if res.Promotions != 1 || !res.DumpHasPromotion {
		t.Errorf("failover: promotions=%d dumpHasPromotion=%v", res.Promotions, res.DumpHasPromotion)
	}
	if res.DumpSpans == 0 || res.DumpWideEvents == 0 {
		t.Errorf("flight dump empty: %d wide, %d spans", res.DumpWideEvents, res.DumpSpans)
	}

	var buf strings.Builder
	res.WriteText(&buf)
	for _, want := range []string{"trace", "echo", "overhead"} {
		if !strings.Contains(strings.ToLower(buf.String()), want) {
			t.Errorf("report missing %q:\n%s", want, buf.String())
		}
	}
}
