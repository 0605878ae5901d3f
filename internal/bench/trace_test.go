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
// with a promotion trigger plus spans. The disabled-path leg is counted,
// not timed, so it runs here too: plane attached and nothing sampled must
// cost the allocations and wire bytes of no plane at all, and zero
// recorder calls.
func TestTraceSmoke(t *testing.T) {
	res, err := RunTrace(TraceSpecFor(true))
	if err != nil {
		t.Fatal(err)
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

	if res.Disabled.RecorderCalls != 0 {
		t.Errorf("unsampled requests reached the span recorder %d times", res.Disabled.RecorderCalls)
	}
	if res.Bare.WireBytes == 0 || res.Disabled.WireBytes != res.Bare.WireBytes {
		t.Errorf("wire bytes: %d with the plane attached, %d without", res.Disabled.WireBytes, res.Bare.WireBytes)
	}
	if res.Bare.AllocsPerPair == 0 || res.Disabled.AllocsPerPair != res.Bare.AllocsPerPair {
		t.Errorf("allocs per PUT+GET pair: %v with the plane attached, %v without", res.Disabled.AllocsPerPair, res.Bare.AllocsPerPair)
	}

	var buf strings.Builder
	res.WriteText(&buf)
	for _, want := range []string{"trace", "echo", "disabled path"} {
		if !strings.Contains(strings.ToLower(buf.String()), want) {
			t.Errorf("report missing %q:\n%s", want, buf.String())
		}
	}
}
