package bench

import "testing"

// TestMediaSmoke runs a scaled-down media experiment end to end and holds
// it to the full acceptance gate: corruption injected under load, repaired
// in place from parity, zero loss, zero client-visible errors, zero
// promotions.
func TestMediaSmoke(t *testing.T) {
	spec := MediaSpecFor(true)
	spec.Records, spec.Operations = 600, 3000
	spec.Cycles = 4
	res, err := RunMedia(spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.OpsFailed != 0 {
		t.Errorf("media faults leaked to clients: %d failed ops", res.OpsFailed)
	}
	if res.LostWrites != 0 || res.MissingKeys != 0 {
		t.Errorf("acked writes lost under media faults: lost=%d missing=%d", res.LostWrites, res.MissingKeys)
	}
	if res.Promotions != 0 {
		t.Errorf("media faults triggered %d promotion(s); repairs must happen in place", res.Promotions)
	}
	if res.PagesRepaired == 0 {
		t.Error("no page was ever reconstructed from parity")
	}
	if got := res.SnapshotCounter("pages_repaired_total"); got <= 0 {
		t.Errorf("pages_repaired_total=%d in the exported metrics, want > 0", got)
	}
	if res.Unrecoverable != 0 {
		t.Errorf("%d rangelet(s) unrecoverable; single-page damage must stay within parity's reach", res.Unrecoverable)
	}
	if !res.Pass() {
		t.Errorf("acceptance gate failed: %+v", res)
	}
}
