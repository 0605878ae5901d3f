package bench

import (
	"strings"
	"testing"
)

// TestResilienceSmoke runs a scaled-down resilience experiment and checks
// the pass criteria the nvbench gate enforces: every injected kill is
// survived by a supervisor restart, no acked write is lost or missing,
// and the post-fault probe phase sees a zero error rate.
func TestResilienceSmoke(t *testing.T) {
	spec := ResilienceSpec{
		LoadSpec: LoadSpec{
			Records:         400,
			Operations:      1500,
			Clients:         2,
			Shards:          2,
			Mode:            ResilienceSpecFor(true).Mode,
			PoolSize:        8 << 20,
			CheckpointEvery: 256,
			NetFaultEvery:   120,
			ProbeOps:        200,
			Seed:            5,
		},
		Kills: 2,
	}
	res, err := RunResilience(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Pass() {
		t.Fatalf("resilience gate failed: %+v", res)
	}
	if res.Kills != spec.Kills {
		t.Errorf("kills = %d, want %d", res.Kills, spec.Kills)
	}
	if res.Restarts < uint64(res.Kills) {
		t.Errorf("restarts = %d, want >= kills %d", res.Restarts, res.Kills)
	}
	if res.LostWrites != 0 || res.MissingKeys != 0 {
		t.Errorf("acked-write loss: lost=%d missing=%d", res.LostWrites, res.MissingKeys)
	}
	if res.ProbeErrors != 0 {
		t.Errorf("probe errors = %d, want 0 (service must return to healthy)", res.ProbeErrors)
	}

	var buf strings.Builder
	res.WriteText(&buf)
	for _, want := range []string{"Resilience", "kills", "acked", "probe"} {
		if !strings.Contains(strings.ToLower(buf.String()), strings.ToLower(want)) {
			t.Errorf("rendered output missing %q:\n%s", want, buf.String())
		}
	}
	var jbuf strings.Builder
	if err := WriteJSON(&jbuf, res); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(jbuf.String(), "\"lost_writes\"") {
		t.Errorf("JSON output missing lost_writes field:\n%s", jbuf.String())
	}
}
