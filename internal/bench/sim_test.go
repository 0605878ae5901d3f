package bench

import (
	"bytes"
	"strings"
	"testing"
)

func TestRunSimQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("sim experiment in -short mode")
	}
	spec := SimSpecFor(true)
	spec.HistoryDir = t.TempDir()
	res, err := RunSim(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Pass() {
		var buf bytes.Buffer
		res.WriteText(&buf)
		t.Fatalf("sim experiment failed:\n%s", buf.String())
	}
	if res.SweepRuns != len(spec.Schedules)*len(spec.Seeds) {
		t.Fatalf("sweep runs = %d, want %d", res.SweepRuns, len(spec.Schedules)*len(spec.Seeds))
	}
	if res.OpsTotal == 0 {
		t.Fatal("no client operations counted")
	}
	for _, run := range res.Sweep {
		if run.HistoryPath == "" {
			t.Fatalf("%s seed %d: no history written", run.Schedule, run.Seed)
		}
	}

	var buf bytes.Buffer
	res.WriteText(&buf)
	out := buf.String()
	for _, want := range []string{"determinism:", "fence gate:", "nemesis sweep:", "PASS"} {
		if !strings.Contains(out, want) {
			t.Fatalf("text report missing %q:\n%s", want, out)
		}
	}
	buf.Reset()
	if err := WriteJSON(&buf, res); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "\"determinism_ok\": true") {
		t.Fatalf("json report missing determinism flag:\n%s", buf.String())
	}
}
