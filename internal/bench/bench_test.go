package bench

import (
	"bytes"
	"encoding/json"
	"testing"

	"nvref/internal/rt"
)

func tinyConfig() RunConfig {
	cfg := QuickRunConfig()
	cfg.LLNodes = 200
	cfg.LLIters = 2
	return cfg
}

func TestMeasurementCarriesMetricsSnapshot(t *testing.T) {
	cfg := tinyConfig()
	cfg.Metrics = true
	m, err := Run("LL", rt.HW, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if m.Metrics == nil {
		t.Fatal("Metrics snapshot absent with cfg.Metrics set")
	}
	if m.Metrics.Value("rt_pointer_loads_total") == 0 {
		t.Error("snapshot counters empty")
	}

	all := map[string]map[rt.Mode]Measurement{"LL": {rt.HW: m}}
	rep := BuildJSONReport(cfg, all)
	if rep.Schema != ResultSchemaVersion || rep.MetricsSchema == 0 {
		t.Errorf("schema fields wrong: %+v", rep)
	}
	if len(rep.Measurements) != 1 || rep.Measurements[0].Metrics == nil {
		t.Fatal("JSON report dropped the measurement or its snapshot")
	}

	var buf bytes.Buffer
	if err := WriteJSON(&buf, rep); err != nil {
		t.Fatal(err)
	}
	var back JSONReport
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if back.Measurements[0].Cycles != m.Cycles {
		t.Error("cycles did not round-trip")
	}
	if back.Measurements[0].Metrics.Schema != rep.MetricsSchema {
		t.Error("embedded snapshot schema did not round-trip")
	}
}

func TestObserveHookRuns(t *testing.T) {
	cfg := tinyConfig()
	seen := 0
	cfg.Observe = func(c *rt.Context) { seen++ }
	if _, err := Run("LL", rt.Volatile, cfg); err != nil {
		t.Fatal(err)
	}
	if seen != 1 {
		t.Errorf("Observe ran %d times, want 1", seen)
	}
}
