package bench

import (
	"io"
	"testing"
)

// TestClusterSmoke runs the cluster experiment at reduced size: a node
// joins mid-stream under load over a flaky network, at least one slot
// migrates live, and the acceptance gates hold.
func TestClusterSmoke(t *testing.T) {
	spec := ClusterSpecFor(true)
	spec.Records, spec.Operations = 600, 4000
	res, err := RunCluster(spec)
	if err != nil {
		t.Fatalf("RunCluster: %v", err)
	}
	res.WriteText(io.Discard)
	if res.SlotsMigrated < 1 {
		t.Errorf("slots migrated = %d, want >= 1", res.SlotsMigrated)
	}
	if res.StaleEpochWrites != 0 {
		t.Errorf("stale-epoch writes = %d, want 0", res.StaleEpochWrites)
	}
	if res.LostWrites != 0 || res.MissingKeys != 0 {
		t.Errorf("lost=%d missing=%d, want 0/0", res.LostWrites, res.MissingKeys)
	}
	if !res.Pass() {
		t.Errorf("cluster experiment gates failed: %+v", res)
	}
}
