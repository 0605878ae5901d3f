package bench

import (
	"strings"
	"testing"
	"time"
)

// TestReplicationSmoke runs a scaled-down replication experiment and
// checks the pass criteria the nvbench gate enforces: replication lag
// drains to zero in place, the primary's semi-synchronous ack discipline
// holds (zero degraded, zero timed-out acks), killing the primary
// mid-stream promotes the replica exactly once, and no acknowledged write
// is lost across the failover.
func TestReplicationSmoke(t *testing.T) {
	spec := ReplicationSpec{
		LoadSpec: LoadSpec{
			Records:         400,
			Operations:      3000,
			Clients:         2,
			Shards:          2,
			Mode:            ReplicationSpecFor(true).Mode,
			PoolSize:        8 << 20,
			CheckpointEvery: 512,
			NetFaultEvery:   200,
			ProbeOps:        200,
			Seed:            5,
		},
		KillAfterFrac: 0.4,
		PromoteAfter:  100 * time.Millisecond,
	}
	res, err := RunReplication(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Pass() {
		t.Fatalf("replication gate failed: %+v", res)
	}
	if res.Promotions != 1 {
		t.Errorf("promotions = %d, want 1", res.Promotions)
	}
	if !res.LagDrained {
		t.Error("lag never drained to zero")
	}
	if res.DegradedAcks != 0 || res.TimeoutAcks != 0 {
		t.Errorf("ack discipline: degraded=%d timeout=%d", res.DegradedAcks, res.TimeoutAcks)
	}
	if res.LostWrites != 0 || res.MissingKeys != 0 {
		t.Errorf("acked-write loss: lost=%d missing=%d", res.LostWrites, res.MissingKeys)
	}
	if res.Applies == 0 || res.Pulls == 0 {
		t.Errorf("replica did no replication work: pulls=%d applies=%d", res.Pulls, res.Applies)
	}
	if res.Metrics == nil {
		t.Error("result is missing the metrics snapshot")
	} else {
		var sawPromotions bool
		for _, s := range res.Metrics.Series {
			if strings.Contains(s.Name, "promotions") {
				sawPromotions = true
			}
		}
		if !sawPromotions {
			t.Error("metrics snapshot has no promotion series")
		}
	}

	var buf strings.Builder
	res.WriteText(&buf)
	for _, want := range []string{"replication", "lag", "promotion", "acked"} {
		if !strings.Contains(strings.ToLower(buf.String()), want) {
			t.Errorf("rendered output missing %q:\n%s", want, buf.String())
		}
	}
	var jbuf strings.Builder
	if err := WriteJSON(&jbuf, res); err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{"\"lost_writes\"", "\"max_lag_records\"", "\"degraded_acks\""} {
		if !strings.Contains(jbuf.String(), field) {
			t.Errorf("JSON output missing %s", field)
		}
	}
}
