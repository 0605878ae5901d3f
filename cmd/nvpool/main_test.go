package main

import (
	"path/filepath"
	"strings"
	"testing"

	"nvref/internal/obs"
	"nvref/internal/pmem"
	"nvref/internal/repl"
)

// TestOplogStatsDiscovery: a shard directory whose oplog/ store holds two
// segmented logs and one truncated log in a single tail image reports
// exactly three logs, each with its whole retained window, however many
// images it spans.
func TestOplogStatsDiscovery(t *testing.T) {
	dir := t.TempDir()
	store, err := pmem.NewDirStore(filepath.Join(dir, "oplog"))
	if err != nil {
		t.Fatal(err)
	}
	for name, n := range map[string]int{"oplog-0": 3*repl.SegmentRecords + 7, "oplog-1": repl.SegmentRecords} {
		l, err := repl.OpenLog(store, name, 0)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			l.Append(repl.RecPut, uint64(i), uint64(i))
		}
		if err := l.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	// Records 10..12 in the tail alone: 1..9 truncated away.
	l, err := repl.OpenLog(store, "oplog-2", 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(1); i <= 12; i++ {
		l.Append(repl.RecPut, i, i)
	}
	if err := l.TruncateThrough(9); err != nil {
		t.Fatal(err)
	}
	if images, _ := store.List(); len(images) != 4+2+1 {
		t.Fatalf("store holds %v; want oplog-0 in 4 images, oplog-1 in 2, oplog-2 in 1", images)
	}

	metrics := obs.NewRegistry()
	registerOplogStats(metrics, dir)
	snap := metrics.Snapshot()
	logs := 0
	for _, s := range snap.Series {
		if strings.HasSuffix(s.Name, "_last_seq") {
			logs++
		}
	}
	if logs != 3 {
		t.Fatalf("stats report %d logs, want 3: %v", logs, metrics.Names())
	}
	for name, want := range map[string]int64{
		"oplog_oplog-0_records":  3*repl.SegmentRecords + 7,
		"oplog_oplog-0_base_seq": 1,
		"oplog_oplog-0_segments": 4,
		"oplog_oplog-1_last_seq": repl.SegmentRecords,
		"oplog_oplog-1_segments": 2, // sealed exactly; the tail image is the log's empty next one
		"oplog_oplog-2_records":  3,
		"oplog_oplog-2_base_seq": 10,
		"oplog_oplog-2_last_seq": 12,
	} {
		if s, ok := snap.Find(name); !ok || s.Value != want {
			t.Errorf("%s = %d (present %v), want %d", name, s.Value, ok, want)
		}
	}
}
