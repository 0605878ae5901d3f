package harness

import (
	"strings"
	"testing"

	"nvref/internal/repl"
)

// TestEnumerateAllPersistPoints is the tentpole check: every persist point
// the workload reaches, at every occurrence, must recover to a consistent,
// relocatable pool with an atomic word generation.
func TestEnumerateAllPersistPoints(t *testing.T) {
	rep, err := Enumerate()
	if err != nil {
		t.Fatal(err)
	}
	if rep.DistinctPoints() < 10 {
		t.Errorf("workload reached only %d persist points, want >= 10", rep.DistinctPoints())
	}
	var txnPoints, pmemPoints, rollbacks int
	for _, p := range rep.Points {
		if p.Tested != p.Hits {
			t.Errorf("%s: tested %d of %d occurrences", p.Label, p.Tested, p.Hits)
		}
		switch {
		case strings.HasPrefix(p.Label, "txn."):
			txnPoints++
		case strings.HasPrefix(p.Label, "pmem."):
			pmemPoints++
		default:
			t.Errorf("unexpected label namespace: %s", p.Label)
		}
		rollbacks += p.Rollbacks
	}
	if txnPoints == 0 || pmemPoints == 0 {
		t.Errorf("coverage spans %d txn and %d allocator points; want both layers", txnPoints, pmemPoints)
	}
	if rollbacks == 0 {
		t.Error("no crash cycle exercised an undo-log rollback")
	}
	t.Logf("verified %d crash cycles across %d persist points", rep.TotalRuns, rep.DistinctPoints())
}

// TestCommitMarkerCrash: once the commit marker (state=idle) is durable,
// recovery must keep the transaction even though the log entries linger.
func TestCommitMarkerCrash(t *testing.T) {
	out, err := CrashAt("txn.commit.marker", 1)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Crashed {
		t.Fatal("crash point not reached")
	}
	if out.RolledBack {
		t.Error("recovery rolled back a committed transaction")
	}
	if out.Gen != 1 {
		t.Errorf("recovered generation %d, want the committed 1", out.Gen)
	}
}

// TestPartialUndoEntryIgnored: an undo entry whose old value is durable but
// whose count was never published must not be replayed; the four published
// entries roll the words back to generation 0.
func TestPartialUndoEntryIgnored(t *testing.T) {
	out, err := CrashAt("txn.write.entry-old", 5)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Crashed {
		t.Fatal("crash point not reached")
	}
	if !out.RolledBack {
		t.Error("active log was not rolled back")
	}
	if out.Gen != 0 {
		t.Errorf("recovered generation %d, want 0", out.Gen)
	}
}

// TestEmptyActiveLog: crashing right after Begin arms the log leaves zero
// entries; recovery must be a no-op rollback.
func TestEmptyActiveLog(t *testing.T) {
	out, err := CrashAt("txn.begin.armed", 1)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Crashed || !out.RolledBack || out.Gen != 0 {
		t.Errorf("outcome %+v, want rolled-back generation 0", out)
	}
}

// TestMidTransactionCrash: a crash halfway through generation 2's writes
// must recover to the committed generation 1, never a mix.
func TestMidTransactionCrash(t *testing.T) {
	out, err := CrashAt("txn.write.data", 12)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Crashed || !out.RolledBack {
		t.Fatalf("outcome %+v, want a rollback", out)
	}
	if out.Gen != 1 {
		t.Errorf("recovered generation %d, want 1", out.Gen)
	}
}

func TestDoubleRecovery(t *testing.T) {
	if err := DoubleRecovery(); err != nil {
		t.Fatal(err)
	}
}

// TestExhaustedPointReportsNoCrash: asking for an occurrence beyond what
// the workload produces is reported, not silently treated as success.
func TestExhaustedPointReportsNoCrash(t *testing.T) {
	out, err := CrashAt("txn.commit.marker", 99)
	if err != nil {
		t.Fatal(err)
	}
	if out.Crashed {
		t.Error("occurrence 99 of a twice-hit point reported a crash")
	}
}

// ---- Op-log crash points ----------------------------------------------------

// TestEnumerateOplogCrashPoints: every store operation a flush, a roll, a
// truncation and a reset perform is a crash point, and every occurrence of
// each recovers — twice — to a dense, correctly replaying log with no stray
// image.
func TestEnumerateOplogCrashPoints(t *testing.T) {
	rep, err := EnumerateOplog()
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]int{}
	for _, p := range rep.Points {
		if p.Tested != p.Hits {
			t.Errorf("%s: tested %d of %d occurrences", p.Label, p.Tested, p.Hits)
		}
		seen[p.Label] = p.Hits
	}
	for _, label := range []string{"repl.log.seal", "repl.log.tail", "repl.log.delete"} {
		if seen[label] == 0 {
			t.Errorf("workload never reached %s", label)
		}
	}
	t.Logf("verified %d op-log crash cycles across %d points", rep.TotalRuns, len(rep.Points))
}

// TestOplogCrashBetweenSealAndSuccessor: the segment is sealed, its
// successor's first save never happened, and the tail image still holds
// the records the seal took over.
func TestOplogCrashBetweenSealAndSuccessor(t *testing.T) {
	out, err := OplogCrashAt("repl.log.seal", 1)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Crashed || out.LastSeq != repl.SegmentRecords || out.BaseSeq != 1 || out.Segments != 2 {
		t.Fatalf("outcome %+v, want the sealed segment's %d records and nothing else", out, repl.SegmentRecords)
	}
}

// TestOplogCrashMidTruncation: the workload's second truncation covers
// several sealed segments; dying after the first delete leaves the rest
// behind, already disowned by the base the tail save committed.
func TestOplogCrashMidTruncation(t *testing.T) {
	first, err := OplogCrashAt("repl.log.delete", 1)
	if err != nil {
		t.Fatal(err)
	}
	out, err := OplogCrashAt("repl.log.delete", 2)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Crashed || out.BaseSeq <= first.BaseSeq {
		t.Fatalf("second delete: outcome %+v after first truncation's %+v", out, first)
	}
	done, err := OplogCrashAt("repl.log.delete", 4)
	if err != nil {
		t.Fatal(err)
	}
	if done.BaseSeq != out.BaseSeq || done.Segments != out.Segments {
		t.Fatalf("crash after delete #2 recovered %+v, after #4 %+v: the base is committed before the deletes", out, done)
	}
}

// TestOplogCrashMidMultiSeal: the workload's first flush seals two
// segments before its tail save; dying after the second seal leaves both
// segments and no tail image, and recovery reads both.
func TestOplogCrashMidMultiSeal(t *testing.T) {
	out, err := OplogCrashAt("repl.log.seal", 2)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Crashed || out.BaseSeq != 1 || out.LastSeq != 2*repl.SegmentRecords || out.Segments != 3 {
		t.Fatalf("outcome %+v, want both sealed segments' records 1..%d", out, 2*repl.SegmentRecords)
	}
}

func TestOplogTornTail(t *testing.T) {
	if err := OplogTornTail(); err != nil {
		t.Fatal(err)
	}
}

func TestOplogResurrectedSegment(t *testing.T) {
	if err := OplogResurrectedSegment(); err != nil {
		t.Fatal(err)
	}
}

// TestEnumerateCheckpointCrashPoints: a crash anywhere in a split
// checkpoint — between taking the image and completing its save, inside
// the save, between the save and the op-log truncation — or in the log
// around it, recovers twice alike to the image plus the flushed log tail.
func TestEnumerateCheckpointCrashPoints(t *testing.T) {
	rep, err := EnumerateCheckpoint()
	if err != nil {
		t.Fatal(err)
	}
	hits := map[string]int{}
	for _, p := range rep.Points {
		if p.Tested != p.Hits {
			t.Errorf("%s: tested %d of %d occurrences", p.Label, p.Tested, p.Hits)
		}
		hits[p.Label] = p.Hits
	}
	for _, label := range []string{"pmem.checkpoint.taken", "pmem.parity.save", "pmem.checkpoint.saved"} {
		if hits[label] != 5 {
			t.Errorf("%s reached %d times, want once per checkpoint (5)", label, hits[label])
		}
	}
	t.Logf("verified %d crash cycles across %d points: %v", rep.TotalRuns, rep.DistinctPoints(), hits)
}

// TestCheckpointCrashBeforeTruncation: a crash after the save completed but
// before the log dropped what it covers recovers from the new image; the
// log still holds the covered records, and replaying them changes nothing.
func TestCheckpointCrashBeforeTruncation(t *testing.T) {
	out, err := CheckpointCrashAt("pmem.checkpoint.saved", 2)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Crashed || out.Covered != 2*90+10 {
		t.Fatalf("outcome %+v: want a crash recovering the second checkpoint's image, covering 190", out)
	}
}
