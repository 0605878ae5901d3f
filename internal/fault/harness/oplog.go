package harness

// The op-log leg of the crash-consistency verifier. repl.Log keeps its
// durable form in several store images (a tail plus sealed segments), so a
// flush, a truncation and a reset are each more than one store operation. The log marks the
// step after every one of them as a crash point; this file drives a
// workload through all of them, kills it at each point in turn, reopens
// the surviving store, and asserts:
//
//   - the reopened log's newest sequence is at least what the log had
//     reported flushed and at most what was appended, and FlushedSeq
//     agrees with it;
//   - the retained records are dense, carry the content they were appended
//     with, and start no later than the record after the newest checkpoint
//     the workload took before truncating;
//   - replaying them over that checkpoint's state gives the state of every
//     record through the newest sequence;
//   - the store holds no image the log does not own, a second recovery
//     finds exactly what the first did, and the log goes on appending,
//     flushing and reloading from there.

import (
	"fmt"

	"nvref/internal/fault"
	"nvref/internal/pmem"
	"nvref/internal/repl"
)

const (
	oplogName  = "oplog"
	oplogFlush = 64 // the serving tier's LogFlushEvery
	// oplogResetGap lifts the sequence space at the workload's ResetTo, so a
	// recovered log's newest sequence tells which side of the reset it is on.
	oplogResetGap = 1 << 20
)

// oplogRecord is the record the workload appends at seq: content is a
// function of the sequence alone, so recovery can check it.
func oplogRecord(seq uint64) repl.Record {
	if seq%5 == 0 {
		return repl.Record{Seq: seq, Key: seq % 97, Op: repl.RecDelete}
	}
	return repl.Record{Seq: seq, Key: seq % 97, Value: seq * 7, Op: repl.RecPut}
}

func applyRecord(state map[uint64]uint64, rec repl.Record) {
	if rec.Op == repl.RecDelete {
		delete(state, rec.Key)
	} else {
		state[rec.Key] = rec.Value
	}
}

// oplogRun is one simulated process driving a log, plus what a pool
// checkpoint beside it would have captured.
type oplogRun struct {
	store pmem.Store
	log   *repl.Log
	// appended is the newest sequence handed to the log; ckpt the newest one
	// a checkpoint covers (taken before each truncation, as the shard does);
	// resetTo the watermark of the workload's ResetTo once it has begun.
	appended, ckpt, resetTo uint64
}

func (r *oplogRun) append(n int) error {
	for i := 0; i < n; i++ {
		r.appended++
		if err := r.log.AppendAt(oplogRecord(r.appended)); err != nil {
			return err
		}
	}
	return nil
}

// checkpointAndTruncate models shard.checkpoint: the pool image covering
// through is durable before the log is asked to drop it.
func (r *oplogRun) checkpointAndTruncate(through uint64) error {
	r.ckpt = through
	return r.log.TruncateThrough(through)
}

// reopen replaces the run's log with a fresh handle on its store, as a
// restart would, flushing every flushEvery appends.
func (r *oplogRun) reopen(flushEvery int) error {
	l, err := repl.OpenLog(r.store, oplogName, flushEvery)
	if err != nil {
		return err
	}
	r.log = l
	return nil
}

// mutate is the instrumented workload: one flush over more than two
// segments' worth of appends, which seals several segments in a row;
// cadence flushes that roll several more; a truncation inside a sealed
// segment, one across several, one that empties the log; and a reset that
// restarts the sequence space.
func (r *oplogRun) mutate() error {
	const s = repl.SegmentRecords
	if err := r.reopen(0); err != nil {
		return err
	}
	if err := r.append(2*s + 40); err != nil {
		return err
	}
	if err := r.log.Flush(); err != nil {
		return err
	}
	if err := r.reopen(oplogFlush); err != nil {
		return err
	}
	if err := r.append(s); err != nil {
		return err
	}
	if err := r.checkpointAndTruncate(r.log.BaseSeq() + s + 100); err != nil {
		return err
	}
	if err := r.append(2 * s); err != nil {
		return err
	}
	if err := r.checkpointAndTruncate(r.appended - 2*oplogFlush - 7); err != nil {
		return err
	}
	if err := r.append(100); err != nil {
		return err
	}
	if err := r.log.Flush(); err != nil {
		return err
	}
	if err := r.checkpointAndTruncate(r.appended); err != nil {
		return err
	}
	if err := r.append(s + 10); err != nil {
		return err
	}
	if err := r.log.Flush(); err != nil {
		return err
	}
	// The re-seed path: the shard is wiped and checkpointed empty at the
	// watermark, and the log restarts there.
	r.resetTo = r.appended + oplogResetGap
	r.appended = r.resetTo
	if err := r.log.ResetTo(r.resetTo); err != nil {
		return err
	}
	if err := r.append(s + 30); err != nil {
		return err
	}
	return r.log.Flush()
}

// OplogOutcome describes one op-log crash/recover/verify cycle.
type OplogOutcome struct {
	Crashed  bool   // the trigger fired; false means the point was exhausted
	LastSeq  uint64 // newest sequence after recovery
	BaseSeq  uint64 // oldest retained sequence after recovery (0: none)
	Segments int    // images the recovered log owns
}

// OplogCrashAt runs the op-log workload from an empty store, crashes it at
// the nth hit of the named crash point, and verifies two recoveries of what
// survives.
func OplogCrashAt(label string, nth int) (*OplogOutcome, error) {
	r, err := startOplogRun()
	if err != nil {
		return nil, err
	}
	crashed, err := fault.Run(fault.NewTrigger(label, nth), r.mutate)
	if err != nil {
		return nil, fmt.Errorf("%s #%d: workload: %w", label, nth, err)
	}
	if crashed == nil {
		return &OplogOutcome{}, nil
	}
	out, err := r.recoverAndVerify(r.log.FlushedSeq())
	if err != nil {
		return nil, fmt.Errorf("%s #%d: %w", label, nth, err)
	}
	out.Crashed = true
	return out, nil
}

// startOplogRun opens the workload's log over an empty store.
func startOplogRun() (*oplogRun, error) {
	r := &oplogRun{store: pmem.NewMemStore()}
	return r, r.reopen(oplogFlush)
}

// recoverAndVerify reopens the run's store as the next process would and
// asserts the invariants in the file comment. durable is the sequence the
// crashed process had been told was flushed.
func (r *oplogRun) recoverAndVerify(durable uint64) (*OplogOutcome, error) {
	l, err := repl.OpenLog(r.store, oplogName, oplogFlush)
	if err != nil {
		return nil, fmt.Errorf("recovery: %w", err)
	}
	out, err := r.verify(l, durable)
	if err != nil {
		return nil, err
	}
	again, err := repl.OpenLog(r.store, oplogName, oplogFlush)
	if err != nil {
		return nil, fmt.Errorf("second recovery: %w", err)
	}
	if a, b := again.Stats(), l.Stats(); a.LastSeq != b.LastSeq || a.BaseSeq != b.BaseSeq ||
		a.Records != b.Records || a.FlushedSeq != b.FlushedSeq || a.Segments != b.Segments {
		return nil, fmt.Errorf("second recovery found %+v, first found %+v", a, b)
	}
	// The recovered log keeps working: a segment's worth of appends, a
	// flush, and a third process sees them all.
	next := again.LastSeq()
	for i := 0; i < repl.SegmentRecords+5; i++ {
		next++
		if err := again.AppendAt(oplogRecord(next)); err != nil {
			return nil, fmt.Errorf("append after recovery: %w", err)
		}
	}
	if err := again.Flush(); err != nil {
		return nil, fmt.Errorf("flush after recovery: %w", err)
	}
	third, err := repl.OpenLog(r.store, oplogName, oplogFlush)
	if err != nil {
		return nil, fmt.Errorf("third recovery: %w", err)
	}
	if third.LastSeq() != next || third.Len() != again.Len() || third.BaseSeq() != again.BaseSeq() {
		return nil, fmt.Errorf("after appending through %d a reload has last=%d base=%d len=%d, memory base=%d len=%d",
			next, third.LastSeq(), third.BaseSeq(), third.Len(), again.BaseSeq(), again.Len())
	}
	return out, nil
}

// verify checks one recovered log against the run's model.
func (r *oplogRun) verify(l *repl.Log, durable uint64) (*OplogOutcome, error) {
	st := l.Stats()
	if st.FlushedSeq != st.LastSeq {
		return nil, fmt.Errorf("recovered FlushedSeq %d != LastSeq %d", st.FlushedSeq, st.LastSeq)
	}
	if st.LastSeq < durable || st.LastSeq > r.appended {
		return nil, fmt.Errorf("recovered LastSeq %d outside [flushed %d, appended %d]", st.LastSeq, durable, r.appended)
	}
	// Which checkpoint the records replay over: the reset's empty one once
	// its commit is durable, else the newest taken before a truncation.
	ckpt := r.ckpt
	if r.resetTo != 0 && st.LastSeq >= r.resetTo {
		ckpt = r.resetTo
	} else if r.resetTo != 0 && st.LastSeq > r.resetTo-oplogResetGap {
		return nil, fmt.Errorf("recovered LastSeq %d is in the gap below the reset watermark %d", st.LastSeq, r.resetTo)
	}
	recs := l.Since(0, 0)
	if len(recs) != st.Records {
		return nil, fmt.Errorf("Since returned %d records, Stats says %d", len(recs), st.Records)
	}
	if len(recs) > 0 {
		if st.BaseSeq != recs[0].Seq || recs[len(recs)-1].Seq != st.LastSeq {
			return nil, fmt.Errorf("records span %d..%d, Stats says %d..%d",
				recs[0].Seq, recs[len(recs)-1].Seq, st.BaseSeq, st.LastSeq)
		}
		if st.BaseSeq > ckpt+1 {
			return nil, fmt.Errorf("recovered BaseSeq %d leaves %d..%d uncovered by the checkpoint at %d",
				st.BaseSeq, ckpt+1, st.BaseSeq-1, ckpt)
		}
	} else if st.LastSeq > ckpt {
		return nil, fmt.Errorf("no records retained, but %d..%d are past the checkpoint", ckpt+1, st.LastSeq)
	}
	for i, rec := range recs {
		if want := oplogRecord(recs[0].Seq + uint64(i)); rec != want {
			return nil, fmt.Errorf("record %d holds %+v, was appended as %+v", i, rec, want)
		}
	}

	// Replay over the checkpoint must equal the full history. Sequences at
	// or below a reset watermark belong to the wiped incarnation.
	from := uint64(1)
	if ckpt == r.resetTo && r.resetTo != 0 {
		from = r.resetTo + 1
	}
	want, got := map[uint64]uint64{}, map[uint64]uint64{}
	for seq := from; seq <= st.LastSeq; seq++ {
		applyRecord(want, oplogRecord(seq))
		if seq <= ckpt {
			applyRecord(got, oplogRecord(seq))
		}
	}
	for _, rec := range recs {
		applyRecord(got, rec)
	}
	if len(got) != len(want) {
		return nil, fmt.Errorf("replayed state has %d keys, history has %d", len(got), len(want))
	}
	for k, v := range want {
		if gv, ok := got[k]; !ok || gv != v {
			return nil, fmt.Errorf("replayed state: key %d = %d (present %v), history says %d", k, gv, ok, v)
		}
	}

	images, err := r.store.List()
	if err != nil {
		return nil, err
	}
	sealed := 0
	for _, img := range images {
		if img != oplogName {
			sealed++
		}
	}
	if sealed != st.Segments-1 {
		return nil, fmt.Errorf("store holds %v but the log owns %d sealed segments", images, st.Segments-1)
	}
	return &OplogOutcome{LastSeq: st.LastSeq, BaseSeq: st.BaseSeq, Segments: st.Segments}, nil
}

// EnumerateOplog discovers every op-log crash point the workload reaches
// and verifies recovery from a crash at each occurrence of each.
func EnumerateOplog() (*Report, error) {
	rep := &Report{}
	rec := fault.NewRecorder()
	r, err := startOplogRun()
	if err != nil {
		return nil, err
	}
	if crashed, err := fault.Run(rec, r.mutate); crashed != nil || err != nil {
		return nil, fmt.Errorf("recording run: crash %v, err %v", crashed, err)
	}
	if _, err := r.recoverAndVerify(r.log.FlushedSeq()); err != nil {
		return nil, fmt.Errorf("uncrashed run: %w", err)
	}
	counts := rec.Counts()
	for _, label := range rec.Labels() {
		pr := PointResult{Label: label, Hits: counts[label]}
		for nth := 1; nth <= pr.Hits; nth++ {
			out, err := OplogCrashAt(label, nth)
			if err != nil {
				return nil, err
			}
			if !out.Crashed {
				return nil, fmt.Errorf("%s #%d: point not reached on replay", label, nth)
			}
			pr.Tested++
			rep.TotalRuns++
		}
		rep.Points = append(rep.Points, pr)
	}
	return rep, nil
}

// OplogTornTail damages the tail image the way a device that does not
// write a whole image atomically could — the payload cut short under
// intact metadata, then one record's bytes flipped mid-image with the store
// checksum resealed — and verifies that each reload keeps exactly the
// records before the damage, on top of the sealed segments, twice over.
func OplogTornTail() error {
	for _, cut := range []bool{true, false} {
		r, err := startOplogRun()
		if err != nil {
			return err
		}
		if err := r.append(repl.SegmentRecords + 2*oplogFlush); err != nil {
			return err
		}
		meta, data, err := r.store.Load(oplogName)
		if err != nil {
			return err
		}
		// Record 40 of the tail's 128 is the first casualty either way.
		const keep = 40
		at := len(data) - (2*oplogFlush-keep)*repl.RecordSize
		if cut {
			data = data[:at+11]
		} else {
			data[at+3] ^= 0xff
			meta.Sum = pmem.ImageChecksum(data)
		}
		if err := r.store.Save(meta, data); err != nil {
			return err
		}
		// The tear took durable records with it; what is left is the floor.
		r.appended = repl.SegmentRecords + keep
		l, err := repl.OpenLog(r.store, oplogName, oplogFlush)
		if err != nil {
			return fmt.Errorf("torn tail (cut=%v): %w", cut, err)
		}
		if st := l.Stats(); st.LastSeq != r.appended || st.TornRecords != 2*oplogFlush-keep {
			return fmt.Errorf("torn tail (cut=%v): recovered last=%d torn=%d, want %d and %d",
				cut, st.LastSeq, st.TornRecords, r.appended, 2*oplogFlush-keep)
		}
		if _, err := r.recoverAndVerify(r.appended); err != nil {
			return fmt.Errorf("torn tail (cut=%v): %w", cut, err)
		}
	}
	return nil
}

// OplogResurrectedSegment brings back sealed segments a truncation had
// already deleted — DirStore.Delete does not fsync the directory, so a host
// crash can undo an unlink — and verifies that recovery disowns and removes
// them, whether or not they would connect to the retained run.
func OplogResurrectedSegment() error {
	r, err := startOplogRun()
	if err != nil {
		return err
	}
	if err := r.append(3*repl.SegmentRecords + 20); err != nil {
		return err
	}
	type image struct {
		meta pmem.Meta
		data []byte
	}
	var deleted []image
	images, err := r.store.List()
	if err != nil {
		return err
	}
	for _, name := range images {
		if name == oplogName {
			continue
		}
		meta, data, err := r.store.Load(name)
		if err != nil {
			return err
		}
		deleted = append(deleted, image{meta, data})
	}
	// The cut lands in the third segment: the first two are deleted, and the
	// second is the one that would abut the survivor.
	if err := r.checkpointAndTruncate(2*repl.SegmentRecords + 50); err != nil {
		return err
	}
	for _, img := range deleted[:2] {
		if err := r.store.Save(img.meta, img.data); err != nil {
			return err
		}
	}
	out, err := r.recoverAndVerify(r.log.FlushedSeq())
	if err != nil {
		return fmt.Errorf("resurrected segments: %w", err)
	}
	if out.BaseSeq != r.ckpt+1 || out.Segments != 2 {
		return fmt.Errorf("resurrected segments: recovered base=%d segments=%d, want %d and 2",
			out.BaseSeq, out.Segments, r.ckpt+1)
	}
	return nil
}
