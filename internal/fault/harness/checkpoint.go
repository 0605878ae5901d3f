package harness

// The split-checkpoint leg of the crash-consistency verifier. A serving
// shard checkpoints in three steps — BeginCheckpoint on the worker, the save
// (Save.Run) beside it while writes go on, Commit back on the worker — and
// truncates its op-log only once the save is complete. This file drives a
// pool and an op-log through that sequence the way the shard does, kills the
// run at every crash point it reaches (pmem.checkpoint.taken between taking
// the image and completing the save, pmem.parity.save inside the save,
// pmem.checkpoint.saved between the save and the truncation, and the log's
// own), and asserts that the surviving stores recover, twice alike, to the
// state of every record through the flushed log:
//
//   - the pool image opens (checksum and parity intact) and records the
//     newest sequence it covers, which the log holds too: the log is
//     flushed through it before the save;
//   - the log keeps every record after that sequence: a truncation never
//     outruns a completed save;
//   - replaying every retained record over the image, as a shard does,
//     gives the history's state.

import (
	"errors"
	"fmt"

	"nvref/internal/fault"
	"nvref/internal/mem"
	"nvref/internal/parity"
	"nvref/internal/pmem"
	"nvref/internal/repl"
)

const (
	ckptPoolName = "ckpt"
	ckptPoolSize = 64 << 10
	// ckptSlot spaces the keys' words over most of the pool's pages, so a
	// checkpoint patches several pages and leaves others stale.
	ckptSlot = 520
	// ckptCovered is the pool word holding the newest applied sequence: an
	// image says which records it covers.
	ckptCovered = pmem.HeapStart
)

func ckptKeyOff(key uint64) uint64 { return pmem.HeapStart + 8 + key*ckptSlot }

// ckptRun is one simulated process: a pool and an op-log over stores that
// survive it, with records applied to both as a shard applies them.
type ckptRun struct {
	pools, logs *pmem.MemStore
	reg         *pmem.Registry
	pool        *pmem.Pool
	log         *repl.Log
	appended    uint64
}

// write appends n records to the log and applies them to the pool.
func (r *ckptRun) write(n int) error {
	for i := 0; i < n; i++ {
		r.appended++
		rec := oplogRecord(r.appended)
		if err := r.log.AppendAt(rec); err != nil {
			return err
		}
		if err := applyToPool(r.reg.AddressSpace(), r.pool, rec); err != nil {
			return err
		}
	}
	return nil
}

// applyToPool stores rec's effect in the pool: a delete zeroes the key's
// word (a put's value is never zero).
func applyToPool(as *mem.AddressSpace, p *pmem.Pool, rec repl.Record) error {
	if err := as.Store64(p.Base()+ckptKeyOff(rec.Key), rec.Value); err != nil {
		return err
	}
	return as.Store64(p.Base()+ckptCovered, rec.Seq)
}

// checkpoint is the shard's periodic checkpoint: begin, more writes while
// the save runs, the log flush through what the image covers, the save,
// the commit, and the truncation through what the image covers.
func (r *ckptRun) checkpoint(during int) error {
	through := r.appended
	s, err := r.reg.BeginCheckpoint(r.pool)
	if err != nil {
		return err
	}
	if err := r.write(during); err != nil {
		return err
	}
	if r.log.FlushedSeq() < through {
		if err := r.log.Flush(); err != nil {
			return err
		}
	}
	_ = s.Run() // Commit returns its error
	if err := s.Commit(); err != nil {
		return err
	}
	return r.log.TruncateThrough(through)
}

// mutate is the instrumented workload: checkpoints the pool's first (a full
// copy), second (the second image) and later ones (patches), each with
// writes landing during its save, across log flushes and segment seals.
func (r *ckptRun) mutate() error {
	for round := 0; round < 5; round++ {
		if err := r.write(90); err != nil {
			return err
		}
		if err := r.checkpoint(10); err != nil {
			return err
		}
	}
	return r.write(40)
}

func startCkptRun() (*ckptRun, error) {
	r := &ckptRun{pools: pmem.NewMemStore(), logs: pmem.NewMemStore()}
	r.reg = pmem.NewRegistry(mem.New(), r.pools, pmem.WithParity(parity.Default()))
	p, err := r.reg.Create(ckptPoolName, ckptPoolSize)
	if err != nil {
		return nil, err
	}
	r.pool = p
	r.log, err = repl.OpenLog(r.logs, oplogName, oplogFlush)
	return r, err
}

// CheckpointOutcome describes one split-checkpoint crash/recover cycle.
type CheckpointOutcome struct {
	Crashed bool   // the trigger fired; false means the point was exhausted
	Covered uint64 // newest sequence the recovered image covers (0: none saved)
	LastSeq uint64 // newest sequence the recovered log holds
}

// CheckpointCrashAt runs the split-checkpoint workload, crashes it at the
// nth hit of the named crash point, and verifies two recoveries of what
// survives.
func CheckpointCrashAt(label string, nth int) (*CheckpointOutcome, error) {
	r, err := startCkptRun()
	if err != nil {
		return nil, err
	}
	crashed, err := fault.Run(fault.NewTrigger(label, nth), r.mutate)
	if err != nil {
		return nil, fmt.Errorf("%s #%d: workload: %w", label, nth, err)
	}
	if crashed == nil {
		return &CheckpointOutcome{}, nil
	}
	out, err := r.recoverTwice(r.log.FlushedSeq())
	if err != nil {
		return nil, fmt.Errorf("%s #%d: %w", label, nth, err)
	}
	out.Crashed = true
	return out, nil
}

// recoverTwice recovers the run's stores twice and requires the same
// outcome and state both times. durable is the sequence the crashed
// process had been told was flushed.
func (r *ckptRun) recoverTwice(durable uint64) (*CheckpointOutcome, error) {
	first, state, err := r.recoverOnce(durable)
	if err != nil {
		return nil, err
	}
	again, state2, err := r.recoverOnce(durable)
	if err != nil {
		return nil, fmt.Errorf("second recovery: %w", err)
	}
	if *again != *first {
		return nil, fmt.Errorf("second recovery found %+v, first found %+v", again, first)
	}
	for k, v := range state {
		if state2[k] != v {
			return nil, fmt.Errorf("second recovery: key %d = %d, first recovery had %d", k, state2[k], v)
		}
	}
	return first, nil
}

// recoverOnce opens the surviving pool and log as the next process would,
// replays every retained record over the image, and checks the state
// against the history. It changes nothing a second recovery would find
// different.
func (r *ckptRun) recoverOnce(durable uint64) (*CheckpointOutcome, map[uint64]uint64, error) {
	out := &CheckpointOutcome{}
	reg := pmem.NewRegistry(mem.New(), r.pools, pmem.WithParity(parity.Default()), pmem.WithMapBase(reopenBase))
	as := reg.AddressSpace()
	pool, err := reg.Open(ckptPoolName)
	switch {
	case errors.Is(err, pmem.ErrNoSuchPool): // no image saved: the pool starts empty, as a shard's does
		if pool, err = reg.Create(ckptPoolName, ckptPoolSize); err != nil {
			return nil, nil, fmt.Errorf("recovery: %w", err)
		}
	case err != nil:
		return nil, nil, fmt.Errorf("recovery: %w", err)
	default:
		if out.Covered, err = as.Load64(pool.Base() + ckptCovered); err != nil {
			return nil, nil, err
		}
	}
	log, err := repl.OpenLog(r.logs, oplogName, oplogFlush)
	if err != nil {
		return nil, nil, fmt.Errorf("recovery: %w", err)
	}
	out.LastSeq = log.LastSeq()
	if out.LastSeq < durable || out.LastSeq > r.appended {
		return nil, nil, fmt.Errorf("recovered LastSeq %d outside [flushed %d, appended %d]", out.LastSeq, durable, r.appended)
	}
	if out.Covered > out.LastSeq {
		return nil, nil, fmt.Errorf("image covers %d, past the log's newest %d", out.Covered, out.LastSeq)
	}
	recs := log.Since(0, 0)
	if len(recs) > 0 && recs[0].Seq > out.Covered+1 {
		return nil, nil, fmt.Errorf("log keeps %d..%d, image covers through %d: records %d..%d are lost",
			recs[0].Seq, out.LastSeq, out.Covered, out.Covered+1, recs[0].Seq-1)
	}
	if len(recs) == 0 && out.LastSeq > out.Covered {
		return nil, nil, fmt.Errorf("log keeps no records, but %d..%d are past the image", out.Covered+1, out.LastSeq)
	}
	for _, rec := range recs { // every retained record, as a shard replays them
		if err := applyToPool(as, pool, rec); err != nil {
			return nil, nil, err
		}
	}
	want := map[uint64]uint64{}
	for seq := uint64(1); seq <= out.LastSeq; seq++ {
		applyRecord(want, oplogRecord(seq))
	}
	state, err := poolState(as, pool)
	if err != nil {
		return nil, nil, err
	}
	if err := sameState(state, want); err != nil {
		return nil, nil, err
	}

	return out, state, nil
}

// poolState reads every key's word; zero is absent.
func poolState(as *mem.AddressSpace, p *pmem.Pool) (map[uint64]uint64, error) {
	state := map[uint64]uint64{}
	for k := uint64(0); k < 97; k++ {
		v, err := as.Load64(p.Base() + ckptKeyOff(k))
		if err != nil {
			return nil, err
		}
		if v != 0 {
			state[k] = v
		}
	}
	return state, nil
}

func sameState(got, want map[uint64]uint64) error {
	if len(got) != len(want) {
		return fmt.Errorf("recovered state has %d keys, history has %d", len(got), len(want))
	}
	for k, v := range want {
		if got[k] != v {
			return fmt.Errorf("recovered key %d = %d, history says %d", k, got[k], v)
		}
	}
	return nil
}

// EnumerateCheckpoint discovers every crash point the split-checkpoint
// workload reaches and verifies recovery from a crash at each occurrence
// of each.
func EnumerateCheckpoint() (*Report, error) {
	rep := &Report{}
	rec := fault.NewRecorder()
	r, err := startCkptRun()
	if err != nil {
		return nil, err
	}
	if crashed, err := fault.Run(rec, r.mutate); crashed != nil || err != nil {
		return nil, fmt.Errorf("recording run: crash %v, err %v", crashed, err)
	}
	if _, err := r.recoverTwice(r.log.FlushedSeq()); err != nil {
		return nil, fmt.Errorf("uncrashed run: %w", err)
	}
	counts := rec.Counts()
	for _, label := range rec.Labels() {
		pr := PointResult{Label: label, Hits: counts[label]}
		for nth := 1; nth <= pr.Hits; nth++ {
			out, err := CheckpointCrashAt(label, nth)
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
