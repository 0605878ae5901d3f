package server

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"nvref/internal/fault"
	"nvref/internal/parity"
	"nvref/internal/pmem"
	"nvref/internal/repl"
	"nvref/internal/rt"
)

// ladderDelta is what one climb of the recovery ladder moved in the
// shard's STATS block.
type ladderDelta struct {
	Scrubs, MediaScrubs, PagesRepaired       uint64
	FsckWarns, FsckErrors, Repairs           uint64
	Salvages, Rollbacks, Crashes, Recoveries uint64
}

func ladderDeltaOf(a, b ShardStats) ladderDelta {
	return ladderDelta{
		Scrubs:        b.Scrubs - a.Scrubs,
		MediaScrubs:   b.MediaScrubs - a.MediaScrubs,
		PagesRepaired: b.PagesRepaired - a.PagesRepaired,
		FsckWarns:     b.FsckWarns - a.FsckWarns,
		FsckErrors:    b.FsckErrors - a.FsckErrors,
		Repairs:       b.Repairs - a.Repairs,
		Salvages:      b.Salvages - a.Salvages,
		Rollbacks:     b.Rollbacks - a.Rollbacks,
		Crashes:       b.Crashes - a.Crashes,
		Recoveries:    b.Recoveries - a.Recoveries,
	}
}

// TestLadder climbs the recovery ladder for every cause over every kind
// of damage and checks where it stopped, what it counted — each fact once
// — and which flight-recorder kinds it fired. The damage:
//
//   - none;
//   - residue: a leaked block in the live pool, checkpointed into the
//     stored image too (three fsck warnings);
//   - page: one flipped bit in the stored image, parity armed;
//   - image: the same flip with parity off, beyond any repair.
//
// The shard is bare — no worker goroutine — so the test calls recover
// itself, as the worker, the supervisor and newShard do.
func TestLadder(t *testing.T) {
	const (
		none = iota
		residue
		page
		image
	)
	damageNames := []string{"none", "residue", "page", "image"}
	causeNames := []string{"open", "scrub", "panic", "power"}
	const media = TriggerMediaRepair
	type d = ladderDelta

	for _, tc := range []struct {
		cause   cause
		damage  int
		reached rung
		failed  bool
		delta   ladderDelta
		kinds   []string
	}{
		{causeOpen, none, rungStructure, false, d{}, nil},
		{causeOpen, residue, rungStructure, false, d{FsckWarns: 3, Repairs: 1}, nil},
		{causeOpen, page, rungStructure, false, d{PagesRepaired: 1}, []string{media}},
		{causeOpen, image, rungMedia, true, d{}, nil},

		{causeScrub, none, rungStructure, false, d{Scrubs: 1, MediaScrubs: 1}, nil},
		{causeScrub, residue, rungStructure, false, d{Scrubs: 1, MediaScrubs: 1, FsckWarns: 3, Repairs: 1}, nil},
		{causeScrub, page, rungStructure, false, d{Scrubs: 1, MediaScrubs: 1, PagesRepaired: 1}, []string{media}},
		// No parity, no media pass: the scrub cannot see the stored flip.
		{causeScrub, image, rungStructure, false, d{Scrubs: 1}, nil},

		// A salvage checkpoint overwrites the damaged stored image with the
		// live pool's, so a panic never needs the store.
		{causePanic, none, rungSalvage, false, d{Salvages: 1}, nil},
		{causePanic, residue, rungSalvage, false, d{Salvages: 1, FsckWarns: 3, Repairs: 1}, nil},
		{causePanic, page, rungSalvage, false, d{Salvages: 1}, nil},
		{causePanic, image, rungSalvage, false, d{Salvages: 1}, nil},

		{causePower, none, rungRollback, false, d{Crashes: 1, Recoveries: 1}, nil},
		{causePower, residue, rungRollback, false, d{Crashes: 1, Recoveries: 1, FsckWarns: 3, Repairs: 1}, nil},
		{causePower, page, rungRollback, false, d{Crashes: 1, Recoveries: 1, PagesRepaired: 1}, []string{media}},
		{causePower, image, rungFailed, true, d{Crashes: 1}, []string{media}},
	} {
		t.Run(fmt.Sprintf("%s/%s", causeNames[tc.cause], damageNames[tc.damage]), func(t *testing.T) {
			store := pmem.NewMemStore()
			pol := parity.Default()
			if tc.damage == image {
				pol = parity.Policy{}
			}
			var kinds []string
			sh, err := newShard(shardConfig{
				mode:            rt.HW,
				store:           store,
				poolSize:        testPoolSize,
				checkpointEvery: -1,
				parity:          pol,
				trigger:         func(kind, _ string) { kinds = append(kinds, kind) },
			}, newBreaker(time.Millisecond, nil))
			if err != nil {
				t.Fatal(err)
			}
			const n = 50
			for k := uint64(0); k < n; k++ {
				sh.write(repl.RecPut, k, keyVal(k), false)
			}
			if tc.damage == residue {
				if err := leak(sh); err != nil {
					t.Fatal(err)
				}
			}
			if err := sh.checkpoint(); err != nil {
				t.Fatal(err)
			}
			if tc.damage == page || tc.damage == image {
				corruptShardImage(t, store, fault.BitFlip, 42)
			}
			sh.publish()
			before := sh.stats()
			if tc.cause == causeOpen {
				sh.ctx, sh.st, sh.rb = nil, nil, nil // a fresh shard over the store
			}

			reached, err := sh.recover(tc.cause)
			sh.publish()
			after := sh.stats()

			if reached != tc.reached || (err != nil) != tc.failed {
				t.Fatalf("ladder stopped at %s (err %v), want %s (failed %v)", reached, err, tc.reached, tc.failed)
			}
			if got := ladderDeltaOf(before, after); got != tc.delta {
				t.Errorf("counter deltas %+v, want %+v", got, tc.delta)
			}
			if !slices.Equal(kinds, tc.kinds) {
				t.Errorf("trigger kinds %v, want %v", kinds, tc.kinds)
			}
			if wantFailed := tc.cause == causePower && tc.failed; (after.State == "failed") != wantFailed {
				t.Errorf("state %q after the climb", after.State)
			}
			if tc.failed {
				return
			}
			if sh.rb.Len() != n {
				t.Errorf("%d keys after the climb, want %d", sh.rb.Len(), n)
			}
			if rep := pmem.Fsck(sh.ctx.Pool); !rep.Clean() {
				t.Errorf("pool not clean after the climb: %v", rep.Issues)
			}
		})
	}
}
