// The media experiment is the acceptance gate for the parity layer: a
// primary/replica pair serves closed-loop YCSB load while seeded
// corruptors flip bits and tear pages in the primary's checkpointed pool
// images. The damage must be absorbed in place — scrubber and recovery
// reconstruct the corrupt pages from the XOR parity sidecars — with zero
// acknowledged-write loss, zero client-visible errors, and zero
// promotions: the replica is armed for failover and must never need it.
//
// Two repair paths are exercised deliberately: the background scrubber
// finds corruption at rest (scrub-and-repair on an idle shard), and a
// power-loss crash reopens a corrupt image (repair-on-open during
// recovery). What the layer costs is the pinned benchmark's question
// (benchmark/, parity.checkpoint_tax_frac), not this gate's.
package bench

import (
	"fmt"
	"io"
	"time"

	"nvref/internal/fault"
	"nvref/internal/fault/inject"
	"nvref/internal/obs"
	"nvref/internal/parity"
	"nvref/internal/pmem"
	"nvref/internal/rt"
	"nvref/internal/server"
)

// MediaSpec parameterizes the media-fault experiment. CheckpointEvery is
// moderate on purpose: checkpoints both exercise the incremental parity
// updates and race the corruptor (a checkpoint that rewrites a corrupted
// image before the scrubber sees it is a lost injection, counted,
// retried). The network stays clean: any client-visible error is the
// parity layer failing its promise.
type MediaSpec struct {
	LoadSpec
	// ScrubEvery is the background scrub-and-repair cadence.
	ScrubEvery time.Duration
	// PromoteAfter arms the replica's failover. Generous: the gate is that
	// media faults are repaired in place fast enough that promotion never
	// fires.
	PromoteAfter time.Duration
	// Cycles is how many corruption injections run concurrently with the
	// load (alternating bit flips and torn pages, scrub path and
	// crash-recovery path).
	Cycles int
}

// MediaSpecFor returns the standard experiment sizes.
func MediaSpecFor(quick bool) MediaSpec {
	s := MediaSpec{
		LoadSpec: LoadSpec{
			Records:         3000,
			Operations:      20000,
			Clients:         4,
			Shards:          2,
			Mode:            rt.HW,
			PoolSize:        4 << 20,
			CheckpointEvery: 1000,
			Seed:            23,
		},
		ScrubEvery:   2 * time.Millisecond,
		PromoteAfter: 2 * time.Second,
		Cycles:       8,
	}
	if quick {
		s.Records, s.Operations = 1200, 8000
		s.Cycles = 5
	}
	return s
}

// MediaResult is the experiment document. The whole point of the
// client-side fields is that none of the injected media damage is visible
// there; the sweep ran on the primary.
type MediaResult struct {
	LoadResult
	Retries uint64 `json:"retries"`

	// Corruption injected into the primary's stores, by class and by the
	// repair path meant to catch it.
	BitFlips    int `json:"bit_flips"`
	TornPages   int `json:"torn_pages"`
	CrashCycles int `json:"crash_cycles"` // injections driven through crash recovery
	// RepairRaces counts injections a concurrent checkpoint overwrote
	// before any repair could see them — lost, not dangerous.
	RepairRaces int `json:"repair_races"`

	// Primary-side repair work, summed over shards.
	MediaScrubs    uint64 `json:"media_scrubs"`
	PagesRepaired  uint64 `json:"pages_repaired"`
	ParityRebuilds uint64 `json:"parity_rebuilds"`
	Unrecoverable  uint64 `json:"unrecoverable"`
	Recoveries     uint64 `json:"recoveries"`

	// Failover never needed: the replica followed throughout.
	Promotions uint64 `json:"promotions"`

	// Metrics is the primary's obs registry snapshot; the gate reads the
	// aggregate pages_repaired_total series from it.
	Metrics *obs.Snapshot `json:"metrics,omitempty"`
}

// SnapshotCounter reads one counter series out of the embedded snapshot
// (-1 when absent), so the acceptance gate checks what the experiment
// exported, not just its internal tallies.
func (r *MediaResult) SnapshotCounter(name string) int64 {
	if r.Metrics == nil {
		return -1
	}
	for _, s := range r.Metrics.Series {
		if s.Name == name {
			return s.Value
		}
	}
	return -1
}

// Pass applies the acceptance gates: real load moved, every injected
// class of damage fired and was repaired from parity (pages_repaired_total
// visible in the exported metrics), nothing was beyond repair, both repair
// paths ran, no acknowledged write was lost, no client saw an error, and
// the armed replica never had to promote.
func (r *MediaResult) Pass() bool {
	return r.OpsOK > 0 && r.OpsFailed == 0 &&
		r.BitFlips > 0 && r.TornPages > 0 && r.CrashCycles > 0 &&
		r.PagesRepaired > 0 && r.SnapshotCounter("pages_repaired_total") > 0 &&
		r.Unrecoverable == 0 &&
		r.Recoveries > 0 &&
		r.Promotions == 0 &&
		r.AckedKeys > 0 && r.LostWrites == 0 && r.MissingKeys == 0
}

// mediaCounters sums the per-shard media-fault counters.
type mediaCounters struct {
	scrubs, repaired, rebuilds, unrecoverable, recoveries, checkpoints uint64
}

func sumMedia(s server.Stats) mediaCounters {
	var c mediaCounters
	for _, sh := range s.PerShard {
		c.scrubs += sh.MediaScrubs
		c.repaired += sh.PagesRepaired
		c.rebuilds += sh.ParityRebuilds
		c.unrecoverable += sh.MediaUnrecoverable
		c.recoveries += sh.Recoveries
		c.checkpoints += sh.Checkpoints
	}
	return c
}

// corruptPool damages every non-sidecar image in one store with the given
// class, media-style (bytes change under an unchanged checksum). Returns
// the number of images hit.
func corruptPool(st pmem.Store, class fault.Class, rng *fault.Rand) (int, error) {
	names, err := st.List()
	if err != nil {
		return 0, err
	}
	hit := 0
	for _, name := range names {
		if parity.IsSidecar(name) {
			continue
		}
		if _, err := inject.CorruptStored(st, name, class, parity.DefaultPageSize, rng); err != nil {
			return hit, err
		}
		hit++
	}
	return hit, nil
}

// RunMedia executes the experiment against an in-process primary/replica
// pair on loopback listeners, corrupting the primary's stores while the
// load runs.
func RunMedia(spec MediaSpec) (*MediaResult, error) {
	res := &MediaResult{}

	// Per-shard stores the corruptor keeps handles to. Log stores are
	// persistent and flushed every append so a crash-recovery cycle
	// replays the full acked tail — an injected power loss must not add
	// write loss on top of the media fault under test.
	stores := make([]pmem.Store, spec.Shards)
	logStores := make([]pmem.Store, spec.Shards)
	for i := range stores {
		stores[i] = pmem.NewMemStore()
		logStores[i] = pmem.NewMemStore()
	}
	reg := obs.NewRegistry()
	pcfg := spec.config()
	pcfg.ScrubEvery = spec.ScrubEvery
	pcfg.Parity = parity.Default()
	pcfg.StoreFor = func(i int) pmem.Store { return stores[i] }
	pcfg.LogStoreFor = func(i int) pmem.Store { return logStores[i] }
	pcfg.LogFlushEvery = 1
	pcfg.Reg = reg
	rcfg := spec.config()
	rcfg.PromoteAfter = spec.PromoteAfter
	p, err := startPair(pcfg, rcfg)
	if err != nil {
		return nil, fmt.Errorf("media: %w", err)
	}
	defer p.close()
	primary := p.primary

	h := newAcceptance(spec.LoadSpec)
	loader, err := server.DialResilient(p.paddr, h.loaderPolicy())
	if err != nil {
		return nil, err
	}
	if err := h.load(loader); err != nil {
		return nil, err
	}
	// Seed the stores: every shard now has a checkpointed image and a
	// parity sidecar for the corruptor to aim at.
	if err := primary.Checkpoint(); err != nil {
		return nil, err
	}

	// Closed-loop clients on a clean network, in the background: the
	// corruptor below runs inline while they do.
	clients := make([]*server.ResilientClient, spec.Clients)
	driven := make(chan error, 1)
	go func() {
		driven <- h.drive(func(ci int) (kv, error) {
			cl, err := server.DialResilient(p.paddr, h.policy(ci))
			clients[ci] = cl
			return rywClient{cl}, err
		})
	}()

	// The corruptor. Cycles alternate damage class (bit flip / torn page)
	// and repair path (background scrub / crash recovery). Each waits for
	// the repair counter to move — or for the shard to checkpoint over the
	// damage, a lost race, retried by the next cycle.
	rng := fault.NewRand(uint64(spec.Seed)*2654435761 + 1)
	inject1 := func(cycle int) error {
		si := cycle % spec.Shards
		class := fault.BitFlip
		if cycle%2 == 1 {
			class = fault.Torn
		}
		before := primary.CollectStats().PerShard[si]
		if _, err := corruptPool(stores[si], class, rng); err != nil {
			return fmt.Errorf("cycle %d: %w", cycle, err)
		}
		if class == fault.BitFlip {
			res.BitFlips++
		} else {
			res.TornPages++
		}
		if cycle%4 >= 2 {
			// Crash-recovery path: power-loss the corrupted shard; open()
			// must repair the image on the way back up.
			res.CrashCycles++
			if err := primary.InjectCrash(si); err != nil {
				return err
			}
		}
		// The cycle is over only once this shard's store is clean again —
		// repaired from parity, or rewritten whole by a checkpoint that won
		// the race. Waiting per shard keeps injections from compounding on
		// one image (two bad pages in a rangelet would be unrecoverable,
		// deliberately out of scope here).
		err := waitUntil(3*time.Second, func() bool {
			after := primary.CollectStats().PerShard[si]
			return after.PagesRepaired > before.PagesRepaired || after.Checkpoints > before.Checkpoints
		})
		if err != nil {
			return fmt.Errorf("cycle %d: damage neither repaired nor overwritten: %w", cycle, err)
		}
		if primary.CollectStats().PerShard[si].PagesRepaired == before.PagesRepaired {
			res.RepairRaces++
		}
		return nil
	}
	for cycle := 0; cycle < spec.Cycles; cycle++ {
		if err := inject1(cycle); err != nil {
			return nil, err
		}
	}
	if err := <-driven; err != nil {
		return nil, fmt.Errorf("media: %w", err)
	}
	for _, cl := range clients {
		res.Retries += cl.Retries()
	}

	// Deterministic tail: with the load drained nothing races the
	// corruptor, so if checkpoint races swallowed injections, re-inject
	// until at least one repair per class (and one through crash recovery)
	// actually landed.
	for res.RepairRaces > 0 || res.CrashCycles == 0 {
		before := sumMedia(primary.CollectStats())
		cycle := res.BitFlips + res.TornPages
		if err := inject1(cycle); err != nil {
			return nil, err
		}
		if sumMedia(primary.CollectStats()).repaired > before.repaired {
			res.RepairRaces = 0
		}
	}

	c := sumMedia(primary.CollectStats())
	res.MediaScrubs = c.scrubs
	res.PagesRepaired = c.repaired
	res.ParityRebuilds = c.rebuilds
	res.Unrecoverable = c.unrecoverable
	res.Recoveries = c.recoveries
	res.Promotions = p.replica.Promotions() + primary.CollectStats().Promotions

	// Zero-loss sweep on the primary.
	probe, err := server.Dial(p.paddr)
	if err != nil {
		return nil, err
	}
	if err := h.verify(probe); err != nil {
		return nil, fmt.Errorf("media: %w", err)
	}
	res.LoadResult = h.res

	snap := reg.Snapshot()
	res.Metrics = &snap
	return res, nil
}

// WriteText renders the experiment as text.
func (r *MediaResult) WriteText(w io.Writer) {
	fmt.Fprintf(w, "media: YCSB-A, %d records / %d ops, %d clients, %d shards, %s mode, parity %d-page rangelets\n",
		r.Records, r.Operations, r.Clients, r.Shards, r.Mode, parity.DefaultRangeletPages)
	fmt.Fprintf(w, "injected: %d bit flips, %d torn pages (%d driven through crash recovery, %d lost to checkpoint races)\n",
		r.BitFlips, r.TornPages, r.CrashCycles, r.RepairRaces)
	fmt.Fprintf(w, "repairs: %d pages reconstructed from parity over %d scrub passes, %d sidecar rebuilds, %d unrecoverable, %d recoveries\n",
		r.PagesRepaired, r.MediaScrubs, r.ParityRebuilds, r.Unrecoverable, r.Recoveries)
	fmt.Fprintf(w, "clients: %d ok / %d failed ops in %.2fs (%d retries); promotions: %d (must be 0)\n",
		r.OpsOK, r.OpsFailed, r.WallSeconds, r.Retries, r.Promotions)
	r.writeVerdict(w, r.Pass())
}
