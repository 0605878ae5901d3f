package pmem_test

import (
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"nvref/internal/fault"
	"nvref/internal/fault/inject"
	"nvref/internal/mem"
	"nvref/internal/parity"
	"nvref/internal/pmem"
)

// mediaPool builds a registry with parity armed over store, creates one
// pool, fills a few hundred allocations with recognizable values, and
// checkpoints. Returns the registry and the expected root word values.
func mediaPool(t *testing.T, store pmem.Store) (*pmem.Registry, []uint64) {
	t.Helper()
	r := pmem.NewRegistry(mem.New(), store, pmem.WithParity(parity.Default()))
	p, err := r.Create("media", 1<<20)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	as := r.AddressSpace()
	vals := make([]uint64, 0, 512)
	for i := 0; i < 512; i++ {
		ref, err := p.Pmalloc(64)
		if err != nil {
			t.Fatalf("Pmalloc %d: %v", i, err)
		}
		va, err := r.RA2VA(ref)
		if err != nil {
			t.Fatalf("RA2VA: %v", err)
		}
		v := uint64(i)*0x0101010101010101 + 7
		if err := as.Store64(va, v); err != nil {
			t.Fatalf("Store64: %v", err)
		}
		vals = append(vals, v)
	}
	if err := r.Checkpoint(p); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	return r, vals
}

// reopen opens the pool in a fresh registry (a new "run", mapped at a
// different base so relocation is in play too).
func reopen(t *testing.T, store pmem.Store, withParity bool) (*pmem.Registry, error) {
	t.Helper()
	opts := []pmem.Option{pmem.WithMapBase(mem.NVMBase + 1024*mem.PageSize)}
	if withParity {
		opts = append(opts, pmem.WithParity(parity.Default()))
	}
	r := pmem.NewRegistry(mem.New(), store, opts...)
	_, err := r.Open("media")
	return r, err
}

func TestCheckpointMaintainsSidecar(t *testing.T) {
	store := pmem.NewMemStore()
	r, _ := mediaPool(t, store)
	if r.Stats.ParityBuilds != 1 {
		t.Fatalf("ParityBuilds = %d, want 1", r.Stats.ParityBuilds)
	}
	if _, blob, err := store.Load(parity.SidecarName("media")); err != nil || len(blob) == 0 {
		t.Fatalf("sidecar not stored: %v", err)
	}
	if r.Stats.ParityPages == 0 {
		t.Fatalf("ParityPages gauge is zero after checkpoint")
	}

	// A second checkpoint with a small mutation goes through the delta
	// path and touches few parity pages.
	first := r.Stats.DirtyPages
	if first != 256 {
		t.Fatalf("first checkpoint DirtyPages = %d, want every page of 1 MiB (256)", first)
	}
	p, _ := r.Open("media")
	ref, err := p.Pmalloc(64)
	if err != nil {
		t.Fatal(err)
	}
	va, _ := r.RA2VA(ref)
	if err := r.AddressSpace().Store64(va, 0xdead); err != nil {
		t.Fatal(err)
	}
	if err := r.Checkpoint(p); err != nil {
		t.Fatalf("Checkpoint 2: %v", err)
	}
	if r.Stats.ParityUpdates != 1 {
		t.Fatalf("ParityUpdates = %d, want 1 (delta path not taken)", r.Stats.ParityUpdates)
	}
	dirty := r.Stats.DirtyPages - first
	if dirty == 0 || dirty > 8 {
		t.Fatalf("second checkpoint DirtyPages = %d, want a small nonzero count", dirty)
	}
	if r.Stats.ParityPageWrites > dirty {
		t.Fatalf("parity write amplification above 1: %d parity writes for %d dirty pages",
			r.Stats.ParityPageWrites, dirty)
	}
}

// The fsck-repair round trip, one subtest per corruptor class: damage the
// stored image the way that class does, then prove the next open (a fresh
// registry, as after a crash) repairs in place — or fails loudly when the
// class is beyond parity's reach.
func TestOpenRepairRoundTripPerCorruptorClass(t *testing.T) {
	cases := []struct {
		name    string
		corrupt func(t *testing.T, store pmem.Store, rng *fault.Rand)
		want    string // "repair", "unrecoverable"
	}{
		{
			name: "bitflip",
			corrupt: func(t *testing.T, store pmem.Store, rng *fault.Rand) {
				if _, err := inject.CorruptStored(store, "media", fault.BitFlip, parity.DefaultPageSize, rng); err != nil {
					t.Fatal(err)
				}
			},
			want: "repair",
		},
		{
			name: "torn-page",
			corrupt: func(t *testing.T, store pmem.Store, rng *fault.Rand) {
				if _, err := inject.CorruptStored(store, "media", fault.Torn, parity.DefaultPageSize, rng); err != nil {
					t.Fatal(err)
				}
			},
			want: "repair",
		},
		{
			// A whole-image tear kills many consecutive pages — more
			// than one per rangelet — which parity must refuse to
			// "repair" into garbage. Truncate inside the live heap so
			// several content-bearing pages of one rangelet are lost.
			name: "torn-image",
			corrupt: func(t *testing.T, store pmem.Store, rng *fault.Rand) {
				meta, data, err := store.Load("media")
				if err != nil {
					t.Fatal(err)
				}
				if err := store.Save(meta, data[:2*parity.DefaultPageSize]); err != nil {
					t.Fatal(err)
				}
			},
			want: "unrecoverable",
		},
		{
			// Two bit flips landing in distinct pages of the same
			// rangelet: the explicit overlap verdict.
			name: "rangelet-overlap",
			corrupt: func(t *testing.T, store pmem.Store, rng *fault.Rand) {
				meta, data, err := store.Load("media")
				if err != nil {
					t.Fatal(err)
				}
				// Pages 0 and 1 share rangelet 0.
				data[10] ^= 0x01
				data[parity.DefaultPageSize+10] ^= 0x01
				if err := store.Save(meta, data); err != nil {
					t.Fatal(err)
				}
			},
			want: "unrecoverable",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			store := pmem.NewMemStore()
			r0, _ := mediaPool(t, store)
			meta0, clean, err := store.Load("media")
			if err != nil {
				t.Fatal(err)
			}
			_ = r0
			tc.corrupt(t, store, fault.NewRand(42))

			// Sanity: the image really is corrupt now.
			if _, data, _ := store.Load("media"); uint64(len(data)) == meta0.Size &&
				pmem.ImageChecksum(data) == meta0.Sum {
				t.Fatalf("corruptor left the image clean")
			}

			// Without parity the open must fail (the old baseline).
			if _, err := reopen(t, store, false); !errors.Is(err, pmem.ErrCorrupt) {
				t.Fatalf("parity-off open: err = %v, want ErrCorrupt", err)
			}

			r, err := reopen(t, store, true)
			switch tc.want {
			case "repair":
				if err != nil {
					t.Fatalf("parity-on open failed: %v", err)
				}
				if r.Stats.PagesRepaired == 0 {
					t.Fatalf("open succeeded but PagesRepaired = 0")
				}
				// The store copy was healed: byte-identical to the
				// pre-corruption image.
				_, data, err := store.Load("media")
				if err != nil {
					t.Fatal(err)
				}
				if pmem.ImageChecksum(data) != pmem.ImageChecksum(clean) {
					t.Fatalf("store image not healed after repair")
				}
			case "unrecoverable":
				if !errors.Is(err, pmem.ErrCorrupt) {
					t.Fatalf("err = %v, want ErrCorrupt", err)
				}
				if !strings.Contains(err.Error(), "unrecoverable") {
					t.Fatalf("error does not report the unrecoverable verdict: %v", err)
				}
				if r.Stats.MediaUnrecoverable == 0 {
					t.Fatalf("MediaUnrecoverable = 0 after refused repair")
				}
			}
		})
	}
}

// Transient store faults on the load path are retried before any media
// verdict — the existing retry discipline, now covering the sidecar load.
func TestRepairRetriesTransientFaults(t *testing.T) {
	base := pmem.NewMemStore()
	r0, _ := mediaPool(t, base)
	_ = r0
	if _, err := inject.CorruptStored(base, "media", fault.BitFlip, parity.DefaultPageSize, fault.NewRand(7)); err != nil {
		t.Fatal(err)
	}
	// One transient fault on every second load: both the image load and
	// the sidecar load must retry through it.
	inj := inject.New(base, 99,
		inject.Fault{Class: fault.Transient, Op: inject.OpLoad, Nth: 1},
		inject.Fault{Class: fault.Transient, Op: inject.OpLoad, Nth: 3},
	)
	r, err := reopen(t, inj, true)
	if err != nil {
		t.Fatalf("open through transient faults: %v", err)
	}
	if r.Stats.PagesRepaired == 0 {
		t.Fatalf("PagesRepaired = 0")
	}
	if r.Stats.StoreRetries == 0 {
		t.Fatalf("StoreRetries = 0, transient faults not exercised")
	}
}

// A stale sidecar (metadata checksum no longer matching the image) must
// never be used for repair, and a scrub pass over an intact image must
// replace it.
func TestStaleSidecarDetectedAndRebuilt(t *testing.T) {
	store := pmem.NewMemStore()
	r, _ := mediaPool(t, store)

	// Crash between the data save and the sidecar save: the second
	// checkpoint persists the new image but dies at the crash point, so
	// the stored sidecar still describes the first image.
	p, _ := r.Open("media")
	ref, err := p.Pmalloc(64)
	if err != nil {
		t.Fatal(err)
	}
	va, _ := r.RA2VA(ref)
	if err := r.AddressSpace().Store64(va, 0xfeed); err != nil {
		t.Fatal(err)
	}
	crashed, err := fault.Run(fault.NewTrigger("pmem.parity.save", 1), func() error {
		return r.Checkpoint(p)
	})
	if crashed == nil {
		t.Fatalf("crash point did not fire (err=%v)", err)
	}

	meta, _, err := store.Load("media")
	if err != nil {
		t.Fatal(err)
	}
	_, blob, err := store.Load(parity.SidecarName("media"))
	if err != nil {
		t.Fatalf("sidecar missing after crash: %v", err)
	}
	sc, err := parity.Decode(blob)
	if err != nil {
		t.Fatalf("sidecar undecodable after crash: %v", err)
	}
	if sc.Describes(meta.Sum, int(meta.Size)) {
		t.Fatalf("sidecar claims to describe the post-crash image; staleness undetectable")
	}

	// Fresh run. The intact image opens fine; a repair-mode scrub notices
	// the stale sidecar and rebuilds it.
	r2 := pmem.NewRegistry(mem.New(), store, pmem.WithParity(parity.Default()))
	rep, err := r2.ScrubMedia("media", true)
	if err != nil {
		t.Fatalf("ScrubMedia: %v", err)
	}
	if !rep.ImageOK || rep.Sidecar != pmem.SidecarStale || !rep.SidecarBuilt {
		t.Fatalf("scrub report %+v: want intact image, stale sidecar, rebuilt", rep)
	}

	// And with the rebuilt sidecar, corruption of the new image repairs.
	if _, err := inject.CorruptStored(store, "media", fault.BitFlip, parity.DefaultPageSize, fault.NewRand(3)); err != nil {
		t.Fatal(err)
	}
	r3, err := reopen(t, store, true)
	if err != nil {
		t.Fatalf("open after rebuild+corrupt: %v", err)
	}
	if r3.Stats.PagesRepaired == 0 {
		t.Fatalf("PagesRepaired = 0")
	}
}

// If the crash left the sidecar stale AND the new image then corrupts,
// repair must refuse (no usable sidecar) instead of reconstructing from
// the wrong baseline.
func TestStaleSidecarRefusesRepair(t *testing.T) {
	store := pmem.NewMemStore()
	r, _ := mediaPool(t, store)
	p, _ := r.Open("media")
	ref, _ := p.Pmalloc(64)
	va, _ := r.RA2VA(ref)
	if err := r.AddressSpace().Store64(va, 0xbeef); err != nil {
		t.Fatal(err)
	}
	if crashed, _ := fault.Run(fault.NewTrigger("pmem.parity.save", 1), func() error {
		return r.Checkpoint(p)
	}); crashed == nil {
		t.Fatalf("crash point did not fire")
	}
	if _, err := inject.CorruptStored(store, "media", fault.BitFlip, parity.DefaultPageSize, fault.NewRand(5)); err != nil {
		t.Fatal(err)
	}
	_, err := reopen(t, store, true)
	if !errors.Is(err, pmem.ErrCorrupt) || !errors.Is(err, pmem.ErrNoParity) {
		t.Fatalf("err = %v, want ErrCorrupt wrapping ErrNoParity", err)
	}
}

// A corrupted sidecar blob is treated as missing, and scrub rebuilds it
// from the intact image.
func TestCorruptSidecarRebuilt(t *testing.T) {
	store := pmem.NewMemStore()
	mediaPool(t, store)
	scName := parity.SidecarName("media")
	meta, blob, err := store.Load(scName)
	if err != nil {
		t.Fatal(err)
	}
	blob[len(blob)/3] ^= 0x40
	if err := store.Save(meta, blob); err != nil {
		t.Fatal(err)
	}
	r := pmem.NewRegistry(mem.New(), store, pmem.WithParity(parity.Default()))
	rep, err := r.ScrubMedia("media", true)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Sidecar != pmem.SidecarCorrupt || !rep.SidecarBuilt {
		t.Fatalf("scrub report %+v: want corrupt sidecar rebuilt", rep)
	}
}

// ScrubMedia in detect-only mode reports damage without touching the
// store; repair mode heals it.
func TestScrubMediaDetectThenRepair(t *testing.T) {
	store := pmem.NewMemStore()
	mediaPool(t, store)
	if _, err := inject.CorruptStored(store, "media", fault.Torn, parity.DefaultPageSize, fault.NewRand(11)); err != nil {
		t.Fatal(err)
	}
	r := pmem.NewRegistry(mem.New(), store, pmem.WithParity(parity.Default()))

	rep, err := r.ScrubMedia("media", false)
	if err != nil {
		t.Fatal(err)
	}
	if rep.ImageOK || len(rep.BadPages) == 0 || rep.Healed {
		t.Fatalf("detect-only report %+v", rep)
	}
	meta, data, _ := store.Load("media")
	if pmem.ImageChecksum(data) == meta.Sum {
		t.Fatalf("detect-only scrub modified the store")
	}

	rep, err = r.ScrubMedia("media", true)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Healed || !rep.Recovered() {
		t.Fatalf("repair scrub report %+v", rep)
	}
	meta, data, _ = store.Load("media")
	if pmem.ImageChecksum(data) != meta.Sum {
		t.Fatalf("store image still corrupt after repair scrub")
	}

	// ScrubAllMedia covers the same pool and skips the sidecar entry.
	reps, err := r.ScrubAllMedia(true)
	if err != nil {
		t.Fatal(err)
	}
	if len(reps) != 1 || reps[0].Pool != "media" || !reps[0].ImageOK {
		t.Fatalf("ScrubAllMedia = %+v", reps)
	}
}

// Data values must actually survive the repair: write, checkpoint,
// corrupt, reopen in a new run, read back through the allocator root.
func TestRepairedDataReadsBack(t *testing.T) {
	store := pmem.NewMemStore()
	r := pmem.NewRegistry(mem.New(), store, pmem.WithParity(parity.Default()))
	p, err := r.Create("media", 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := p.Pmalloc(256)
	if err != nil {
		t.Fatal(err)
	}
	p.SetRoot(ref)
	va, _ := r.RA2VA(ref)
	for i := uint64(0); i < 32; i++ {
		if err := r.AddressSpace().Store64(va+8*i, 0xab0000+i); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.Checkpoint(p); err != nil {
		t.Fatal(err)
	}
	if _, err := inject.CorruptStored(store, "media", fault.BitFlip, parity.DefaultPageSize, fault.NewRand(13)); err != nil {
		t.Fatal(err)
	}

	r2 := pmem.NewRegistry(mem.New(), store,
		pmem.WithParity(parity.Default()),
		pmem.WithMapBase(mem.NVMBase+512*mem.PageSize))
	p2, err := r2.Open("media")
	if err != nil {
		t.Fatalf("Open after corruption: %v", err)
	}
	va2, err := r2.RA2VA(p2.Root())
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 32; i++ {
		v, err := r2.AddressSpace().Load64(va2 + 8*i)
		if err != nil {
			t.Fatal(err)
		}
		if v != 0xab0000+i {
			t.Fatalf("word %d = %#x after repair, want %#x", i, v, 0xab0000+i)
		}
	}
}

// TestDirStoreTornFileRepair: a real on-disk slot file cut short by
// filesystem truncation still carries its intact header. The store must
// hand the surviving bytes to the parity layer instead of refusing the
// load outright, so the missing tail zero-extends into bad pages that
// parity reconstructs: on the scrub path, and directly on open.
func TestDirStoreTornFileRepair(t *testing.T) {
	dir := t.TempDir()
	store, err := pmem.NewDirStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	// Fill a small pool to capacity so its final page carries real content
	// — a torn tail of zeros would zero-extend back to itself and give
	// parity nothing to prove.
	r0 := pmem.NewRegistry(mem.New(), store, pmem.WithParity(parity.Default()))
	p, err := r0.Create("media", 64<<10)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; ; i++ {
		ref, err := p.Pmalloc(64)
		if err != nil {
			break
		}
		va, err := r0.RA2VA(ref)
		if err != nil {
			t.Fatal(err)
		}
		if err := r0.AddressSpace().Store64(va, 0xfeed0000+uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := r0.Checkpoint(p); err != nil {
		t.Fatal(err)
	}

	// Tear the file itself: cut half of the image's final page, the only
	// damaged page in its rangelet.
	tear := func() {
		path := newestSlot(t, dir, "media")
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.Truncate(path, fi.Size()-parity.DefaultPageSize/2); err != nil {
			t.Fatal(err)
		}
	}
	tear()

	// Without parity the torn file stays a hard load failure.
	if _, err := reopen(t, store, false); !errors.Is(err, pmem.ErrCorrupt) {
		t.Fatalf("parity-less open of torn file: err = %v, want ErrCorrupt", err)
	}

	// Scrub path: detect, reconstruct, heal the file in place.
	r := pmem.NewRegistry(mem.New(), store, pmem.WithParity(parity.Default()))
	rep, err := r.ScrubMedia("media", true)
	if err != nil {
		t.Fatalf("ScrubMedia over torn file: %v", err)
	}
	if !rep.Recovered() || !rep.Healed || len(rep.Repaired) == 0 {
		t.Fatalf("torn file not healed: %+v", rep)
	}
	if _, err := reopen(t, store, false); err != nil {
		t.Fatalf("parity-less open after heal: %v", err)
	}

	// Open path: tear again; recovery itself must repair and proceed.
	tear()
	r2, err := reopen(t, store, true)
	if err != nil {
		t.Fatalf("open of torn file with parity: %v", err)
	}
	if r2.Stats.PagesRepaired == 0 {
		t.Fatal("open repaired nothing, yet the file was torn")
	}
}

// newestSlot returns the slot file of name holding the higher generation
// (header bytes 8..16), the one a DirStore loads.
func newestSlot(t *testing.T, dir, name string) string {
	t.Helper()
	best, bestGen := "", uint64(0)
	for _, slot := range []string{".pool.0", ".pool.1"} {
		path := filepath.Join(dir, name+slot)
		if raw, err := os.ReadFile(path); err == nil && len(raw) >= 16 {
			if gen := binary.LittleEndian.Uint64(raw[8:]); gen > bestGen {
				best, bestGen = path, gen
			}
		}
	}
	if best == "" {
		t.Fatalf("no slot file holds %q", name)
	}
	return best
}
