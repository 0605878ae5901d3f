package server

import (
	"os"
	"sync"
	"testing"
	"time"

	"nvref/internal/fault"
	"nvref/internal/fault/inject"
	"nvref/internal/parity"
	"nvref/internal/pmem"
)

// corruptShardImage damages every non-sidecar image in the shard's store
// (in practice: the one pool image) with the given fault class, returning
// how many images were hit. The damage is media-style: bytes change under
// an unchanged checksum.
func corruptShardImage(t *testing.T, store pmem.Store, class fault.Class, seed uint64) int {
	t.Helper()
	names, err := store.List()
	if err != nil {
		t.Fatalf("listing store: %v", err)
	}
	hit := 0
	for _, name := range names {
		if parity.IsSidecar(name) {
			continue
		}
		desc, err := inject.CorruptStored(store, name, class, parity.DefaultPageSize, fault.NewRand(seed))
		if err != nil {
			t.Fatalf("corrupting %q: %v", name, err)
		}
		t.Logf("corrupted %q: %s", name, desc)
		hit++
	}
	if hit == 0 {
		t.Fatal("no pool image in the store to corrupt (checkpoint missing?)")
	}
	return hit
}

// TestScrubberRepairsMediaCorruption is the tentpole's serving-tier leg:
// a bit flips in a checkpointed pool image while the server keeps running.
// The background scrubber must detect the flip against the page CRCs,
// reconstruct the page from the parity sidecar, heal the store in place —
// no failover, no client-visible error — and leave a flight-recorder dump
// behind. A subsequent power-loss crash then recovers from the healed
// image with every acknowledged write intact.
func TestScrubberRepairsMediaCorruption(t *testing.T) {
	store := pmem.NewMemStore()
	dir := t.TempDir()
	ts := startServer(t, Config{
		Shards:          1,
		CheckpointEvery: -1, // no background checkpoints: the image under scrub stays put
		ScrubEvery:      2 * time.Millisecond,
		Parity:          parity.Default(),
		StoreFor:        func(int) pmem.Store { return store },
		FlightDir:       dir,
	})
	cl := dial(t, ts)

	const n = 200
	for k := uint64(0); k < n; k++ {
		if err := cl.Put(k, keyVal(k)); err != nil {
			t.Fatalf("put %d: %v", k, err)
		}
	}
	if err := ts.Checkpoint(); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	corruptShardImage(t, store, fault.BitFlip, 42)

	st := waitShard(t, ts, 0, "media repair", func(st ShardStats) bool { return st.PagesRepaired >= 1 })
	if st.MediaScrubs == 0 || st.ParityPages == 0 {
		t.Errorf("media counters after repair: scrubs=%d parity_pages=%d, want both > 0", st.MediaScrubs, st.ParityPages)
	}
	if st.MediaUnrecoverable != 0 {
		t.Errorf("single flipped bit counted as unrecoverable (%d)", st.MediaUnrecoverable)
	}

	// The store must now hold the healed image: power-loss recovery reopens
	// from it, and every acknowledged write must still be there.
	if err := ts.InjectCrash(0); err != nil {
		t.Fatalf("crash after heal: %v", err)
	}
	for k := uint64(0); k < n; k++ {
		v, ok, err := cl.Get(k)
		if err != nil {
			t.Fatalf("get %d after crash: %v", k, err)
		}
		if !ok || v != keyVal(k) {
			t.Fatalf("key %d after recovery from healed image: got (%d,%v), want %d", k, v, ok, keyVal(k))
		}
	}

	// A media repair is an incident: the flight recorder must have dumped.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("reading flight dir: %v", err)
	}
	if len(entries) == 0 {
		t.Error("media repair left no flight-recorder dump")
	}
}

// TestCrashRecoveryRepairsCorruptImage covers the load-path half: the
// corruption is found not by the scrubber but by recovery itself — the
// image fails verification while a crashed shard reopens it. With parity
// armed, open() must reconstruct the bad page, heal the store, and bring
// the shard back with all checkpointed writes, instead of failing
// recovery.
func TestCrashRecoveryRepairsCorruptImage(t *testing.T) {
	store := pmem.NewMemStore()
	ts := startServer(t, Config{
		Shards:          1,
		CheckpointEvery: -1,
		Parity:          parity.Default(),
		StoreFor:        func(int) pmem.Store { return store },
	})
	cl := dial(t, ts)

	const n = 300
	for k := uint64(0); k < n; k++ {
		if err := cl.Put(k, keyVal(k)); err != nil {
			t.Fatalf("put %d: %v", k, err)
		}
	}
	if err := ts.Checkpoint(); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	corruptShardImage(t, store, fault.Torn, 7)

	if err := ts.InjectCrash(0); err != nil {
		t.Fatalf("crash onto corrupt image: %v", err)
	}
	for k := uint64(0); k < n; k++ {
		v, ok, err := cl.Get(k)
		if err != nil {
			t.Fatalf("get %d after recovery: %v", k, err)
		}
		if !ok || v != keyVal(k) {
			t.Fatalf("key %d after repair-on-open: got (%d,%v), want %d", k, v, ok, keyVal(k))
		}
	}
	st := ts.CollectStats().PerShard[0]
	if st.PagesRepaired == 0 {
		t.Error("recovery reopened a corrupt image without counting a repair")
	}
	if st.Crashes != 1 || st.Recoveries != 1 {
		t.Errorf("crash/recovery counters: %d/%d, want 1/1", st.Crashes, st.Recoveries)
	}
}

// TestScrubReportsUnrecoverableDamage: damage beyond parity's reach (many
// pages of one rangelet wiped by a torn image) must be reported — counted,
// logged, dumped — not silently retried or fatal. The service keeps
// serving from the live pool, and the next checkpoint re-seals the store
// with a fresh image and sidecar, after which recovery works again.
func TestScrubReportsUnrecoverableDamage(t *testing.T) {
	store := pmem.NewMemStore()
	ts := startServer(t, Config{
		Shards:          1,
		CheckpointEvery: -1,
		ScrubEvery:      2 * time.Millisecond,
		Parity:          parity.Default(),
		StoreFor:        func(int) pmem.Store { return store },
	})
	cl := dial(t, ts)

	const n = 200
	for k := uint64(0); k < n; k++ {
		if err := cl.Put(k, keyVal(k)); err != nil {
			t.Fatalf("put %d: %v", k, err)
		}
	}
	if err := ts.Checkpoint(); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}

	// Truncate the stored image to two pages under its original metadata:
	// every later content-bearing page reads as zeros, multiple of them in
	// the same rangelet — beyond single-page reconstruction.
	names, err := store.List()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range names {
		if parity.IsSidecar(name) {
			continue
		}
		meta, data, err := store.Load(name)
		if err != nil {
			t.Fatal(err)
		}
		if err := store.Save(meta, data[:2*parity.DefaultPageSize]); err != nil {
			t.Fatal(err)
		}
	}

	waitShard(t, ts, 0, "unrecoverable damage reported", func(st ShardStats) bool {
		return st.MediaUnrecoverable >= 1
	})

	// The live pool is untouched: clients keep reading through the damage.
	for k := uint64(0); k < n; k++ {
		v, ok, err := cl.Get(k)
		if err != nil || !ok || v != keyVal(k) {
			t.Fatalf("get %d while store is damaged: (%d,%v,%v)", k, v, ok, err)
		}
	}

	// A fresh checkpoint rewrites image and sidecar; recovery works again.
	if err := ts.Checkpoint(); err != nil {
		t.Fatalf("re-seal checkpoint: %v", err)
	}
	if err := ts.InjectCrash(0); err != nil {
		t.Fatalf("crash after re-seal: %v", err)
	}
	for k := uint64(0); k < n; k++ {
		v, ok, err := cl.Get(k)
		if err != nil || !ok || v != keyVal(k) {
			t.Fatalf("get %d after re-seal recovery: (%d,%v,%v)", k, v, ok, err)
		}
	}
}

// gatedStore holds pool image saves (sidecars pass) at a gate while one is
// set, announcing each held save on held.
type gatedStore struct {
	pmem.Store
	mu   sync.Mutex
	gate chan struct{}
	held chan string
}

func (g *gatedStore) Save(meta pmem.Meta, data []byte) error {
	g.mu.Lock()
	gate := g.gate
	g.mu.Unlock()
	if gate != nil && !parity.IsSidecar(meta.Name) {
		g.held <- meta.Name
		<-gate
	}
	return g.Store.Save(meta, data)
}

func (g *gatedStore) setGate(gate chan struct{}) {
	g.mu.Lock()
	g.gate = gate
	g.mu.Unlock()
}

// TestInjectQuietOutwaitsReplicaSave: media damage injected through
// InjectQuiet while a replica shard's periodic checkpoint is saving in the
// background lands after that save, so the damage is still in the store
// when the hook returns — the save cannot overwrite it, or leave a sidecar
// describing an image the damage then replaced.
func TestInjectQuietOutwaitsReplicaSave(t *testing.T) {
	inner := pmem.NewMemStore()
	gated := &gatedStore{Store: inner, held: make(chan string, 1)}
	p, r, paddr, _ := startPair(t, 1, nil, func(c *Config) {
		c.CheckpointEvery = 8
		c.StoreFor = func(int) pmem.Store { return gated }
	})
	defer p.Abort()
	defer r.Abort()
	waitFor(t, "follower contact", 5*time.Second, func() bool {
		fs := r.CollectStats().Follower
		return fs != nil && fs.Pulls > 0
	})
	cl, err := Dial(paddr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	put := func(lo, hi uint64) {
		for k := lo; k <= hi; k++ {
			if err := cl.Put(k, k); err != nil {
				t.Fatal(err)
			}
		}
	}
	put(1, 8) // the replica's first checkpoint: an image to damage
	waitFor(t, "replica checkpoint", 5*time.Second, func() bool {
		names, _ := inner.List()
		return len(names) > 0
	})

	gate := make(chan struct{})
	var once sync.Once
	release := func() { once.Do(func() { close(gate) }) }
	defer release() // ahead of the Aborts, which wait for the held save
	gated.setGate(gate)
	put(9, 16)
	name := <-gated.held // the replica's next checkpoint is saving, held
	gated.setGate(nil)

	injected, ran := make(chan error, 1), make(chan struct{})
	go func() {
		injected <- r.InjectQuiet(func() error {
			close(ran)
			_, err := inject.CorruptStored(inner, name, fault.BitFlip, parity.DefaultPageSize, fault.NewRand(7))
			return err
		})
	}()
	// The hook must not run its function while the save is held; give it
	// time to (wrongly) do so before the save may complete.
	select {
	case <-ran:
		t.Fatal("InjectQuiet ran its function while a checkpoint save was in flight")
	case <-time.After(100 * time.Millisecond):
	}
	release()
	if err := <-injected; err != nil {
		t.Fatal(err)
	}
	meta, data, err := inner.Load(name)
	if err != nil {
		t.Fatal(err)
	}
	if pmem.ImageChecksum(data) == meta.Sum {
		t.Fatal("the injected damage is gone from the store: a save overwrote it")
	}
	if got := r.CollectStats().PerShard[0].Checkpoints; got < 2 {
		t.Fatalf("replica checkpoints = %d, want the held one committed too", got)
	}
}
