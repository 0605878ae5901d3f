package cpu

import (
	"math/rand"
	"testing"
	"testing/quick"

	"nvref/internal/mem"
)

func TestExecRetiresAtCPI1(t *testing.T) {
	c := New(DefaultConfig())
	c.Exec(100)
	if c.Stats.Cycles != 100 || c.Stats.Instructions != 100 {
		t.Errorf("stats after Exec(100): %+v", c.Stats)
	}
}

func TestCacheHierarchyLatencies(t *testing.T) {
	cfg := DefaultConfig()
	c := New(cfg)
	va := uint64(0x10000)

	c.Load(va) // cold: TLB walk + memory
	cold := c.Stats.Cycles
	wantCold := uint64(1) + cfg.TLB.WalkLatency + cfg.DRAMLatency
	if cold != wantCold {
		t.Errorf("cold DRAM load = %d cycles, want %d", cold, wantCold)
	}

	c.Load(va) // warm: everything hits
	warm := c.Stats.Cycles - cold
	if warm != 1 {
		t.Errorf("warm load = %d cycles, want 1", warm)
	}
}

func TestNVMCostsMoreThanDRAM(t *testing.T) {
	cfg := DefaultConfig()
	nvmVA := uint64(1)<<47 | 0x10000

	cd := New(cfg)
	cd.Load(0x10000)
	cn := New(cfg)
	cn.Load(nvmVA)
	if cn.Stats.Cycles-cd.Stats.Cycles != cfg.NVMLatency-cfg.DRAMLatency {
		t.Errorf("NVM cold load = %d, DRAM = %d; delta should be %d",
			cn.Stats.Cycles, cd.Stats.Cycles, cfg.NVMLatency-cfg.DRAMLatency)
	}
	if cn.Stats.NVMAccesses != 1 || cd.Stats.DRAMAccesses != 1 {
		t.Error("memory access accounting wrong")
	}
}

func TestL1EvictionFallsToL2(t *testing.T) {
	cfg := DefaultConfig()
	c := New(cfg)
	// Touch enough distinct lines mapping to one L1 set to evict:
	// stride = sets*lineSize so all map to set 0; ways+1 lines.
	stride := uint64(cfg.L1.Sets) * cfg.L1.LineSize
	n := cfg.L1.Ways + 1
	for i := 0; i < n; i++ {
		c.Load(uint64(i) * stride)
	}
	// The first line is evicted from L1 but resident in L2.
	before := c.Stats.Cycles
	c.Load(0)
	delta := c.Stats.Cycles - before
	if delta != 1+cfg.L2.Latency {
		t.Errorf("L2 hit = %d cycles, want %d", delta, 1+cfg.L2.Latency)
	}
}

func TestBranchPredictorLearnsBias(t *testing.T) {
	c := New(DefaultConfig())
	site := uint64(0x400123)
	for i := 0; i < 1000; i++ {
		c.Branch(site, true)
	}
	if c.Stats.Branch.Mispredicts > 10 {
		t.Errorf("biased branch mispredicted %d/1000 times", c.Stats.Branch.Mispredicts)
	}
}

func TestBranchPredictorStrugglesWithRandomPattern(t *testing.T) {
	c := New(DefaultConfig())
	site := uint64(0x400123)
	// A pseudo-random pattern should mispredict far more often than a
	// biased one.
	x := uint64(0x9e3779b97f4a7c15)
	for i := 0; i < 2000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		c.Branch(site, x&1 == 0)
	}
	if c.Stats.Branch.Mispredicts < 200 {
		t.Errorf("random branch mispredicted only %d/2000 times", c.Stats.Branch.Mispredicts)
	}
}

func TestMispredictPenaltyApplied(t *testing.T) {
	cfg := DefaultConfig()
	c := New(cfg)
	// Alternate a single site: the 2-bit counter mispredicts heavily.
	for i := 0; i < 100; i++ {
		c.Branch(1, i%2 == 0)
	}
	minCycles := uint64(100) + c.Stats.Branch.Mispredicts*cfg.MispredictPenalty
	if c.Stats.Cycles != minCycles {
		t.Errorf("cycles = %d, want %d (mispredicts=%d)",
			c.Stats.Cycles, minCycles, c.Stats.Branch.Mispredicts)
	}
}

func TestAddTranslationCycles(t *testing.T) {
	c := New(DefaultConfig())
	c.AddTranslationCycles(17)
	if c.Stats.Cycles != 17 || c.Stats.TranslationCycles != 17 {
		t.Errorf("stats = %+v", c.Stats)
	}
}

func TestFlushCaches(t *testing.T) {
	cfg := DefaultConfig()
	c := New(cfg)
	c.Load(0x10000)
	c.FlushCaches()
	before := c.Stats.Cycles
	c.Load(0x10000)
	delta := c.Stats.Cycles - before
	want := uint64(1) + cfg.TLB.WalkLatency + cfg.DRAMLatency
	if delta != want {
		t.Errorf("post-flush load = %d cycles, want %d", delta, want)
	}
}

func TestTLBTwoLevels(t *testing.T) {
	cfg := DefaultConfig()
	c := New(cfg)
	// Touch more pages than L1 TLB entries within one L1 TLB set: stride
	// by L1Sets pages so all map to one set.
	pageStride := uint64(cfg.TLB.L1Sets) * cfg.TLB.PageSize
	for i := 0; i < cfg.TLB.L1Ways+1; i++ {
		c.Load(uint64(i) * pageStride)
	}
	if c.Stats.TLB.Walks != uint64(cfg.TLB.L1Ways+1) {
		t.Fatalf("cold walks = %d", c.Stats.TLB.Walks)
	}
	// First page evicted from L1 TLB but resident in L2 TLB.
	c.Load(0)
	if c.Stats.TLB.L2Hits != 1 {
		t.Errorf("L2 TLB hits = %d, want 1", c.Stats.TLB.L2Hits)
	}
}

// Property: cycles grow monotonically with every event.
func TestQuickCyclesMonotone(t *testing.T) {
	c := New(DefaultConfig())
	prev := uint64(0)
	f := func(kind uint8, addr uint32, taken bool) bool {
		switch kind % 4 {
		case 0:
			c.Exec(1)
		case 1:
			c.Load(uint64(addr))
		case 2:
			c.Store(uint64(addr))
		case 3:
			c.Branch(uint64(addr), taken)
		}
		ok := c.Stats.Cycles > prev
		prev = c.Stats.Cycles
		return ok
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: L1 stats partition accesses (hits+misses == loads+stores).
func TestQuickL1AccountingPartitions(t *testing.T) {
	c := New(DefaultConfig())
	f := func(addrs []uint32) bool {
		for _, a := range addrs {
			if a%2 == 0 {
				c.Load(uint64(a))
			} else {
				c.Store(uint64(a))
			}
		}
		return c.Stats.L1.Hits+c.Stats.L1.Misses == c.Stats.MemoryAccesses()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// refCache is the slice-of-slices true-LRU cache the flat cache replaced,
// kept as the oracle for its hit/miss sequence.
type refCache struct {
	cfg   CacheConfig
	tags  [][]uint64 // [set][way], MRU first
	Stats CacheStats
}

func newRefCache(cfg CacheConfig) *refCache {
	tags := make([][]uint64, cfg.Sets)
	for i := range tags {
		tags[i] = make([]uint64, 0, cfg.Ways)
	}
	return &refCache{cfg: cfg, tags: tags}
}

func (c *refCache) access(va uint64) bool {
	line := va / c.cfg.LineSize
	set := line % uint64(c.cfg.Sets)
	tag := line/uint64(c.cfg.Sets) + 1
	ways := c.tags[set]
	for i, t := range ways {
		if t == tag {
			copy(ways[1:i+1], ways[:i])
			ways[0] = tag
			c.Stats.Hits++
			return true
		}
	}
	c.Stats.Misses++
	if len(ways) < c.cfg.Ways {
		ways = append(ways, 0)
		c.tags[set] = ways
	}
	copy(ways[1:], ways[:len(ways)-1])
	ways[0] = tag
	return false
}

func (c *refCache) flush() {
	for i := range c.tags {
		c.tags[i] = c.tags[i][:0]
	}
}

// refPredictor is the gshare predictor written the plain way: a table of
// 2-bit saturating counters indexed by the site hashed with the global
// history, updated with a branch per case. The branch-free predictor must
// mispredict exactly where it does.
type refPredictor struct {
	counters []uint8
	history  uint64
	histBits uint
	Stats    BranchStats
}

func (b *refPredictor) predict(site uint64, taken bool) bool {
	mask := uint64(len(b.counters) - 1)
	idx := (site ^ b.history) & mask
	ctr := b.counters[idx]
	predictedTaken := ctr >= 2
	if taken && ctr < 3 {
		b.counters[idx] = ctr + 1
	} else if !taken && ctr > 0 {
		b.counters[idx] = ctr - 1
	}
	bit := uint64(0)
	if taken {
		bit = 1
	}
	b.history = ((b.history << 1) | bit) & ((1 << b.histBits) - 1)
	b.Stats.Branches++
	mispredicted := predictedTaken != taken
	if mispredicted {
		b.Stats.Mispredicts++
	}
	return mispredicted
}

// refCPU is memAccess over refCaches: the plain model whose counts the CPU
// must reproduce exactly.
type refCPU struct {
	cfg                      Config
	l1, l2, l3, tlbL1, tlbL2 *refCache
	bp                       *refPredictor
	pf                       *prefetcher
	Stats                    Stats
}

func newRefCPU(cfg Config) *refCPU {
	return &refCPU{
		cfg:   cfg,
		l1:    newRefCache(cfg.L1),
		l2:    newRefCache(cfg.L2),
		l3:    newRefCache(cfg.L3),
		tlbL1: newRefCache(CacheConfig{Sets: cfg.TLB.L1Sets, Ways: cfg.TLB.L1Ways, LineSize: cfg.TLB.PageSize}),
		tlbL2: newRefCache(CacheConfig{Sets: cfg.TLB.L2Sets, Ways: cfg.TLB.L2Ways, LineSize: cfg.TLB.PageSize}),
		bp:    &refPredictor{counters: make([]uint8, 1<<cfg.PredictorBits), histBits: cfg.HistoryBits},
	}
}

func (c *refCPU) memAccess(va uint64) {
	c.Stats.Instructions++
	c.Stats.Cycles++
	covered := false
	if c.pf != nil {
		covered = c.pf.covered(va)
		c.pf.observe(va)
	}
	if c.tlbL1.access(va) {
		c.Stats.TLB.L1Hits++
	} else if c.tlbL2.access(va) {
		c.Stats.TLB.L2Hits++
		c.Stats.Cycles += c.cfg.TLB.L2HitLatency
	} else {
		c.Stats.TLB.Walks++
		c.Stats.Cycles += c.cfg.TLB.WalkLatency
	}
	stall := func(lat uint64) {
		if !covered {
			c.Stats.Cycles += lat
		}
	}
	switch {
	case c.l1.access(va):
		c.Stats.Cycles += c.cfg.L1.Latency
	case c.l2.access(va):
		stall(c.cfg.L2.Latency)
	case c.l3.access(va):
		stall(c.cfg.L3.Latency)
	case mem.IsNVM(va):
		c.Stats.NVMAccesses++
		stall(c.cfg.NVMLatency)
	default:
		c.Stats.DRAMAccesses++
		stall(c.cfg.DRAMLatency)
	}
	c.Stats.L1, c.Stats.L2, c.Stats.L3 = c.l1.Stats, c.l2.Stats, c.l3.Stats
}

func (c *refCPU) branch(site uint64, taken bool) {
	c.Stats.Instructions++
	c.Stats.Cycles++
	if c.bp.predict(site, taken) {
		c.Stats.Cycles += c.cfg.MispredictPenalty
	}
	c.Stats.Branch = c.bp.Stats
}

func (c *refCPU) flush() {
	for _, l := range []*refCache{c.l1, c.l2, c.l3, c.tlbL1, c.tlbL2} {
		l.flush()
	}
}

// oracleGeometries are the cache shapes the flat cache is checked on: every
// level of the Table IV machine (the 384-set L2 TLB is the one set count
// that is not a power of two), a fully associative cache and a 3-way one.
func oracleGeometries() map[string]CacheConfig {
	d := DefaultConfig()
	return map[string]CacheConfig{
		"L1":          d.L1,
		"L2":          d.L2,
		"L3":          d.L3,
		"TLB-L1":      {Sets: d.TLB.L1Sets, Ways: d.TLB.L1Ways, LineSize: d.TLB.PageSize},
		"TLB-L2":      {Sets: d.TLB.L2Sets, Ways: d.TLB.L2Ways, LineSize: d.TLB.PageSize},
		"fully-assoc": {Sets: 1, Ways: 16, LineSize: 64},
		"3-way":       {Sets: 12, Ways: 3, LineSize: 32},
	}
}

// streamAddr draws the next address of a stream that mixes same-line
// repeats, set-conflict strides (up to twice a set's ways, all mapping to
// one set of cfg), sequential steps and random addresses over a window a
// few times the cache's reach, in either half of the address space.
func streamAddr(rng *rand.Rand, cfg CacheConfig, prev uint64) uint64 {
	reach := uint64(cfg.Sets*cfg.Ways) * cfg.LineSize
	half := uint64(0)
	if rng.Intn(4) == 0 {
		half = mem.NVMBit
	}
	switch rng.Intn(4) {
	case 0:
		return prev&^(cfg.LineSize-1) + uint64(rng.Int63n(int64(cfg.LineSize)))
	case 1:
		stride := uint64(cfg.Sets) * cfg.LineSize
		return half + uint64(rng.Intn(2*cfg.Ways+1))*stride
	case 2:
		return prev + 8
	default:
		return half + uint64(rng.Int63n(int64(4*reach)))
	}
}

// Property: for every geometry and address stream, the flat cache hits and
// misses exactly where the slice-of-slices oracle does.
func TestCacheMatchesOracle(t *testing.T) {
	for name, cfg := range oracleGeometries() {
		f := func(seed int64) bool {
			rng := rand.New(rand.NewSource(seed))
			c, ref := newCache(cfg), newRefCache(cfg)
			var got CacheStats
			va := uint64(0)
			for i := 0; i < 4000; i++ {
				if rng.Intn(1000) == 0 {
					c.flush()
					ref.flush()
				}
				va = streamAddr(rng, cfg, va)
				if got.count(c.access(va)) != ref.access(va) {
					t.Logf("%s seed %d: access %d (%#x) disagrees", name, seed, i, va)
					return false
				}
			}
			return got == ref.Stats
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// Property: a whole CPU keeps Stats (and prefetcher stats) equal to the
// reference model's after every event, with flushes and a prefetcher
// attached mid-stream.
func TestCPUMatchesOracle(t *testing.T) {
	odd := DefaultConfig()
	odd.L1 = CacheConfig{Sets: 32, Ways: 3, LineSize: 32, Latency: 4}
	odd.L2.Sets = 384
	smallPage := DefaultConfig()
	smallPage.TLB.PageSize = 32 // smaller than an L1 line
	predictor := DefaultConfig()
	predictor.PredictorBits, predictor.HistoryBits = 4, 12 // history wider than the index
	for name, cfg := range map[string]Config{
		"default": DefaultConfig(), "odd": odd, "small-page": smallPage, "predictor": predictor,
	} {
		f := func(seed int64) bool {
			rng := rand.New(rand.NewSource(seed))
			c, ref := New(cfg), newRefCPU(cfg)
			va := uint64(0x10000)
			for i := 0; i < 3000; i++ {
				switch k := rng.Intn(100); {
				case k < 60:
					va = streamAddr(rng, cfg.L1, va)
					if k%2 == 0 {
						c.Load(va)
						ref.Stats.Loads++
					} else {
						c.Store(va)
						ref.Stats.Stores++
					}
					ref.memAccess(va)
				case k < 80:
					site, taken := uint64(rng.Intn(64)), rng.Intn(3) != 0
					c.Branch(site, taken)
					ref.branch(site, taken)
				case k < 90:
					c.Exec(3)
					ref.Stats.Instructions += 3
					ref.Stats.Cycles += 3
				case k < 99:
					c.AddTranslationCycles(5)
					ref.Stats.Cycles += 5
					ref.Stats.TranslationCycles += 5
				case rng.Intn(2) == 0:
					c.FlushCaches()
					ref.flush()
				case ref.pf == nil:
					c.EnablePrefetcher(DefaultPrefetcherConfig())
					ref.pf = newPrefetcher(DefaultPrefetcherConfig())
				}
				var refPf PrefetchStats
				if ref.pf != nil {
					refPf = ref.pf.Stats
				}
				if c.Stats != ref.Stats || c.Prefetch() != refPf {
					t.Logf("%s seed %d event %d:\n got %+v\nwant %+v", name, seed, i, c.Stats, ref.Stats)
					return false
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// TestMemAccessDoesNotAllocate holds the default machine's loads and
// stores, hits and misses alike, to zero heap allocations.
func TestMemAccessDoesNotAllocate(t *testing.T) {
	c := New(DefaultConfig())
	va := uint64(0)
	if n := testing.AllocsPerRun(1000, func() {
		c.Load(va)
		c.Store(va + 8)
		va += 4104 // a new line and page every time
	}); n != 0 {
		t.Errorf("%v allocations per access pair, want 0", n)
	}
}

func TestValidateNamesField(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("DefaultConfig: %v", err)
	}
	for _, c := range []struct {
		name string
		edit func(*Config)
		want string
	}{
		{"PageSize 0", func(c *Config) { c.TLB.PageSize = 0 }, "cpu: TLB.PageSize = 0, want a power of two"},
		{"PredictorBits 63", func(c *Config) { c.PredictorBits = 63 }, "cpu: PredictorBits = 63, want <= 24"},
		{"HistoryBits 64", func(c *Config) { c.HistoryBits = 64 }, "cpu: HistoryBits = 64, want <= 63"},
	} {
		bad := DefaultConfig()
		c.edit(&bad)
		if err := bad.Validate(); err == nil || err.Error() != c.want {
			t.Errorf("%s: %v, want %q", c.name, err, c.want)
		}
	}
	top := DefaultConfig()
	top.PredictorBits, top.HistoryBits = maxPredictorBits, maxHistoryBits
	if err := top.Validate(); err != nil {
		t.Errorf("largest predictor: %v", err)
	}
}

// BenchmarkMemAccess times one simulated load on the default machine for
// four address streams: the same line over and over (an MRU hit), a
// sequential walk, a walk that keeps one L1 set thrashing, and random
// addresses over 1 GiB.
func BenchmarkMemAccess(b *testing.B) {
	cfg := DefaultConfig()
	conflict := uint64(cfg.L1.Sets) * cfg.L1.LineSize
	for _, s := range []struct {
		name string
		addr func(i uint64) uint64
	}{
		{"same-line", func(i uint64) uint64 { return 0x10000 + i&7*8 }},
		{"sequential", func(i uint64) uint64 { return i * 8 }},
		{"set-conflict", func(i uint64) uint64 { return i % 16 * conflict }},
		{"random", func(i uint64) uint64 { return (i * 0x9e3779b97f4a7c15) >> 34 }},
	} {
		b.Run(s.name, func(b *testing.B) {
			c := New(cfg)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				c.Load(s.addr(uint64(i)))
			}
		})
	}
}

// BenchmarkBranch times one simulated branch on the default machine for two
// outcome streams over 64 sites: biased (each site taken 15 times in 16,
// which the predictor learns) and random (xorshift outcomes, which it
// cannot).
func BenchmarkBranch(b *testing.B) {
	for _, s := range []struct {
		name  string
		taken func(x uint64) bool
	}{
		{"biased", func(x uint64) bool { return x&15 != 0 }},
		{"random", func(x uint64) bool { return x&1 == 0 }},
	} {
		b.Run(s.name, func(b *testing.B) {
			c := New(DefaultConfig())
			x := uint64(0x9e3779b97f4a7c15)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				x ^= x << 13
				x ^= x >> 7
				x ^= x << 17
				c.Branch(uint64(i)&63, s.taken(x))
			}
		})
	}
}
