package cpu

import (
	"fmt"

	"nvref/internal/mem"
)

// Config carries the machine parameters of the paper's Table IV.
type Config struct {
	L1  CacheConfig
	L2  CacheConfig
	L3  CacheConfig
	TLB TLBConfig

	// DRAMLatency and NVMLatency are main-memory stalls in cycles; the NVM
	// half of the address space (bit 47 set) pays NVMLatency.
	DRAMLatency uint64
	NVMLatency  uint64

	// MispredictPenalty is the branch misprediction stall.
	MispredictPenalty uint64

	// Branch predictor geometry.
	PredictorBits uint
	HistoryBits   uint
}

// TLBConfig describes the two-level TLB.
type TLBConfig struct {
	L1Sets, L1Ways int
	L2Sets, L2Ways int
	PageSize       uint64
	// L2HitLatency stalls when the L1 TLB misses but L2 hits; WalkLatency
	// stalls on a full miss (page walk).
	L2HitLatency uint64
	WalkLatency  uint64
}

// DefaultConfig returns the paper's Table IV machine: 64B lines; 32KB
// 8-way L1 (4 cycles, hidden by the pipeline); 256KB 8-way L2 (12 cycles);
// 2MB 8-way L3 (40 cycles); 120-cycle DRAM and 240-cycle NVM; 64-entry
// 4-way L1 TLB; 1536-entry 4-way L2 TLB (7-cycle hit, 30-cycle walk);
// 8-cycle branch misprediction penalty.
func DefaultConfig() Config {
	return Config{
		L1: CacheConfig{Sets: 64, Ways: 8, LineSize: 64, Latency: 0},
		L2: CacheConfig{Sets: 512, Ways: 8, LineSize: 64, Latency: 12},
		L3: CacheConfig{Sets: 4096, Ways: 8, LineSize: 64, Latency: 40},
		TLB: TLBConfig{
			L1Sets: 16, L1Ways: 4,
			L2Sets: 384, L2Ways: 4,
			PageSize:     4096,
			L2HitLatency: 7,
			WalkLatency:  30,
		},
		DRAMLatency:       120,
		NVMLatency:        240,
		MispredictPenalty: 8,
		PredictorBits:     10,
		HistoryBits:       8,
	}
}

// Limits on the predictor geometry: a table of 1<<maxPredictorBits
// counters (16 MiB) is the largest the model allocates, and the global
// history is a shift register in one word.
const (
	maxPredictorBits = 24
	maxHistoryBits   = 63
)

// Validate reports the first field the model cannot index: a LineSize or
// TLB.PageSize that is not a power of two, a Sets or Ways count that is
// not positive, or a PredictorBits or HistoryBits beyond its limit.
func (cfg Config) Validate() error {
	for _, f := range []struct {
		name string
		v    int
	}{
		{"L1.Sets", cfg.L1.Sets}, {"L1.Ways", cfg.L1.Ways},
		{"L2.Sets", cfg.L2.Sets}, {"L2.Ways", cfg.L2.Ways},
		{"L3.Sets", cfg.L3.Sets}, {"L3.Ways", cfg.L3.Ways},
		{"TLB.L1Sets", cfg.TLB.L1Sets}, {"TLB.L1Ways", cfg.TLB.L1Ways},
		{"TLB.L2Sets", cfg.TLB.L2Sets}, {"TLB.L2Ways", cfg.TLB.L2Ways},
	} {
		if f.v <= 0 {
			return fmt.Errorf("cpu: %s = %d, want > 0", f.name, f.v)
		}
	}
	for _, f := range []struct {
		name string
		v    uint64
	}{
		{"L1.LineSize", cfg.L1.LineSize}, {"L2.LineSize", cfg.L2.LineSize},
		{"L3.LineSize", cfg.L3.LineSize}, {"TLB.PageSize", cfg.TLB.PageSize},
	} {
		if f.v == 0 || f.v&(f.v-1) != 0 {
			return fmt.Errorf("cpu: %s = %d, want a power of two", f.name, f.v)
		}
	}
	for _, f := range []struct {
		name   string
		v, max uint
	}{
		{"PredictorBits", cfg.PredictorBits, maxPredictorBits},
		{"HistoryBits", cfg.HistoryBits, maxHistoryBits},
	} {
		if f.v > f.max {
			return fmt.Errorf("cpu: %s = %d, want <= %d", f.name, f.v, f.max)
		}
	}
	return nil
}

// Stats aggregates everything the experiments report.
type Stats struct {
	Cycles       uint64
	Instructions uint64
	Loads        uint64
	Stores       uint64

	L1  CacheStats
	L2  CacheStats
	L3  CacheStats
	TLB TLBStats

	Branch BranchStats

	DRAMAccesses uint64
	NVMAccesses  uint64

	// TranslationCycles are stalls contributed by POLB/VALB/walkers,
	// credited via AddTranslationCycles.
	TranslationCycles uint64
}

// MemoryAccesses is the total number of loads and stores.
func (s Stats) MemoryAccesses() uint64 { return s.Loads + s.Stores }

// TLBStats counts TLB outcomes.
type TLBStats struct {
	L1Hits uint64
	L2Hits uint64
	Walks  uint64
}

// Accesses returns total translations.
func (s TLBStats) Accesses() uint64 { return s.L1Hits + s.L2Hits + s.Walks }

// HitRate returns the fraction of translations served without a page walk,
// and 0 (not NaN) when no translations happened.
func (s TLBStats) HitRate() float64 {
	if a := s.Accesses(); a > 0 {
		return float64(s.L1Hits+s.L2Hits) / float64(a)
	}
	return 0
}

// CPU is the single-core timing model.
type CPU struct {
	cfg          Config
	l1, l2, l3   cache
	tlbL1, tlbL2 cache
	bp           branchPredictor
	pf           *prefetcher // nil unless EnablePrefetcher is called

	// memoPage and memoLine are the TLB page and L1 line of the previous
	// access. memoOK is false after a flush and while a prefetcher is
	// attached (its covered/observe must see every access).
	memoPage, memoLine uint64
	memoOK             bool

	Stats Stats
}

// New returns a CPU with cold caches. cfg must pass Validate; rt.New
// checks it for every configuration a caller supplies.
func New(cfg Config) *CPU {
	return &CPU{
		cfg: cfg,
		l1:  newCache(cfg.L1),
		l2:  newCache(cfg.L2),
		l3:  newCache(cfg.L3),
		tlbL1: newCache(CacheConfig{
			Sets: cfg.TLB.L1Sets, Ways: cfg.TLB.L1Ways, LineSize: cfg.TLB.PageSize,
		}),
		tlbL2: newCache(CacheConfig{
			Sets: cfg.TLB.L2Sets, Ways: cfg.TLB.L2Ways, LineSize: cfg.TLB.PageSize,
		}),
		bp: newBranchPredictor(cfg.PredictorBits, cfg.HistoryBits),
	}
}

// Config returns the machine parameters.
func (c *CPU) Config() Config { return c.cfg }

// EnablePrefetcher attaches a virtual-address stride prefetcher (the
// Section VI discussion); the default machine runs without one, as the
// paper's does.
func (c *CPU) EnablePrefetcher(cfg PrefetcherConfig) {
	c.pf = newPrefetcher(cfg)
	c.memoOK = false
}

// Prefetch returns the prefetcher statistics (zero value when disabled).
func (c *CPU) Prefetch() PrefetchStats {
	if c.pf == nil {
		return PrefetchStats{}
	}
	return c.pf.Stats
}

// Exec retires n non-memory instructions at CPI 1.
func (c *CPU) Exec(n uint64) {
	c.Stats.Instructions += n
	c.Stats.Cycles += n
}

// Load replays one data load at va.
func (c *CPU) Load(va uint64) {
	c.Stats.Loads++
	c.memAccess(va)
}

// Store replays one data store at va.
func (c *CPU) Store(va uint64) {
	c.Stats.Stores++
	c.memAccess(va)
}

func (c *CPU) memAccess(va uint64) {
	c.Stats.Instructions++
	c.Stats.Cycles++ // the access instruction itself

	// The previous access left its page MRU in the L1 TLB and its line MRU
	// in L1, and an MRU hit moves nothing: the same page and line again
	// only counts the two hits. Both are keyed, because a page may be
	// smaller than a line.
	page, line := va>>c.tlbL1.lineShift, va>>c.l1.lineShift
	if page == c.memoPage && line == c.memoLine && c.memoOK {
		c.Stats.TLB.L1Hits++
		c.Stats.L1.Hits++
		c.Stats.Cycles += c.cfg.L1.Latency
		return
	}
	c.memoPage, c.memoLine, c.memoOK = page, line, c.pf == nil

	covered := false
	if c.pf != nil {
		covered = c.pf.covered(va)
		c.pf.observe(va)
	}

	// Address translation.
	if c.tlbL1.access(va) {
		c.Stats.TLB.L1Hits++
	} else if c.tlbL2.access(va) {
		c.Stats.TLB.L2Hits++
		c.Stats.Cycles += c.cfg.TLB.L2HitLatency
	} else {
		c.Stats.TLB.Walks++
		c.Stats.Cycles += c.cfg.TLB.WalkLatency
	}

	// Cache hierarchy. A line covered by an in-flight prefetch costs a
	// hit regardless of where it would otherwise have been found.
	switch {
	case c.Stats.L1.count(c.l1.access(va)):
		c.Stats.Cycles += c.cfg.L1.Latency
	case c.Stats.L2.count(c.l2.access(va)):
		if !covered {
			c.Stats.Cycles += c.cfg.L2.Latency
		}
	case c.Stats.L3.count(c.l3.access(va)):
		if !covered {
			c.Stats.Cycles += c.cfg.L3.Latency
		}
	default:
		if mem.IsNVM(va) {
			c.Stats.NVMAccesses++
			if !covered {
				c.Stats.Cycles += c.cfg.NVMLatency
			}
		} else {
			c.Stats.DRAMAccesses++
			if !covered {
				c.Stats.Cycles += c.cfg.DRAMLatency
			}
		}
	}
}

// Branch replays one conditional branch identified by its static site.
func (c *CPU) Branch(site uint64, taken bool) {
	miss := c.bp.predict(site, taken)
	c.Stats.Instructions++
	c.Stats.Cycles += 1 + miss*c.cfg.MispredictPenalty
	c.Stats.Branch.Branches++
	c.Stats.Branch.Mispredicts += miss
}

// AddTranslationCycles credits stalls from the POLB/VALB structures.
func (c *CPU) AddTranslationCycles(n uint64) {
	c.Stats.Cycles += n
	c.Stats.TranslationCycles += n
}

// FlushCaches empties the caches and TLBs (used between benchmark phases).
func (c *CPU) FlushCaches() {
	c.memoOK = false
	c.l1.flush()
	c.l2.flush()
	c.l3.flush()
	c.tlbL1.flush()
	c.tlbL2.flush()
}
