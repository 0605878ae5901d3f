// Package cpu is the interval-based timing model standing in for the
// paper's Snipersim setup. It models the Table IV machine: a single
// Gainestown-class core with L1/L2/L3 caches, a two-level TLB, a branch
// predictor with an 8-cycle misprediction penalty, 120-cycle DRAM and
// 240-cycle NVM, and the added POLB/VALB translation latencies.
//
// The model is event driven: the runtime layer replays each executed
// instruction, memory access, and branch, and the model accumulates cycles
// — base CPI 1 plus stalls from cache misses, TLB walks, mispredictions,
// and pointer-format translations.
//
// The host side is built for speed without touching the simulated machine:
// flat set-indexed tag arrays, shift-and-mask indexing, and an MRU hit that
// moves nothing. Every simulated count is bit-identical to a plain true-LRU
// model; cpu_test.go holds that model as the oracle.
package cpu

import "math/bits"

// CacheConfig describes one set-associative cache level.
type CacheConfig struct {
	Sets     int
	Ways     int
	LineSize uint64
	// Latency is the added stall in cycles when an access is satisfied at
	// this level (beyond the pipelined L1 hit, which stalls 0 cycles).
	Latency uint64
}

// CacheStats counts per-level outcomes.
type CacheStats struct {
	Hits   uint64
	Misses uint64
}

// Accesses returns total lookups.
func (s CacheStats) Accesses() uint64 { return s.Hits + s.Misses }

// HitRate returns Hits/Accesses, and 0 (not NaN) for an untouched cache so
// formatted reports stay numeric.
func (s CacheStats) HitRate() float64 {
	if a := s.Accesses(); a > 0 {
		return float64(s.Hits) / float64(a)
	}
	return 0
}

// count records one lookup's outcome and returns it.
func (s *CacheStats) count(hit bool) bool {
	if hit {
		s.Hits++
	} else {
		s.Misses++
	}
	return hit
}

// cache is one level of set-associative cache with true-LRU replacement.
// It holds replacement state only; the CPU counts outcomes.
type cache struct {
	// tags is Sets×Ways, set after set, each set MRU first. 0 means
	// invalid, and the valid tags of a set are always a prefix of it.
	tags      []uint64
	ways      uint64
	lineShift uint
	// A power-of-two set count indexes by setMask and setShift. Any other
	// (the 384-set L2 TLB) is held in oddSets and indexes by one division.
	setMask  uint64
	setShift uint
	oddSets  uint64
}

// newCache builds a cold cache; cfg is a level of a Config that passed
// Validate.
func newCache(cfg CacheConfig) cache {
	sets := uint64(cfg.Sets)
	c := cache{
		tags:      make([]uint64, cfg.Sets*cfg.Ways),
		ways:      uint64(cfg.Ways),
		lineShift: uint(bits.TrailingZeros64(cfg.LineSize)),
		setMask:   sets - 1,
		setShift:  uint(bits.TrailingZeros64(sets)),
	}
	if sets&(sets-1) != 0 {
		c.oddSets = sets
	}
	return c
}

// access checks whether the line holding va is resident, updating LRU order
// and filling on miss. It reports hit or miss.
func (c *cache) access(va uint64) bool {
	line := va >> c.lineShift
	set, q := line&c.setMask, line>>c.setShift
	if c.oddSets != 0 {
		q = line / c.oddSets
		set = line - q*c.oddSets
	}
	// Tag 0 would be ambiguous with invalid; bias by +1.
	tag := q + 1
	ways := c.tags[set*c.ways : (set+1)*c.ways]
	if ways[0] == tag {
		return true // MRU hit: nothing moves
	}
	n := 0 // valid tags seen
	for ; n < len(ways) && ways[n] != 0; n++ {
		if ways[n] == tag {
			copy(ways[1:n+1], ways[:n])
			ways[0] = tag
			return true
		}
	}
	// Shift the valid prefix down one way, dropping the LRU tag when the
	// set is full, and fill at MRU.
	if n == len(ways) {
		n--
	}
	copy(ways[1:n+1], ways[:n])
	ways[0] = tag
	return false
}

// flush invalidates the whole cache.
func (c *cache) flush() { clear(c.tags) }
