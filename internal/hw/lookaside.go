package hw

// Lookaside buffers. Both POLB and VALB are small fully-associative
// structures with true-LRU replacement, as in the paper's Table II (32
// entries, 12-byte entries). Hits cost HitLatency cycles; misses invoke the
// corresponding walker (POW over the POTB hash table, VAW over the VATB
// B-tree) and pay a walk cost before filling the buffer.

// BufferStats counts accesses to one lookaside structure.
type BufferStats struct {
	Hits       uint64
	Misses     uint64
	WalkCycles uint64
}

// Accesses returns total lookups.
func (s BufferStats) Accesses() uint64 { return s.Hits + s.Misses }

// HitRate returns Hits/Accesses, and 0 (not NaN) for an untouched buffer so
// formatted reports stay numeric.
func (s BufferStats) HitRate() float64 {
	if a := s.Accesses(); a > 0 {
		return float64(s.Hits) / float64(a)
	}
	return 0
}

// lruBuffer is a tiny fully-associative cache with LRU ordering. The slice
// front is the most recently used entry.
type lruBuffer[K comparable, V any] struct {
	capacity int
	keys     []K
	vals     []V
}

func newLRUBuffer[K comparable, V any](capacity int) *lruBuffer[K, V] {
	return &lruBuffer[K, V]{capacity: capacity}
}

func (b *lruBuffer[K, V]) get(k K) (V, bool) {
	if len(b.keys) > 0 && b.keys[0] == k {
		return b.vals[0], true // MRU hit: nothing moves
	}
	for i, key := range b.keys {
		if key == k {
			b.touch(i)
			return b.vals[0], true
		}
	}
	var zero V
	return zero, false
}

func (b *lruBuffer[K, V]) touch(i int) {
	k, v := b.keys[i], b.vals[i]
	copy(b.keys[1:i+1], b.keys[:i])
	copy(b.vals[1:i+1], b.vals[:i])
	b.keys[0], b.vals[0] = k, v
}

func (b *lruBuffer[K, V]) put(k K, v V) {
	if len(b.keys) < b.capacity {
		b.keys = append(b.keys, k)
		b.vals = append(b.vals, v)
		b.touch(len(b.keys) - 1)
		return
	}
	// Evict LRU (the last slot) by overwriting it, then promote.
	last := len(b.keys) - 1
	b.keys[last], b.vals[last] = k, v
	b.touch(last)
}

func (b *lruBuffer[K, V]) invalidate(match func(K) bool) {
	for i := 0; i < len(b.keys); {
		if match(b.keys[i]) {
			b.keys = append(b.keys[:i], b.keys[i+1:]...)
			b.vals = append(b.vals[:i], b.vals[i+1:]...)
		} else {
			i++
		}
	}
}

func (b *lruBuffer[K, V]) len() int { return len(b.keys) }

// POTB is the kernel table backing the POLB: pool ID → mapping. A POW walk
// consults it; the walk is modelled as a fixed number of memory references.
type POTB struct {
	entries map[uint32]RangeEntry
}

// NewPOTB returns an empty pool table.
func NewPOTB() *POTB { return &POTB{entries: make(map[uint32]RangeEntry)} }

// Insert registers a pool mapping.
func (t *POTB) Insert(e RangeEntry) { t.entries[e.ID] = e }

// Remove drops a pool mapping.
func (t *POTB) Remove(id uint32) { delete(t.entries, id) }

// Lookup finds a pool mapping by ID.
func (t *POTB) Lookup(id uint32) (RangeEntry, bool) {
	e, ok := t.entries[id]
	return e, ok
}

// Len returns the number of registered pools.
func (t *POTB) Len() int { return len(t.entries) }

// POLB translates pool IDs to current virtual base addresses (the ra2va
// direction), as proposed by prior work the paper builds on.
type POLB struct {
	buf         *lruBuffer[uint32, RangeEntry]
	table       *POTB
	HitLatency  uint64 // cycles on hit
	WalkLatency uint64 // cycles added on miss (POW)
	Stats       BufferStats
}

// Default latencies, from the paper's Table IV (1-cycle POLB; a miss walks
// the kernel table, comparable to an L2 TLB miss).
const (
	DefaultPOLBEntries    = 32
	DefaultPOLBHitCycles  = 1
	DefaultPOLBWalkCycles = 30
	DefaultVALBEntries    = 32
	DefaultVALBHitCycles  = 1
	DefaultVALBWalkCycles = 30
)

// NewPOLB returns a POLB over the given kernel table.
func NewPOLB(table *POTB) *POLB {
	return &POLB{
		buf:         newLRUBuffer[uint32, RangeEntry](DefaultPOLBEntries),
		table:       table,
		HitLatency:  DefaultPOLBHitCycles,
		WalkLatency: DefaultPOLBWalkCycles,
	}
}

// Lookup translates a pool ID to its mapping, returning the cycles consumed.
func (p *POLB) Lookup(id uint32) (RangeEntry, uint64, bool) {
	if e, ok := p.buf.get(id); ok {
		p.Stats.Hits++
		return e, p.HitLatency, true
	}
	p.Stats.Misses++
	e, ok := p.table.Lookup(id)
	cycles := p.HitLatency + p.WalkLatency
	p.Stats.WalkCycles += p.WalkLatency
	if !ok {
		return RangeEntry{}, cycles, false
	}
	p.buf.put(id, e)
	return e, cycles, true
}

// Invalidate drops any cached entry for the pool (on detach/unmap).
func (p *POLB) Invalidate(id uint32) {
	p.buf.invalidate(func(k uint32) bool { return k == id })
}

// VALB translates virtual addresses to pool mappings (the va2ra direction),
// the new structure this paper introduces. A hardware VALB would use a TCAM
// for longest-prefix matching; here each cached entry is a range and lookup
// scans the (32-entry) buffer, with misses walking the VATB B-tree.
type VALB struct {
	buf         []RangeEntry // MRU-ordered ranges
	capacity    int
	table       *VATB
	HitLatency  uint64
	WalkLatency uint64 // cycles per B-tree node visited by the VAW
	Stats       BufferStats
}

// NewVALB returns a VALB over the given B-tree range table.
func NewVALB(table *VATB) *VALB {
	return &VALB{
		capacity:    DefaultVALBEntries,
		table:       table,
		HitLatency:  DefaultVALBHitCycles,
		WalkLatency: DefaultVALBWalkCycles,
	}
}

// Lookup finds the pool range containing va, returning cycles consumed.
func (v *VALB) Lookup(va uint64) (RangeEntry, uint64, bool) {
	for i, e := range v.buf {
		if va >= e.Base && va < e.End() {
			// Promote to MRU.
			copy(v.buf[1:i+1], v.buf[:i])
			v.buf[0] = e
			v.Stats.Hits++
			return e, v.HitLatency, true
		}
	}
	v.Stats.Misses++
	e, nodes, ok := v.table.Lookup(va)
	// Amortized VAW cost: the walk touches `nodes` kernel-table nodes, but
	// the paper models a single amortized latency per walk, so WalkLatency
	// covers the whole walk and `nodes` only scales it when > depth 1.
	walk := v.WalkLatency
	if nodes > 1 {
		walk += uint64(nodes-1) * (v.WalkLatency / 4)
	}
	v.Stats.WalkCycles += walk
	cycles := v.HitLatency + walk
	if !ok {
		return RangeEntry{}, cycles, false
	}
	if len(v.buf) < v.capacity {
		v.buf = append(v.buf, RangeEntry{})
	}
	copy(v.buf[1:], v.buf[:len(v.buf)-1])
	v.buf[0] = e
	return e, cycles, true
}

// Invalidate drops cached ranges belonging to the pool.
func (v *VALB) Invalidate(id uint32) {
	for i := 0; i < len(v.buf); {
		if v.buf[i].ID == id {
			v.buf = append(v.buf[:i], v.buf[i+1:]...)
		} else {
			i++
		}
	}
}
