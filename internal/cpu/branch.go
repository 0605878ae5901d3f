package cpu

// branchPredictor is a gshare-style predictor: a table of 2-bit saturating
// counters indexed by the branch site hashed with recent global history.
// Destructive aliasing between the workload's own branches and the dynamic
// checks the SW scheme inserts is what drives the misprediction blow-up the
// paper's Figure 13 reports, so the mechanism is modelled rather than
// assumed.
type branchPredictor struct {
	counters []uint8
	history  uint64
	histBits uint
	Stats    BranchStats
}

// BranchStats counts predictor outcomes.
type BranchStats struct {
	Branches    uint64
	Mispredicts uint64
}

func newBranchPredictor(tableBits, histBits uint) *branchPredictor {
	return &branchPredictor{
		counters: make([]uint8, 1<<tableBits),
		histBits: histBits,
	}
}

// predict consumes one conditional branch at the given site with the given
// outcome and reports whether the predictor mispredicted it.
func (b *branchPredictor) predict(site uint64, taken bool) bool {
	mask := uint64(len(b.counters) - 1)
	idx := (site ^ b.history) & mask
	ctr := b.counters[idx]
	predictedTaken := ctr >= 2

	if taken && ctr < 3 {
		b.counters[idx] = ctr + 1
	} else if !taken && ctr > 0 {
		b.counters[idx] = ctr - 1
	}
	b.history = ((b.history << 1) | boolBit(taken)) & ((1 << b.histBits) - 1)

	b.Stats.Branches++
	mispredicted := predictedTaken != taken
	if mispredicted {
		b.Stats.Mispredicts++
	}
	return mispredicted
}

func boolBit(v bool) uint64 {
	if v {
		return 1
	}
	return 0
}
