package cpu

// branchPredictor is a gshare-style predictor: a table of 2-bit saturating
// counters indexed by the branch site hashed with recent global history.
// Destructive aliasing between the workload's own branches and the dynamic
// checks the SW scheme inserts is what drives the misprediction blow-up the
// paper's Figure 13 reports, so the mechanism is modelled rather than
// assumed.
//
// The update is branch-free: the next counter comes from a table and the
// outcome is a bit, so the host does not branch on the simulated outcome.
type branchPredictor struct {
	counters []uint8
	idxMask  uint64 // len(counters)-1
	histMask uint64 // the low histBits bits
	history  uint64
}

// BranchStats counts predictor outcomes.
type BranchStats struct {
	Branches    uint64
	Mispredicts uint64
}

// ctrNext is the saturating counter's next state, indexed by
// counter<<1 | taken.
var ctrNext = [8]uint8{0, 1, 0, 2, 1, 3, 2, 3}

// newBranchPredictor builds a cold predictor; the sizes are those of a
// Config that passed Validate.
func newBranchPredictor(tableBits, histBits uint) branchPredictor {
	return branchPredictor{
		counters: make([]uint8, 1<<tableBits),
		idxMask:  1<<tableBits - 1,
		histMask: 1<<histBits - 1,
	}
}

// predict consumes one conditional branch at the given site with the given
// outcome and returns 1 if the predictor mispredicted it, 0 if not.
func (b *branchPredictor) predict(site uint64, taken bool) uint64 {
	t := boolBit(taken)
	idx := (site ^ b.history) & b.idxMask
	ctr := b.counters[idx]
	b.counters[idx] = ctrNext[(uint64(ctr)<<1|t)&7] // &7: no bounds check
	b.history = (b.history<<1 | t) & b.histMask
	return uint64(ctr>>1) ^ t
}

func boolBit(v bool) uint64 {
	if v {
		return 1
	}
	return 0
}
