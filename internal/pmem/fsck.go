package pmem

import "fmt"

// Fsck is the pool-level consistency checker: the full-structure extension
// of VerifyRelocatable the crash-point harness runs after every simulated
// crash. It walks the allocator's durable metadata — the header, the free
// list, and every block between HeapStart and the bump pointer — and
// classifies what it finds:
//
//   - Errors are structural corruption the allocator's crash-ordered
//     stores can never produce: an unparseable heap, an unsorted or cyclic
//     free list, a free-list entry that is not on a block boundary.
//
//   - Warnings are the benign residue of a crash mid-operation: blocks
//     that are neither live nor on the free list (leaked by an interrupted
//     Alloc or Free) and header statistics that disagree with the walk.
//     Repair reclaims and recomputes them.

// FsckSeverity classifies one finding.
type FsckSeverity int

const (
	// FsckWarn marks repairable crash residue.
	FsckWarn FsckSeverity = iota
	// FsckError marks structural corruption Repair refuses to touch.
	FsckError
)

func (s FsckSeverity) String() string {
	if s == FsckError {
		return "error"
	}
	return "warn"
}

// FsckIssue is one finding.
type FsckIssue struct {
	Severity FsckSeverity
	Offset   uint64 // pool offset the finding concerns (0 for header/stats)
	Detail   string
}

func (i FsckIssue) String() string {
	return fmt.Sprintf("%s: offset %#x: %s", i.Severity, i.Offset, i.Detail)
}

// FsckReport is the result of one check.
type FsckReport struct {
	Issues []FsckIssue

	LiveBlocks, FreeBlocks, LeakedBlocks int
	LiveBytes, FreeBytes, LeakedBytes    uint64 // all include block headers
	BumpNext                             uint64

	// Header statistics as claimed by the pool, for comparison with the
	// walked Live values above.
	StatsAllocCount, StatsBytesInUse uint64
}

// Clean reports a pool with no findings at all.
func (r *FsckReport) Clean() bool { return len(r.Issues) == 0 }

// Consistent reports a pool free of structural corruption; repairable
// warnings may remain.
func (r *FsckReport) Consistent() bool {
	for _, i := range r.Issues {
		if i.Severity == FsckError {
			return false
		}
	}
	return true
}

// Errors returns only the corruption findings.
func (r *FsckReport) Errors() []FsckIssue {
	var out []FsckIssue
	for _, i := range r.Issues {
		if i.Severity == FsckError {
			out = append(out, i)
		}
	}
	return out
}

func (r *FsckReport) addf(sev FsckSeverity, off uint64, format string, args ...any) {
	r.Issues = append(r.Issues, FsckIssue{Severity: sev, Offset: off, Detail: fmt.Sprintf(format, args...)})
}

// blockClass classifies one walked block.
type blockClass int

const (
	blockLive blockClass = iota
	blockFree
	blockLeaked
)

// fsckBlock is one block the heap walk visited.
type fsckBlock struct {
	off, size uint64
	class     blockClass
}

const minBlockSize = blockHeaderSize + allocAlign

// Fsck checks the pool's allocator structures and returns a report. The
// pool must be attached.
func Fsck(p *Pool) *FsckReport {
	rep, _ := fsckScan(p)
	return rep
}

// record accumulates the scan's findings into the owning registry's stats.
func (r *FsckReport) record(reg *Registry) {
	reg.Stats.FsckRuns++
	for _, i := range r.Issues {
		if i.Severity == FsckError {
			reg.Stats.FsckErrors++
		} else {
			reg.Stats.FsckWarns++
		}
	}
}

func fsckScan(p *Pool) (*FsckReport, []fsckBlock) {
	rep, blocks := fsckWalk(p)
	rep.record(p.reg)
	return rep, blocks
}

func fsckWalk(p *Pool) (*FsckReport, []fsckBlock) {
	rep := &FsckReport{}
	if !p.attached {
		rep.addf(FsckError, 0, "pool %q is detached", p.name)
		return rep, nil
	}
	if err := p.checkHeader(); err != nil {
		rep.addf(FsckError, 0, "header: %v", err)
		return rep, nil
	}
	rep.StatsAllocCount = p.load64(offAllocCount)
	rep.StatsBytesInUse = p.load64(offBytesInUse)

	bump := p.load64(offBumpNext)
	rep.BumpNext = bump
	if bump < HeapStart || bump > p.size || bump%allocAlign != 0 {
		rep.addf(FsckError, bump, "bump pointer %#x outside [%#x, %#x] or unaligned",
			bump, HeapStart, p.size)
		return rep, nil
	}

	// Walk the free list, collecting entries and checking order and bounds.
	freeSet := make(map[uint64]bool)
	maxEntries := int(p.size/minBlockSize) + 1
	last := uint64(0)
	listOK := true
	for cur, n := p.load64(offFreeHead), 0; cur != 0; cur, n = p.load64(cur+8), n+1 {
		if n > maxEntries {
			rep.addf(FsckError, cur, "free list does not terminate (cycle)")
			listOK = false
			break
		}
		if cur < HeapStart || cur+minBlockSize > bump || cur%allocAlign != 0 {
			rep.addf(FsckError, cur, "free-list entry outside heap [%#x, %#x)", HeapStart, bump)
			listOK = false
			break
		}
		if cur <= last {
			rep.addf(FsckError, cur, "free list not in ascending order (after %#x)", last)
			listOK = false
			break
		}
		fsize := p.load64(cur)
		if fsize < minBlockSize || fsize%allocAlign != 0 || cur+fsize > bump {
			rep.addf(FsckError, cur, "free block size %#x invalid", fsize)
			listOK = false
			break
		}
		freeSet[cur] = true
		last = cur
	}
	if !listOK {
		return rep, nil
	}

	// Walk the heap block by block. Every block is live (allocMagic), a
	// visited free-list entry, or leaked crash residue.
	var blocks []fsckBlock
	visited := make(map[uint64]bool)
	for off := HeapStart; off < bump; {
		size := p.load64(off)
		if size < minBlockSize || size%allocAlign != 0 || off+size > bump {
			rep.addf(FsckError, off, "block size %#x unparseable (heap walk aborted)", size)
			return rep, nil
		}
		word1 := p.load64(off + 8)
		b := fsckBlock{off: off, size: size}
		switch {
		case word1 == allocMagic:
			b.class = blockLive
			rep.LiveBlocks++
			rep.LiveBytes += size
		case freeSet[off]:
			b.class = blockFree
			visited[off] = true
			rep.FreeBlocks++
			rep.FreeBytes += size
		default:
			b.class = blockLeaked
			rep.LeakedBlocks++
			rep.LeakedBytes += size
			rep.addf(FsckWarn, off, "leaked block of %d bytes (neither live nor on the free list)", size)
		}
		blocks = append(blocks, b)
		off += size
	}
	for off := range freeSet {
		if !visited[off] {
			rep.addf(FsckError, off, "free-list entry is not on a block boundary (overlaps another block)")
		}
	}
	if !rep.Consistent() {
		return rep, nil
	}

	if rep.StatsAllocCount != uint64(rep.LiveBlocks) {
		rep.addf(FsckWarn, 0, "header claims %d live allocations, walk found %d",
			rep.StatsAllocCount, rep.LiveBlocks)
	}
	if rep.StatsBytesInUse != rep.LiveBytes {
		rep.addf(FsckWarn, 0, "header claims %d bytes in use, walk found %d",
			rep.StatsBytesInUse, rep.LiveBytes)
	}
	return rep, blocks
}

// Repair reclaims the repairable residue Fsck warns about: it rebuilds the
// free list from the heap walk (reclaiming leaked blocks and coalescing
// adjacent runs) and recomputes the header statistics. It refuses to touch
// a structurally corrupt pool and returns the post-repair report on
// success, which is Clean for any pool whose Fsck was Consistent.
func Repair(p *Pool) (*FsckReport, error) {
	rep, blocks := fsckScan(p)
	if !rep.Consistent() {
		return rep, fmt.Errorf("%w: pool %q has structural errors; repair refused", ErrCorrupt, p.name)
	}
	if rep.Clean() {
		return rep, nil
	}

	// Merge free and leaked blocks into maximal runs.
	type run struct{ off, size uint64 }
	var runs []run
	for _, b := range blocks {
		if b.class == blockLive {
			continue
		}
		if n := len(runs); n > 0 && runs[n-1].off+runs[n-1].size == b.off {
			runs[n-1].size += b.size
		} else {
			runs = append(runs, run{off: b.off, size: b.size})
		}
	}

	// Write the rebuilt list back: each run's header, then the links, then
	// the head, then the recomputed statistics.
	for i, rn := range runs {
		next := uint64(0)
		if i+1 < len(runs) {
			next = runs[i+1].off
		}
		p.store64(rn.off, rn.size)
		p.store64(rn.off+8, next)
	}
	head := uint64(0)
	if len(runs) > 0 {
		head = runs[0].off
	}
	p.store64(offFreeHead, head)

	var liveCount, liveBytes uint64
	for _, b := range blocks {
		if b.class == blockLive {
			liveCount++
			liveBytes += b.size
		}
	}
	p.store64(offAllocCount, liveCount)
	p.store64(offBytesInUse, liveBytes)

	after, _ := fsckScan(p)
	if !after.Clean() {
		return after, fmt.Errorf("%w: pool %q still inconsistent after repair", ErrCorrupt, p.name)
	}
	p.reg.Stats.Repairs++
	return after, nil
}
