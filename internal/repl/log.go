package repl

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"slices"
	"sort"
	"strings"
	"sync"

	"nvref/internal/fault"
	"nvref/internal/pmem"
)

// logMagic heads every image of a log stored through a pmem.Store, the
// tail and the sealed segments alike; an image with any other header is
// ErrCorrupt.
const logMagic = "NVOPLOG2"

// logHeaderSize is magic + last-seq u64 + count u32 + epoch u32 + base-seq
// u64.
const logHeaderSize = len(logMagic) + 8 + 4 + 4 + 8

// SegmentRecords is how many records a sealed segment holds: once the
// tail has that many, a flush seals them into an image of their own and
// never writes them again.
const SegmentRecords = 256

// sealedInfix separates a log's name from the 16-hex-digit first sequence
// number in a sealed segment's image name.
const sealedInfix = ".seg-"

// ErrSeqGap reports an AppendAt whose sequence number is not the log's
// next — the replica lost a record and must re-pull.
var ErrSeqGap = errors.New("repl: sequence gap")

// Log is one shard's persistent operation log: records appended in
// sequence order, truncated at checkpoints, and durably saved as segment
// images through a pmem.Store (the same NVM-device model the pool images
// use, so a segment carries the store's CRC64 integrity checksum on top of
// the per-record CRC32).
//
// Durable form. The newest records — the tail, fewer than SegmentRecords
// of them after a flush — live in the image named after the log. A flush
// that finds SegmentRecords or more in the tail first seals them, oldest
// first, into write-once images named "<log>.seg-<first sequence>", then
// saves what is left of the tail, so a flush writes the pending records
// and at most one segment's worth of older ones however many the log
// retains. Every image header carries the log's epoch (ResetTo starts a
// new one) and the tail's header also carries the oldest retained
// sequence, which makes one tail save the commit point of a truncation or
// a reset: sealed segments of another epoch, or wholly below the base,
// are strays, deleted after the save and discarded by Reload if a crash
// got in between. Reload merges the tail with the sealed segments that
// connect to it; after a crash between a seal and the tail save that
// follows it the tail image repeats records the new segment holds, but
// never contradicts them, because a sequence number is written with one
// content only. Every image, tail or sealed, carries the one header
// logMagic starts and the store's checksum; the log reads no other
// format.
//
// Durability contract: appends are in-memory and become durable at the
// next Flush — automatically every FlushEvery appends, at every
// TruncateThrough (the checkpoint path), and on demand. A crash loses the
// unflushed tail, exactly as a shard loses operations after its last
// checkpoint; the replication tier exists to close that window with a
// second copy, not to pretend single-copy appends are free. Shipping is
// durable-only: SinceDurable flushes pending appends and never serves a
// record the durable image does not cover, so a record that reached a
// replica is, by construction, a record this log's crash-reload retains.
//
// A Log is safe for concurrent use: the owning shard worker appends while
// connection handlers read Since for log shipping, or wait for something
// to ship (Await, woken by the worker's Publish).
type Log struct {
	mu         sync.Mutex
	store      pmem.Store // nil: volatile (no Flush/Reload persistence)
	name       string
	flushEvery int

	recs    []Record
	last    uint64 // seq of the newest record ever appended (0 = none)
	flushed uint64 // seq covered by the durable image (== last when store is nil)
	dirty   int    // appends since the last successful flush

	// Durable-form state, unused when store is nil.
	epoch  uint32      // incarnation every image of this log carries
	sealed []sealedSeg // sealed segments in the store, oldest first
	buf    []byte      // encode scratch, reused across flushes

	waiters []*waiter // readers parked for a record past their cursor

	flushes    uint64
	flushBytes uint64
	flushErrs  uint64
	truncated  uint64 // records dropped by truncation
	torn       uint64 // records dropped at reload (CRC or sequence damage)
}

// sealedSeg is one sealed segment: the sequence range it was written with.
type sealedSeg struct{ first, last uint64 }

// OpenLog opens (or creates) the named log in store, loading any durable
// image. flushEvery <= 0 disables automatic flushing (explicit Flush and
// the truncation path still persist). A nil store keeps the log in memory
// only.
func OpenLog(store pmem.Store, name string, flushEvery int) (*Log, error) {
	l := &Log{store: store, name: name, flushEvery: flushEvery}
	if err := l.Reload(); err != nil {
		return nil, err
	}
	return l, nil
}

// LogNames maps the image names a store lists to the sorted names of the
// logs they belong to: a sealed segment counts toward the log it names,
// anything else (a tail image) is a log of its own name.
func LogNames(images []string) []string {
	seen := make(map[string]bool, len(images))
	var logs []string
	for _, img := range images {
		name := img
		if log, _, ok := parseSealedName(img); ok {
			name = log
		}
		if !seen[name] {
			seen[name] = true
			logs = append(logs, name)
		}
	}
	sort.Strings(logs)
	return logs
}

func sealedName(log string, first uint64) string {
	return fmt.Sprintf("%s%s%016x", log, sealedInfix, first)
}

// parseSealedName splits a sealed segment's image name into the log's name
// and the segment's first sequence number.
func parseSealedName(image string) (log string, first uint64, ok bool) {
	i := strings.LastIndex(image, sealedInfix)
	if i <= 0 || len(image)-i-len(sealedInfix) != 16 {
		return "", 0, false
	}
	for _, c := range image[i+len(sealedInfix):] {
		switch {
		case c >= '0' && c <= '9':
			first = first<<4 | uint64(c-'0')
		case c >= 'a' && c <= 'f':
			first = first<<4 | uint64(c-'a'+10)
		default:
			return "", 0, false
		}
	}
	return image[:i], first, true
}

// Name returns the log's name in its store (also its tail image's name).
func (l *Log) Name() string { return l.name }

// Append assigns the next sequence number to (op, key, value), appends the
// record, and returns it. The primary's write path calls this before
// applying the operation (write-ahead order).
func (l *Log) Append(op byte, key, value uint64) Record {
	l.mu.Lock()
	defer l.mu.Unlock()
	rec := Record{Seq: l.last + 1, Op: op, Key: key, Value: value}
	l.noteAppend(rec)
	return rec
}

// AppendAt appends a record that already carries its sequence number (the
// replica's apply path). The sequence must be exactly the log's next;
// anything else is ErrSeqGap.
func (l *Log) AppendAt(rec Record) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if rec.Seq != l.last+1 {
		return fmt.Errorf("%w: record %d after %d", ErrSeqGap, rec.Seq, l.last)
	}
	l.noteAppend(rec)
	return nil
}

// noteAppend adds rec and runs the automatic flush cadence. Called with
// mu held.
func (l *Log) noteAppend(rec Record) {
	l.recs = append(l.recs, rec)
	l.last = rec.Seq
	l.dirty++
	if l.flushEvery > 0 && l.dirty >= l.flushEvery {
		if err := l.flushLocked(); err != nil {
			l.flushErrs++
		}
	}
}

// waiter is one reader parked for a record past its cursor (see Await).
type waiter struct {
	after uint64
	ready chan struct{}
}

// Await registers a wait for a record with Seq > after — the long-poll
// half of log shipping. ready is closed by the Publish that finds one, or
// already closed when Await did; cancel ends the wait and is owed by every
// caller, woken or not: it takes an unwoken waiter back out of the log.
// Appends do not wake waiters, Publish does: the appender decides when a
// run of appends is worth a reader's round trip.
func (l *Log) Await(after uint64) (ready <-chan struct{}, cancel func()) {
	w := &waiter{after: after, ready: make(chan struct{})}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.last > after {
		close(w.ready)
	} else {
		l.waiters = append(l.waiters, w)
	}
	return w.ready, func() {
		l.mu.Lock()
		defer l.mu.Unlock()
		if i := slices.Index(l.waiters, w); i >= 0 {
			l.waiters = slices.Delete(l.waiters, i, i+1)
		}
	}
}

// Publish wakes every waiter whose cursor the newest appended sequence has
// passed, and no other: a reader that already shipped these records and
// came back for more stays parked. It does no I/O — the flush that makes
// the records shippable runs on the woken reader (SinceDurable).
func (l *Log) Publish() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.waiters = slices.DeleteFunc(l.waiters, func(w *waiter) bool {
		woken := l.last > w.after
		if woken {
			close(w.ready)
		}
		return woken
	})
}

// Waiters returns how many Await calls are still parked.
func (l *Log) Waiters() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.waiters)
}

// LastSeq returns the newest sequence number ever appended (0 if none).
func (l *Log) LastSeq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.last
}

// FlushedSeq returns the newest sequence number the durable image covers
// — what a Reload after power loss would come back with. A volatile
// (nil-store) log reports its in-memory tail, since reload cannot lose it.
func (l *Log) FlushedSeq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.flushed
}

// Unflushed returns how many appended records the durable image does not
// yet cover — the write-behind a crash right now would replay or lose.
// Zero for a volatile (nil-store) log, whose flushed watermark tracks the
// tail.
func (l *Log) Unflushed() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.last - l.flushed
}

// BaseSeq returns the oldest retained sequence number (0 when the log
// holds no records).
func (l *Log) BaseSeq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.recs) == 0 {
		return 0
	}
	return l.recs[0].Seq
}

// Len returns how many records the log retains.
func (l *Log) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.recs)
}

// Bytes returns the retained records' size in bytes.
func (l *Log) Bytes() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return uint64(len(l.recs)) * RecordSize
}

// Since returns a copy of up to max retained records with Seq > seq (all
// of them when max <= 0), including any not-yet-flushed tail — the local
// replay read. Log shipping must use SinceDurable instead.
func (l *Log) Since(seq uint64, max int) []Record {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.sinceLocked(seq, max, l.last)
}

// SinceDurable is the log-shipping read: it first flushes any pending
// appends (so shipping is prompt), then returns up to max records with
// Seq > seq — but never past the durable watermark. A record a replica
// receives is therefore guaranteed to survive this log's crash-reload,
// which is what makes an in-place primary recovery unable to regress
// below (and so reuse sequence numbers of) anything its replica has
// already applied. If the flush fails (counted in FlushErrors), only the
// already-durable prefix is served and lag grows visibly instead of
// durability silently weakening.
func (l *Log) SinceDurable(seq uint64, max int) []Record {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.last > l.flushed {
		if err := l.flushLocked(); err != nil {
			l.flushErrs++
		}
	}
	return l.sinceLocked(seq, max, l.flushed)
}

// sinceLocked copies up to max retained records with seq < Seq <= through.
// Called with mu held.
func (l *Log) sinceLocked(seq uint64, max int, through uint64) []Record {
	recs := l.recs
	if len(recs) == 0 {
		return nil
	}
	base := recs[0].Seq
	if through < base {
		return nil
	}
	if keep := through - base + 1; keep < uint64(len(recs)) {
		recs = recs[:keep]
	}
	if seq >= base {
		skip := seq - base + 1
		if skip >= uint64(len(recs)) {
			return nil
		}
		recs = recs[skip:]
	}
	if max > 0 && len(recs) > max {
		recs = recs[:max]
	}
	out := make([]Record, len(recs))
	copy(out, recs)
	return out
}

// TruncateThrough drops every retained record with Seq <= seq and flushes
// — the checkpoint path: once a pool snapshot covers a prefix of the log,
// that prefix is garbage (but a primary must keep records a live replica
// has not acknowledged, so its caller passes the smaller of the two). The
// flush's tail save records the new base; sealed segments wholly at or
// below seq are deleted after it, oldest first, and the one the cut lands
// in keeps its image (Reload trims it to the base). If the flush fails the
// covered segments stay tracked, for the next truncation to delete.
func (l *Log) TruncateThrough(seq uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	drop := 0
	for drop < len(l.recs) && l.recs[drop].Seq <= seq {
		drop++
	}
	l.truncated += uint64(drop)
	l.recs = append(l.recs[:0], l.recs[drop:]...)
	if err := l.flushLocked(); err != nil {
		l.flushErrs++
		return err
	}
	covered := 0
	for covered < len(l.sealed) && l.sealed[covered].last <= seq {
		covered++
	}
	l.deleteSealedLocked(l.sealed[:covered])
	l.sealed = l.sealed[covered:]
	return nil
}

// ResetTo drops every retained record, restarts the sequence space at seq
// (the next AppendAt must carry seq+1), and flushes the emptied log — the
// re-seed path: a replica wiping its copy to re-adopt a primary snapshot
// taken at watermark seq. The flush's tail save carries a new epoch, which
// disowns every sealed segment in one atomic step; they are deleted after
// it. (If the flush fails they are forgotten instead: the new epoch may
// seal under their names, so they are left for the next Reload to discard.)
func (l *Log) ResetTo(seq uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.truncated += uint64(len(l.recs))
	l.recs = l.recs[:0]
	l.last = seq
	stale := l.sealed
	l.sealed = nil
	l.epoch++
	if err := l.flushLocked(); err != nil {
		l.flushErrs++
		return err
	}
	l.deleteSealedLocked(stale)
	return nil
}

// deleteSealedLocked removes sealed segments the tail image has already
// disowned. A failed delete is not reported: what it leaves behind is a
// stray that the next Reload discards and deletes again.
func (l *Log) deleteSealedLocked(segs []sealedSeg) {
	if l.store == nil {
		return
	}
	for _, s := range segs {
		_ = l.store.Delete(sealedName(l.name, s.first))
		fault.Crash("repl.log.delete")
	}
}

// Flush durably saves every appended record.
func (l *Log) Flush() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.flushLocked(); err != nil {
		l.flushErrs++
		return err
	}
	return nil
}

// baseLocked returns the oldest retained sequence — the next one to be
// appended when nothing is retained — which is what a tail save records.
func (l *Log) baseLocked() uint64 {
	if len(l.recs) > 0 {
		return l.recs[0].Seq
	}
	return l.last + 1
}

// tailLocked returns the retained records no sealed segment holds.
func (l *Log) tailLocked() []Record {
	if n := len(l.sealed); n > 0 && len(l.recs) > 0 {
		if through, base := l.sealed[n-1].last, l.recs[0].Seq; through >= base {
			return l.recs[through-base+1:]
		}
	}
	return l.recs
}

// flushLocked seals every full segment's worth of the tail, oldest first,
// then saves the rest of it — an empty tail too, so that the tail image
// always states the log's newest sequence, base and epoch.
func (l *Log) flushLocked() error {
	if l.store == nil {
		l.dirty = 0
		l.flushed = l.last
		return nil
	}
	tail := l.tailLocked()
	for ; len(tail) >= SegmentRecords; tail = tail[SegmentRecords:] {
		seg := sealedSeg{first: tail[0].Seq, last: tail[SegmentRecords-1].Seq}
		if err := l.saveLocked(sealedName(l.name, seg.first), tail[:SegmentRecords], seg.last, seg.first); err != nil {
			return err
		}
		l.sealed = append(l.sealed, seg)
		l.flushed = seg.last
		fault.Crash("repl.log.seal")
	}
	if err := l.saveLocked(l.name, tail, l.last, l.baseLocked()); err != nil {
		return err
	}
	fault.Crash("repl.log.tail")
	l.flushes++
	l.dirty = 0
	l.flushed = l.last
	return nil
}

// saveLocked encodes one segment image into the reused scratch buffer and
// saves it under name.
func (l *Log) saveLocked(name string, recs []Record, last, base uint64) error {
	buf := append(l.buf[:0], logMagic...)
	buf = binary.LittleEndian.AppendUint64(buf, last)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(recs)))
	buf = binary.LittleEndian.AppendUint32(buf, l.epoch)
	buf = binary.LittleEndian.AppendUint64(buf, base)
	for _, r := range recs {
		buf = AppendRecord(buf, r)
	}
	l.buf = buf
	meta := pmem.Meta{
		ID:   crc32.ChecksumIEEE([]byte(name)),
		Name: name,
		Size: uint64(len(buf)),
		Sum:  pmem.ImageChecksum(buf),
	}
	if err := l.store.Save(meta, buf); err != nil {
		return err
	}
	l.flushBytes += uint64(len(buf))
	return nil
}

// logImage is one decoded tail or segment image.
type logImage struct {
	epoch uint32
	base  uint64 // oldest retained sequence when saved
	last  uint64
	recs  []Record
	torn  uint64 // records the header counted that did not survive
}

// loadImageLocked loads and decodes one image. The tail image is read
// tolerantly, as the one image a crash can catch half-written: a payload
// shorter than its metadata promises, a record failing its CRC and a break
// in the sequence each end the image at the last good record, counted in
// torn. In a sealed segment, saved whole before anything later was
// written, the same damage is ErrCorrupt, as are a store-level checksum
// mismatch and a malformed header in either.
func (l *Log) loadImageLocked(name string, tolerant bool) (logImage, error) {
	meta, data, err := l.store.Load(name)
	// DirStore hands back the surviving bytes of a torn payload with its
	// ErrCorrupt; a wrapped MemStore returns them with no error at all.
	short := tolerant && data != nil && (errors.Is(err, pmem.ErrCorrupt) || (err == nil && uint64(len(data)) < meta.Size))
	if err != nil && !short {
		return logImage{}, err
	}
	if !short && pmem.ImageChecksum(data) != meta.Sum {
		return logImage{}, fmt.Errorf("%w: log image %q checksum mismatch", pmem.ErrCorrupt, name)
	}
	if len(data) < logHeaderSize || string(data[:len(logMagic)]) != logMagic {
		return logImage{}, fmt.Errorf("%w: log image %q: bad header", pmem.ErrCorrupt, name)
	}
	img := logImage{
		epoch: binary.LittleEndian.Uint32(data[len(logMagic)+12:]),
		base:  binary.LittleEndian.Uint64(data[len(logMagic)+16:]),
		last:  binary.LittleEndian.Uint64(data[len(logMagic):]),
	}
	body := data[logHeaderSize:]
	count := uint64(binary.LittleEndian.Uint32(data[len(logMagic)+8:]))
	if !short && uint64(len(body)) != count*RecordSize {
		return logImage{}, fmt.Errorf("%w: log image %q: %d bytes for %d records",
			pmem.ErrCorrupt, name, len(body), count)
	}
	img.recs = make([]Record, 0, min(count, uint64(len(body)/RecordSize)))
	for ; uint64(len(img.recs)) < count && len(body) >= RecordSize; body = body[RecordSize:] {
		rec, err := DecodeRecord(body)
		if err != nil || (len(img.recs) > 0 && rec.Seq != img.recs[len(img.recs)-1].Seq+1) {
			break
		}
		img.recs = append(img.recs, rec)
	}
	if img.torn = count - uint64(len(img.recs)); img.torn > 0 {
		if !tolerant {
			return logImage{}, fmt.Errorf("%w: sealed log segment %q: damaged at record %d of %d",
				pmem.ErrCorrupt, name, len(img.recs), count)
		}
		// The header's last-seq counted the dropped suffix.
		switch {
		case len(img.recs) > 0:
			img.last = img.recs[len(img.recs)-1].Seq
		case img.base > 0:
			img.last = img.base - 1
		default:
			img.last = 0
		}
	}
	return img, nil
}

// Reload discards in-memory state and re-adopts the durable images — the
// crash-recovery path (and the constructor's load). A store with no image
// of this log is an empty log. The tail image fixes the epoch and the
// base; sealed segments of that epoch reaching the base are merged in
// sequence order and the tail image after them, overlaps read once. Every
// other sealed segment — another epoch, wholly below the base, or adding
// nothing — is a stray a crash left between a commit and its deletes, and
// is deleted now. Damaged records at the end of the tail image truncate
// the reload there and are counted in TornRecords; damage anywhere else,
// or a hole in the merged sequence, is ErrCorrupt.
func (l *Log) Reload() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.store == nil {
		return nil
	}
	strays, err := l.loadLocked()
	if err != nil {
		return err
	}
	l.deleteSealedLocked(strays)
	return nil
}

// InspectLog reads the named log's durable images as Reload would and
// reports what it found, changing nothing in the store — for a tool
// looking at a store it does not own, which a live writer may be sealing
// into and truncating meanwhile. A hole in the merged sequence is read
// once more before it is believed: a seal after the listing moves records
// out of the tail image into a segment the listing does not name.
func InspectLog(store pmem.Store, name string) (LogStats, error) {
	l := &Log{store: store, name: name}
	_, err := l.loadLocked()
	if errors.Is(err, pmem.ErrCorrupt) {
		l = &Log{store: store, name: name}
		_, err = l.loadLocked()
	}
	if err != nil {
		return LogStats{}, err
	}
	return l.Stats(), nil
}

// loadLocked replaces the in-memory state with what the store's images
// hold and returns the stray sealed segments it passed over.
func (l *Log) loadLocked() (strays []sealedSeg, err error) {
	images, err := l.store.List()
	if err != nil {
		return nil, err
	}
	var firsts []uint64
	for _, img := range images {
		if log, first, ok := parseSealedName(img); ok && log == l.name {
			firsts = append(firsts, first)
		}
	}
	sort.Slice(firsts, func(i, j int) bool { return firsts[i] < firsts[j] })
	// A log that has never saved its tail reads as the zero image: epoch 0,
	// nothing retained.
	tail, err := l.loadImageLocked(l.name, true)
	if err != nil && !errors.Is(err, pmem.ErrStoreMissing) {
		return nil, err
	}

	var recs []Record
	var kept []sealedSeg
	for _, first := range firsts {
		img, err := l.loadImageLocked(sealedName(l.name, first), false)
		if errors.Is(err, pmem.ErrStoreMissing) {
			continue // deleted since List: an inspector racing a live truncation
		}
		if err != nil {
			return nil, err
		}
		seg := sealedSeg{first: first, last: img.last}
		before := len(recs)
		if img.epoch == tail.epoch && img.last >= tail.base {
			if recs, err = extendRun(l.name, recs, img.recs); err != nil {
				return nil, err
			}
		}
		if len(recs) > before {
			kept = append(kept, seg)
		} else {
			strays = append(strays, seg)
		}
	}
	if recs, err = extendRun(l.name, recs, tail.recs); err != nil {
		return nil, err
	}
	last := tail.last
	if n := len(recs); n > 0 {
		if newest := recs[n-1].Seq; newest >= last {
			last = newest
		} else {
			return nil, fmt.Errorf("%w: log %q: records end at %d, tail image says %d", pmem.ErrCorrupt, l.name, newest, last)
		}
		if oldest := recs[0].Seq; oldest < tail.base {
			recs = recs[min(tail.base-oldest, uint64(n)):]
		} else if tail.base > 0 && oldest > tail.base {
			return nil, fmt.Errorf("%w: log %q: records start at %d, tail image says %d", pmem.ErrCorrupt, l.name, oldest, tail.base)
		}
	}

	l.recs, l.last, l.flushed, l.dirty = recs, last, last, 0
	l.epoch = tail.epoch
	l.sealed = kept
	l.torn += tail.torn
	return strays, nil
}

// extendRun appends to run the records of in that follow its newest. The
// two must overlap or abut: a hole between them is a lost image.
func extendRun(log string, run, in []Record) ([]Record, error) {
	if len(run) == 0 || len(in) == 0 {
		return append(run, in...), nil
	}
	newest, first := run[len(run)-1].Seq, in[0].Seq
	switch {
	case first > newest+1:
		return nil, fmt.Errorf("%w: log %q: records %d through %d are missing", pmem.ErrCorrupt, log, newest+1, first-1)
	case in[len(in)-1].Seq <= newest:
		return run, nil
	default:
		return append(run, in[newest+1-first:]...), nil
	}
}

// LogStats is a point-in-time summary of a log's state and lifetime
// counters, exported into metrics and STATS documents.
type LogStats struct {
	LastSeq     uint64 `json:"last_seq"`
	FlushedSeq  uint64 `json:"flushed_seq"`
	BaseSeq     uint64 `json:"base_seq"`
	Records     int    `json:"records"`
	Bytes       uint64 `json:"bytes"`
	Dirty       int    `json:"dirty"`
	Segments    int    `json:"segments"` // durable images: sealed segments plus the tail
	Flushes     uint64 `json:"flushes"`
	FlushBytes  uint64 `json:"flush_bytes"` // image bytes handed to the store over the log's lifetime
	FlushErrors uint64 `json:"flush_errors"`
	Truncated   uint64 `json:"truncated"`
	TornRecords uint64 `json:"torn_records"`
}

// Stats returns the log's current statistics.
func (l *Log) Stats() LogStats {
	l.mu.Lock()
	defer l.mu.Unlock()
	st := LogStats{
		LastSeq:     l.last,
		FlushedSeq:  l.flushed,
		Records:     len(l.recs),
		Bytes:       uint64(len(l.recs)) * RecordSize,
		Dirty:       l.dirty,
		Flushes:     l.flushes,
		FlushBytes:  l.flushBytes,
		FlushErrors: l.flushErrs,
		Truncated:   l.truncated,
		TornRecords: l.torn,
	}
	if l.store != nil {
		st.Segments = len(l.sealed) + 1
	}
	if len(l.recs) > 0 {
		st.BaseSeq = l.recs[0].Seq
	}
	return st
}
