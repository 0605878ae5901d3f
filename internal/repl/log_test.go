package repl

import (
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"

	"nvref/internal/pmem"
)

func mustOpen(t *testing.T, store pmem.Store, name string, flushEvery int) *Log {
	t.Helper()
	l, err := OpenLog(store, name, flushEvery)
	if err != nil {
		t.Fatalf("OpenLog: %v", err)
	}
	return l
}

func TestLogAppendAndQuery(t *testing.T) {
	l := mustOpen(t, nil, "a", 0)
	if l.LastSeq() != 0 || l.BaseSeq() != 0 || l.Len() != 0 || l.Bytes() != 0 {
		t.Fatal("fresh log not empty")
	}
	for i := uint64(1); i <= 10; i++ {
		rec := l.Append(RecPut, i, i*2)
		if rec.Seq != i {
			t.Fatalf("append %d assigned seq %d", i, rec.Seq)
		}
	}
	if l.LastSeq() != 10 || l.BaseSeq() != 1 || l.Len() != 10 {
		t.Fatalf("after 10 appends: last=%d base=%d len=%d", l.LastSeq(), l.BaseSeq(), l.Len())
	}
	if l.Bytes() != 10*RecordSize {
		t.Fatalf("bytes = %d", l.Bytes())
	}

	// Since is exclusive of seq and respects max.
	if got := l.Since(0, 0); len(got) != 10 || got[0].Seq != 1 {
		t.Fatalf("Since(0): %d records", len(got))
	}
	if got := l.Since(7, 0); len(got) != 3 || got[0].Seq != 8 {
		t.Fatalf("Since(7): %+v", got)
	}
	if got := l.Since(0, 4); len(got) != 4 || got[3].Seq != 4 {
		t.Fatalf("Since(0, 4): %+v", got)
	}
	if got := l.Since(10, 0); got != nil {
		t.Fatalf("Since(last): %+v", got)
	}
	if got := l.Since(99, 0); got != nil {
		t.Fatalf("Since(beyond): %+v", got)
	}
}

func TestLogAppendAt(t *testing.T) {
	l := mustOpen(t, nil, "a", 0)
	if err := l.AppendAt(Record{Seq: 1, Key: 1, Op: RecPut}); err != nil {
		t.Fatal(err)
	}
	if err := l.AppendAt(Record{Seq: 3, Key: 3, Op: RecPut}); !errors.Is(err, ErrSeqGap) {
		t.Fatalf("gap: %v", err)
	}
	if err := l.AppendAt(Record{Seq: 1, Key: 1, Op: RecPut}); !errors.Is(err, ErrSeqGap) {
		t.Fatalf("duplicate: %v", err)
	}
	if err := l.AppendAt(Record{Seq: 2, Key: 2, Op: RecPut}); err != nil {
		t.Fatal(err)
	}
	if l.LastSeq() != 2 {
		t.Fatalf("last = %d", l.LastSeq())
	}
}

func TestLogTruncate(t *testing.T) {
	l := mustOpen(t, nil, "a", 0)
	for i := 0; i < 10; i++ {
		l.Append(RecPut, uint64(i), 0)
	}
	if err := l.TruncateThrough(6); err != nil {
		t.Fatal(err)
	}
	if l.BaseSeq() != 7 || l.Len() != 4 || l.LastSeq() != 10 {
		t.Fatalf("after truncate: base=%d len=%d last=%d", l.BaseSeq(), l.Len(), l.LastSeq())
	}
	if got := l.Since(0, 0); len(got) != 4 || got[0].Seq != 7 {
		t.Fatalf("Since after truncate: %+v", got)
	}
	st := l.Stats()
	if st.Truncated != 6 {
		t.Fatalf("truncated = %d", st.Truncated)
	}
	// Truncating everything leaves an empty log that still knows its
	// last sequence, so appends continue densely.
	if err := l.TruncateThrough(10); err != nil {
		t.Fatal(err)
	}
	if l.Len() != 0 || l.LastSeq() != 10 {
		t.Fatalf("after full truncate: len=%d last=%d", l.Len(), l.LastSeq())
	}
	if rec := l.Append(RecPut, 1, 1); rec.Seq != 11 {
		t.Fatalf("append after full truncate: seq %d", rec.Seq)
	}
}

func TestLogPersistence(t *testing.T) {
	store := pmem.NewMemStore()
	l := mustOpen(t, store, "shard-0", 0)
	for i := uint64(1); i <= 5; i++ {
		l.Append(RecPut, i, i+100)
	}
	l.Append(RecDelete, 3, 0)
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}

	// A fresh open on the same store sees the identical log.
	l2 := mustOpen(t, store, "shard-0", 0)
	if l2.LastSeq() != 6 || l2.Len() != 6 {
		t.Fatalf("reopened: last=%d len=%d", l2.LastSeq(), l2.Len())
	}
	recs := l2.Since(0, 0)
	if recs[5].Op != RecDelete || recs[5].Key != 3 {
		t.Fatalf("reopened tail: %+v", recs[5])
	}

	// Unflushed appends are lost on reload — the documented durability
	// contract.
	l2.Append(RecPut, 99, 99)
	if err := l2.Reload(); err != nil {
		t.Fatal(err)
	}
	if l2.LastSeq() != 6 {
		t.Fatalf("reload kept unflushed tail: last=%d", l2.LastSeq())
	}
}

func TestLogFlushCadence(t *testing.T) {
	store := pmem.NewMemStore()
	l := mustOpen(t, store, "s", 2)
	l.Append(RecPut, 1, 1)
	if st := l.Stats(); st.Flushes != 0 || st.Dirty != 1 {
		t.Fatalf("after 1 append: %+v", st)
	}
	l.Append(RecPut, 2, 2)
	if st := l.Stats(); st.Flushes != 1 || st.Dirty != 0 {
		t.Fatalf("after 2 appends: %+v", st)
	}
	// The flushed image is already durable.
	l2 := mustOpen(t, store, "s", 2)
	if l2.LastSeq() != 2 {
		t.Fatalf("cadence flush not durable: last=%d", l2.LastSeq())
	}
}

func TestLogEmptyFlushAndMissing(t *testing.T) {
	store := pmem.NewMemStore()
	l := mustOpen(t, store, "empty", 0)
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	l2 := mustOpen(t, store, "empty", 0)
	if l2.Len() != 0 || l2.LastSeq() != 0 {
		t.Fatal("empty image round trip failed")
	}
	// A name never saved is an empty log, not an error.
	l3 := mustOpen(t, store, "never-saved", 0)
	if l3.Len() != 0 {
		t.Fatal("missing image should open empty")
	}
}

// resave mutates the stored image bytes through fn and re-seals the
// store-level checksum, so only record-level validation can object.
func resave(t *testing.T, store pmem.Store, name string, fn func([]byte)) {
	t.Helper()
	meta, data, err := store.Load(name)
	if err != nil {
		t.Fatal(err)
	}
	fn(data)
	meta.Sum = pmem.ImageChecksum(data)
	meta.Size = uint64(len(data))
	if err := store.Save(meta, data); err != nil {
		t.Fatal(err)
	}
}

func TestLogReloadTornTail(t *testing.T) {
	store := pmem.NewMemStore()
	l := mustOpen(t, store, "torn", 0)
	for i := uint64(1); i <= 8; i++ {
		l.Append(RecPut, i, i)
	}
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	// Corrupt record 5 (0-indexed) in place: reload must keep 1..5 and
	// drop the damaged suffix.
	resave(t, store, "torn", func(data []byte) {
		data[logHeaderSize+5*RecordSize+3] ^= 0xff
	})
	l2 := mustOpen(t, store, "torn", 0)
	if l2.Len() != 5 || l2.LastSeq() != 5 {
		t.Fatalf("torn reload: len=%d last=%d", l2.Len(), l2.LastSeq())
	}
	if st := l2.Stats(); st.TornRecords != 3 {
		t.Fatalf("torn records = %d, want 3", st.TornRecords)
	}
	// Appends continue from the surviving tail.
	if rec := l2.Append(RecPut, 9, 9); rec.Seq != 6 {
		t.Fatalf("append after torn reload: seq %d", rec.Seq)
	}
}

func TestLogReloadSeqBreak(t *testing.T) {
	store := pmem.NewMemStore()
	l := mustOpen(t, store, "gap", 0)
	for i := uint64(1); i <= 4; i++ {
		l.Append(RecPut, i, i)
	}
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	// Rewrite record 2 (0-indexed) with a jumped sequence number and a
	// valid CRC: contiguity checking must truncate there.
	resave(t, store, "gap", func(data []byte) {
		off := logHeaderSize + 2*RecordSize
		rec := AppendRecord(nil, Record{Seq: 9, Key: 1, Op: RecPut})
		copy(data[off:], rec)
	})
	l2 := mustOpen(t, store, "gap", 0)
	if l2.Len() != 2 || l2.LastSeq() != 2 {
		t.Fatalf("seq-break reload: len=%d last=%d", l2.Len(), l2.LastSeq())
	}
}

func TestLogReloadCorruptImage(t *testing.T) {
	store := pmem.NewMemStore()
	l := mustOpen(t, store, "x", 0)
	l.Append(RecPut, 1, 1)
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}

	// Store-level checksum mismatch (flip a byte, keep the old Sum).
	meta, data, err := store.Load("x")
	if err != nil {
		t.Fatal(err)
	}
	data[0] ^= 0xff
	if err := store.Save(meta, data); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenLog(store, "x", 0); !errors.Is(err, pmem.ErrCorrupt) {
		t.Fatalf("checksum mismatch: %v", err)
	}

	// Bad magic with a re-sealed checksum.
	resave(t, store, "x", func(d []byte) { copy(d, "WRONGMAG") })
	if _, err := OpenLog(store, "x", 0); !errors.Is(err, pmem.ErrCorrupt) {
		t.Fatalf("bad magic: %v", err)
	}

	// Header record count that disagrees with the image length.
	l3 := mustOpen(t, store, "y", 0)
	l3.Append(RecPut, 1, 1)
	if err := l3.Flush(); err != nil {
		t.Fatal(err)
	}
	resave(t, store, "y", func(d []byte) {
		binary.LittleEndian.PutUint32(d[len(logMagic)+8:], 7)
	})
	if _, err := OpenLog(store, "y", 0); !errors.Is(err, pmem.ErrCorrupt) {
		t.Fatalf("count mismatch: %v", err)
	}

	// Truncated header.
	l4 := mustOpen(t, store, "z", 0)
	if err := l4.Flush(); err != nil {
		t.Fatal(err)
	}
	meta, _, err = store.Load("z")
	if err != nil {
		t.Fatal(err)
	}
	short := []byte(logMagic[:4])
	meta.Sum = pmem.ImageChecksum(short)
	meta.Size = uint64(len(short))
	if err := store.Save(meta, short); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenLog(store, "z", 0); !errors.Is(err, pmem.ErrCorrupt) {
		t.Fatalf("short header: %v", err)
	}
}

func TestLogStats(t *testing.T) {
	l := mustOpen(t, nil, "s", 0)
	l.Append(RecPut, 1, 1)
	l.Append(RecPut, 2, 2)
	st := l.Stats()
	if st.LastSeq != 2 || st.BaseSeq != 1 || st.Records != 2 || st.Bytes != 2*RecordSize || st.Dirty != 2 {
		t.Fatalf("stats: %+v", st)
	}
	if l.Name() != "s" {
		t.Fatalf("name = %q", l.Name())
	}
}

// failingStore wraps a Store with an injectable Save failure, modeling a
// log device that stops persisting.
type failingStore struct {
	pmem.Store
	fail bool
}

func (s *failingStore) Save(meta pmem.Meta, data []byte) error {
	if s.fail {
		return errors.New("injected save failure")
	}
	return s.Store.Save(meta, data)
}

// TestLogSinceDurable: shipping is durable-only. A pull flushes pending
// appends and serves them; when the store fails, only the already-durable
// prefix ships, so a reload after power loss always retains everything a
// replica has ever been sent.
func TestLogSinceDurable(t *testing.T) {
	fs := &failingStore{Store: pmem.NewMemStore()}
	l := mustOpen(t, fs, "s", 0) // no flush cadence: pulls drive durability
	for i := uint64(1); i <= 6; i++ {
		l.Append(RecPut, i, i)
	}
	if got := l.FlushedSeq(); got != 0 {
		t.Fatalf("flushed = %d before any flush", got)
	}
	// The local replay read serves the volatile tail; the shipping read
	// flushes first, then serves the (now durable) records.
	if got := l.Since(0, 0); len(got) != 6 {
		t.Fatalf("Since: %d records", len(got))
	}
	if got := l.SinceDurable(0, 0); len(got) != 6 {
		t.Fatalf("SinceDurable: %d records", len(got))
	}
	if l.FlushedSeq() != 6 {
		t.Fatalf("flushed = %d after shipping", l.FlushedSeq())
	}

	// With the store failing, new appends are withheld from shipping: a
	// replica must never apply a record a reload would lose.
	fs.fail = true
	l.Append(RecPut, 7, 7)
	l.Append(RecPut, 8, 8)
	if got := l.SinceDurable(6, 0); got != nil {
		t.Fatalf("shipped unflushable records: %+v", got)
	}
	if got := l.SinceDurable(0, 0); len(got) != 6 || got[5].Seq != 6 {
		t.Fatalf("durable prefix: %d records", len(got))
	}
	if l.Stats().FlushErrors == 0 {
		t.Fatal("failed flush not counted")
	}

	// The store heals: the tail ships on the next pull, and a reload comes
	// back exactly at the shipped watermark.
	fs.fail = false
	if got := l.SinceDurable(6, 0); len(got) != 2 || got[1].Seq != 8 {
		t.Fatalf("after heal: %+v", got)
	}
	if err := l.Reload(); err != nil {
		t.Fatal(err)
	}
	if l.LastSeq() != 8 || l.FlushedSeq() != 8 {
		t.Fatalf("reloaded: last=%d flushed=%d", l.LastSeq(), l.FlushedSeq())
	}
}

func TestLogResetTo(t *testing.T) {
	store := pmem.NewMemStore()
	l := mustOpen(t, store, "r", 0)
	for i := uint64(1); i <= 8; i++ {
		l.Append(RecPut, i, i)
	}
	if err := l.ResetTo(20); err != nil {
		t.Fatalf("ResetTo: %v", err)
	}
	if l.Len() != 0 || l.LastSeq() != 20 || l.BaseSeq() != 0 {
		t.Fatalf("after reset: len=%d last=%d base=%d", l.Len(), l.LastSeq(), l.BaseSeq())
	}
	// The sequence space restarts at the watermark: 21 is the only legal
	// next record.
	if err := l.AppendAt(Record{Seq: 22, Key: 1, Op: RecPut}); !errors.Is(err, ErrSeqGap) {
		t.Fatalf("gap after reset: %v", err)
	}
	if err := l.AppendAt(Record{Seq: 21, Key: 1, Op: RecPut}); err != nil {
		t.Fatalf("append at watermark+1: %v", err)
	}
	// The emptied image is durable: a reload sees the reset, not the old
	// records.
	if err := l.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	l2 := mustOpen(t, store, "r", 0)
	if l2.Len() != 1 || l2.LastSeq() != 21 || l2.BaseSeq() != 21 {
		t.Fatalf("after reload: len=%d last=%d base=%d", l2.Len(), l2.LastSeq(), l2.BaseSeq())
	}
}

// ---- Segmented durable form ------------------------------------------------

// countingStore records what a log asks its store to write and keeps
// nothing, so the log's own allocations are all AllocsPerRun sees.
type countingStore struct {
	saves int
	bytes uint64
}

func (s *countingStore) Save(meta pmem.Meta, data []byte) error {
	s.saves++
	s.bytes += uint64(len(data))
	return nil
}
func (s *countingStore) Load(name string) (pmem.Meta, []byte, error) {
	return pmem.Meta{}, nil, pmem.ErrStoreMissing
}
func (s *countingStore) List() ([]string, error) { return nil, nil }
func (s *countingStore) Delete(string) error     { return nil }

const segmentBytes = uint64(logHeaderSize + SegmentRecords*RecordSize)

func appendN(l *Log, n int) {
	for i := 0; i < n; i++ {
		l.Append(RecPut, uint64(i), uint64(i))
	}
}

// TestLogFlushCostIndependentOfRetained: a flush of 64 pending appends
// writes at most one segment's records (the sealing flush adds the empty
// tail's header) and allocates a small constant, whether the log retains
// 64 records or 8 192.
func TestLogFlushCostIndependentOfRetained(t *testing.T) {
	const pending = 64
	for _, retained := range []int{pending, 8192} {
		cs := &countingStore{}
		l := mustOpen(t, cs, "s", 0)
		appendN(l, retained-pending)
		if err := l.Flush(); err != nil {
			t.Fatal(err)
		}
		// Every flush along one whole segment's worth of appends, so the
		// sealing flush is among them.
		for i := 0; i < SegmentRecords/pending; i++ {
			appendN(l, pending)
			saves, bytes := cs.saves, cs.bytes
			if err := l.Flush(); err != nil {
				t.Fatal(err)
			}
			if wrote := cs.bytes - bytes; wrote > segmentBytes+uint64(logHeaderSize) || cs.saves-saves > 2 {
				t.Fatalf("retained %d: flush %d wrote %d bytes in %d saves, want <= %d in <= 2",
					retained, i, wrote, cs.saves-saves, segmentBytes+uint64(logHeaderSize))
			}
		}
		st := l.Stats()
		if st.FlushBytes != cs.bytes {
			t.Fatalf("FlushBytes = %d, store saw %d", st.FlushBytes, cs.bytes)
		}
		if want := st.Records/SegmentRecords + 1; st.Segments != want {
			t.Fatalf("retained %d: Segments = %d, want %d", st.Records, st.Segments, want)
		}
		allocs := testing.AllocsPerRun(64, func() {
			appendN(l, pending)
			if err := l.Flush(); err != nil {
				t.Fatal(err)
			}
		})
		// A seal formats one image name and may grow the sealed list; the
		// record slice doubles now and then. Nothing scales with the log.
		if allocs > 3 {
			t.Fatalf("retained %d: %v allocs per 64-append flush", retained, allocs)
		}
	}
}

// failAfterStore lets the first ok saves through and fails the rest.
type failAfterStore struct {
	pmem.Store
	ok int
}

func (s *failAfterStore) Save(meta pmem.Meta, data []byte) error {
	if s.ok <= 0 {
		return errors.New("injected save failure")
	}
	s.ok--
	return s.Store.Save(meta, data)
}

// TestLogSinceDurableAcrossSegments: when a flush seals a segment and then
// fails on the tail, shipping stops at the sealed segment's end, and that
// is exactly where a reload comes back.
func TestLogSinceDurableAcrossSegments(t *testing.T) {
	fs := &failAfterStore{Store: pmem.NewMemStore(), ok: 1}
	l := mustOpen(t, fs, "s", 0)
	appendN(l, SegmentRecords+40)
	got := l.SinceDurable(0, 0)
	if len(got) != SegmentRecords || l.FlushedSeq() != SegmentRecords {
		t.Fatalf("shipped %d records, flushed = %d; want both %d", len(got), l.FlushedSeq(), SegmentRecords)
	}
	if got := l.SinceDurable(SegmentRecords, 0); got != nil {
		t.Fatalf("shipped %d records past the durable watermark", len(got))
	}
	if l.Stats().FlushErrors == 0 {
		t.Fatal("failed tail save not counted")
	}
	l2 := mustOpen(t, fs.Store, "s", 0)
	if l2.LastSeq() != SegmentRecords || l2.Len() != SegmentRecords {
		t.Fatalf("reload: last=%d len=%d, want %d", l2.LastSeq(), l2.Len(), SegmentRecords)
	}
	// The store heals: the tail ships and a reload agrees.
	fs.ok = 1 << 30
	if got := l.SinceDurable(SegmentRecords, 0); len(got) != 40 {
		t.Fatalf("after heal shipped %d records, want 40", len(got))
	}
	l3 := mustOpen(t, fs.Store, "s", 0)
	if l3.LastSeq() != SegmentRecords+40 || l3.BaseSeq() != 1 {
		t.Fatalf("reload after heal: last=%d base=%d", l3.LastSeq(), l3.BaseSeq())
	}
}

// TestLogSegmentedTruncate: truncation deletes the sealed segments it
// covers, keeps the one the cut lands in, and a reload sees exactly what
// memory holds — including an emptied log's watermark.
func TestLogSegmentedTruncate(t *testing.T) {
	store := pmem.NewMemStore()
	l := mustOpen(t, store, "s", 64)
	appendN(l, 4*SegmentRecords+10)
	cut := uint64(2*SegmentRecords + 100)
	if err := l.TruncateThrough(cut); err != nil {
		t.Fatal(err)
	}
	names, _ := store.List()
	want := []string{"s", sealedName("s", 2*SegmentRecords+1), sealedName("s", 3*SegmentRecords+1)}
	if !slices.Equal(names, want) {
		t.Fatalf("images after truncate: %v, want %v", names, want)
	}
	l2 := mustOpen(t, store, "s", 64)
	if l2.BaseSeq() != cut+1 || l2.LastSeq() != l.LastSeq() || !slices.Equal(l2.Since(0, 0), l.Since(0, 0)) {
		t.Fatalf("reload: base=%d last=%d len=%d, memory has base=%d last=%d len=%d",
			l2.BaseSeq(), l2.LastSeq(), l2.Len(), l.BaseSeq(), l.LastSeq(), l.Len())
	}
	if st := l2.Stats(); st.Segments != 3 || st.TornRecords != 0 {
		t.Fatalf("reloaded stats: %+v", st)
	}

	last := l.LastSeq()
	if err := l.TruncateThrough(last); err != nil {
		t.Fatal(err)
	}
	if names, _ := store.List(); len(names) != 1 || names[0] != "s" {
		t.Fatalf("images after emptying: %v", names)
	}
	l3 := mustOpen(t, store, "s", 64)
	if l3.Len() != 0 || l3.LastSeq() != last {
		t.Fatalf("emptied log reloaded with len=%d last=%d, want 0 and %d", l3.Len(), l3.LastSeq(), last)
	}
	if rec := l3.Append(RecPut, 1, 1); rec.Seq != last+1 {
		t.Fatalf("append after emptied reload: seq %d", rec.Seq)
	}
}

// TestLogTruncateFlushFailureKeepsSegmentsTracked: a truncation whose
// flush fails deletes nothing and forgets nothing; once the store heals,
// the next truncation removes the covered segments.
func TestLogTruncateFlushFailureKeepsSegmentsTracked(t *testing.T) {
	fs := &failAfterStore{Store: pmem.NewMemStore(), ok: 1 << 30}
	l := mustOpen(t, fs, "s", 0)
	appendN(l, 3*SegmentRecords+10)
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	fs.ok = 0
	if err := l.TruncateThrough(2 * SegmentRecords); err == nil {
		t.Fatal("truncation over a failing store reported success")
	}
	if names, _ := fs.List(); len(names) != 4 || l.Stats().Segments != 4 {
		t.Fatalf("failed truncation: images %v, Segments = %d; want 4 and 4", names, l.Stats().Segments)
	}
	fs.ok = 1 << 30
	appendN(l, SegmentRecords) // seals one more behind the stale ones
	if err := l.TruncateThrough(2*SegmentRecords + 5); err != nil {
		t.Fatal(err)
	}
	names, _ := fs.List()
	want := []string{"s", sealedName("s", 2*SegmentRecords+1), sealedName("s", 3*SegmentRecords+1)}
	if !slices.Equal(names, want) {
		t.Fatalf("images after healed truncation: %v, want %v", names, want)
	}
	l2 := mustOpen(t, fs.Store, "s", 0)
	if !slices.Equal(l2.Since(0, 0), l.Since(0, 0)) || l2.BaseSeq() != 2*SegmentRecords+6 {
		t.Fatalf("reload: base=%d len=%d, memory has base=%d len=%d", l2.BaseSeq(), l2.Len(), l.BaseSeq(), l.Len())
	}
}

// TestInspectLogIsReadOnly: inspecting a store that holds a stray segment
// reports the log as Reload would and deletes nothing.
func TestInspectLogIsReadOnly(t *testing.T) {
	store := pmem.NewMemStore()
	l := mustOpen(t, store, "i", 0)
	appendN(l, 2*SegmentRecords+9)
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	stray, strayData, err := store.Load(sealedName("i", 1))
	if err != nil {
		t.Fatal(err)
	}
	if err := l.TruncateThrough(SegmentRecords + 3); err != nil {
		t.Fatal(err)
	}
	if err := store.Save(stray, strayData); err != nil { // a delete the directory forgot
		t.Fatal(err)
	}
	before, _ := store.List()
	st, err := InspectLog(store, "i")
	if err != nil {
		t.Fatal(err)
	}
	if st.BaseSeq != SegmentRecords+4 || st.LastSeq != 2*SegmentRecords+9 || st.Records != SegmentRecords+6 || st.Segments != 2 {
		t.Fatalf("inspected stats: %+v", st)
	}
	if after, _ := store.List(); !slices.Equal(after, before) || len(after) != 3 {
		t.Fatalf("inspection changed the store: %v -> %v", before, after)
	}
	if _, err := InspectLog(store, "absent"); err != nil {
		t.Fatalf("inspecting a log with no image: %v", err)
	}
}

// TestLogResetToAcrossSegments: ResetTo leaves a durable watermark that a
// reload finds with zero records, and disowns the old incarnation's sealed
// segments even when they would connect to the new sequence space.
func TestLogResetToAcrossSegments(t *testing.T) {
	store := pmem.NewMemStore()
	l := mustOpen(t, store, "r", 0)
	appendN(l, 2*SegmentRecords+5)
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	old, oldData, err := store.Load(sealedName("r", 1))
	if err != nil {
		t.Fatal(err)
	}
	if err := l.ResetTo(0); err != nil {
		t.Fatal(err)
	}
	if names, _ := store.List(); len(names) != 1 {
		t.Fatalf("images after reset: %v", names)
	}
	// A crash between the reset's commit and its deletes leaves the old
	// segment behind; it starts at the reset watermark + 1 and must still
	// be refused.
	if err := store.Save(old, oldData); err != nil {
		t.Fatal(err)
	}
	l2 := mustOpen(t, store, "r", 0)
	if l2.Len() != 0 || l2.LastSeq() != 0 {
		t.Fatalf("reload after reset: len=%d last=%d", l2.Len(), l2.LastSeq())
	}
	if names, _ := store.List(); len(names) != 1 {
		t.Fatalf("stray survived reload: %v", names)
	}

	if err := l.ResetTo(20); err != nil {
		t.Fatal(err)
	}
	l3 := mustOpen(t, store, "r", 0)
	if l3.Len() != 0 || l3.LastSeq() != 20 || l3.FlushedSeq() != 20 {
		t.Fatalf("reload after ResetTo(20): len=%d last=%d flushed=%d", l3.Len(), l3.LastSeq(), l3.FlushedSeq())
	}
	if err := l3.AppendAt(Record{Seq: 21, Key: 1, Op: RecPut}); err != nil {
		t.Fatalf("append at watermark+1 after reload: %v", err)
	}
}

// TestOpenLogRefusesWholeLogImage: the single whole-log NVOPLOG1 image an
// earlier format kept — magic, last-seq, count, records, under a valid
// store checksum — is not a log image any more, and opening it is
// ErrCorrupt rather than an empty log over old records.
func TestOpenLogRefusesWholeLogImage(t *testing.T) {
	store := pmem.NewMemStore()
	img := binary.LittleEndian.AppendUint64([]byte("NVOPLOG1"), 3)
	img = binary.LittleEndian.AppendUint32(img, 3)
	for seq := uint64(1); seq <= 3; seq++ {
		img = AppendRecord(img, Record{Seq: seq, Key: seq, Value: seq, Op: RecPut})
	}
	meta := pmem.Meta{Name: "oplog-0", Size: uint64(len(img)), Sum: pmem.ImageChecksum(img)}
	if err := store.Save(meta, img); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenLog(store, "oplog-0", 0); !errors.Is(err, pmem.ErrCorrupt) {
		t.Fatalf("whole-log image: err = %v, want ErrCorrupt", err)
	}
}

// TestOpenLogChecksZeroSum: a tail image saved with Meta.Sum 0 over bytes
// whose checksum is not 0 is a mismatch, not an unchecked image.
func TestOpenLogChecksZeroSum(t *testing.T) {
	store := pmem.NewMemStore()
	l := mustOpen(t, store, "s", 0)
	appendN(l, 3)
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	meta, data, err := store.Load("s")
	if err != nil {
		t.Fatal(err)
	}
	meta.Sum = 0
	if err := store.Save(meta, data); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenLog(store, "s", 0); !errors.Is(err, pmem.ErrCorrupt) {
		t.Fatalf("tail saved with Sum 0: err = %v, want ErrCorrupt", err)
	}
}

// TestLogReloadTornTailFile: a tail file cut short on a DirStore — which
// reports ErrCorrupt alongside the surviving bytes — reloads to its last
// whole record on top of the sealed segments.
func TestLogReloadTornTailFile(t *testing.T) {
	dir := t.TempDir()
	store, err := pmem.NewDirStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	l := mustOpen(t, store, "t", 0)
	appendN(l, SegmentRecords+20)
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	path := newestSlot(t, dir, "t")
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, fi.Size()-5*RecordSize-7); err != nil {
		t.Fatal(err)
	}
	l2 := mustOpen(t, store, "t", 0)
	if want := uint64(SegmentRecords + 14); l2.LastSeq() != want || l2.Len() != int(want) {
		t.Fatalf("torn tail file: last=%d len=%d, want %d", l2.LastSeq(), l2.Len(), want)
	}
	if st := l2.Stats(); st.TornRecords != 6 {
		t.Fatalf("torn records = %d, want 6", st.TornRecords)
	}
	// The same cut in a sealed segment is not a crash artifact.
	sealed := newestSlot(t, dir, sealedName("t", 1))
	if err := os.Truncate(sealed, fi.Size()); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenLog(store, "t", 0); !errors.Is(err, pmem.ErrCorrupt) {
		t.Fatalf("torn sealed segment: %v", err)
	}
}

// TestLogReloadMissingSegment: a hole in the merged sequence is reported,
// never papered over by serving a log with records missing.
func TestLogReloadMissingSegment(t *testing.T) {
	store := pmem.NewMemStore()
	l := mustOpen(t, store, "h", 0)
	appendN(l, 3*SegmentRecords+1)
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := store.Delete(sealedName("h", SegmentRecords+1)); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenLog(store, "h", 0); !errors.Is(err, pmem.ErrCorrupt) {
		t.Fatalf("missing middle segment: %v", err)
	}
	if err := store.Delete(sealedName("h", 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenLog(store, "h", 0); !errors.Is(err, pmem.ErrCorrupt) {
		t.Fatalf("missing oldest segments: %v", err)
	}
}

func TestLogNames(t *testing.T) {
	got := LogNames([]string{
		"oplog-0", sealedName("oplog-0", 1), sealedName("oplog-0", 257),
		sealedName("oplog-1", 513), // a sealed segment alone still names its log
		"solo", "odd.seg-12", "odd.seg-zzzzzzzzzzzzzzzz",
	})
	want := []string{"odd.seg-12", "odd.seg-zzzzzzzzzzzzzzzz", "oplog-0", "oplog-1", "solo"}
	if !slices.Equal(got, want) {
		t.Fatalf("LogNames = %v, want %v", got, want)
	}
}

// TestLogConcurrentAppendShipTruncate: the shard worker appends (rolling
// segments on the flush cadence) while a shipper pulls durable records and
// truncates behind itself; every record ships exactly once, in order, and
// a reload agrees with memory afterwards.
func TestLogConcurrentAppendShipTruncate(t *testing.T) {
	const total = 16 * SegmentRecords
	store := pmem.NewMemStore()
	l := mustOpen(t, store, "c", 64)
	done := make(chan struct{})
	go func() {
		defer close(done)
		appendN(l, total)
	}()
	var cursor uint64
	for cursor < total {
		for _, rec := range l.SinceDurable(cursor, 100) {
			if rec.Seq != cursor+1 {
				t.Errorf("shipped seq %d after %d", rec.Seq, cursor)
				cursor = total
				break
			}
			cursor = rec.Seq
		}
		if err := l.TruncateThrough(cursor / 2); err != nil {
			t.Errorf("truncate: %v", err)
			break
		}
	}
	<-done
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	l2 := mustOpen(t, store, "c", 64)
	if l2.LastSeq() != total || l2.BaseSeq() != l.BaseSeq() || l2.Len() != l.Len() {
		t.Fatalf("reload: last=%d base=%d len=%d, memory has last=%d base=%d len=%d",
			l2.LastSeq(), l2.BaseSeq(), l2.Len(), l.LastSeq(), l.BaseSeq(), l.Len())
	}
}

// ---- Await / Publish ---------------------------------------------------------

func isReady(ready <-chan struct{}) bool {
	select {
	case <-ready:
		return true
	default:
		return false
	}
}

// TestLogAwaitPublish: an append alone wakes nobody; a Publish wakes
// exactly the waiters whose cursor the log has passed; a waiter that finds
// the log already past its cursor never parks; and a cancelled waiter is
// gone from the log, woken or not.
func TestLogAwaitPublish(t *testing.T) {
	l := mustOpen(t, nil, "w", 0)
	appendN(l, 3)
	if behind, _ := l.Await(2); !isReady(behind) || l.Waiters() != 0 {
		t.Fatalf("Await behind the log: ready=%v waiters=%d", isReady(behind), l.Waiters())
	}
	caughtUp, cancelCaughtUp := l.Await(3)
	ahead, cancelAhead := l.Await(4)
	if isReady(caughtUp) || isReady(ahead) || l.Waiters() != 2 {
		t.Fatalf("Await at/ahead of the log did not park: waiters=%d", l.Waiters())
	}
	l.Publish() // nothing new: the reader that already shipped 1..3 stays parked
	if isReady(caughtUp) {
		t.Fatal("a publish of nothing woke a caught-up waiter")
	}
	l.Append(RecPut, 4, 4)
	if isReady(caughtUp) || isReady(ahead) {
		t.Fatal("an append woke a waiter before Publish")
	}
	l.Publish()
	if !isReady(caughtUp) || isReady(ahead) || l.Waiters() != 1 {
		t.Fatalf("Publish at seq 4: cursor 3 ready=%v, cursor 4 ready=%v, waiters=%d",
			isReady(caughtUp), isReady(ahead), l.Waiters())
	}
	cancelCaughtUp() // after the wake: nothing to remove, nothing to break
	cancelAhead()
	cancelAhead()
	if l.Waiters() != 0 {
		t.Fatalf("waiters after cancel = %d", l.Waiters())
	}
	appendN(l, 2)
	l.Publish()
	if isReady(ahead) {
		t.Fatal("a cancelled waiter was woken")
	}
}

// TestLogAppendAllocatesNothingForWaiters: the wait machinery costs the
// append path no allocation — with nobody parked, and with somebody parked
// ahead of the log, which Publish has to look at and leave alone.
func TestLogAppendAllocatesNothingForWaiters(t *testing.T) {
	l := mustOpen(t, nil, "a", 0)
	appendN(l, 1<<12) // grow the record slice past what the runs below add
	l.TruncateThrough(1 << 12)
	step := func() {
		l.Append(RecPut, 1, 1)
		l.Publish()
	}
	if allocs := testing.AllocsPerRun(1000, step); allocs != 0 {
		t.Fatalf("append+publish with no waiter: %v allocs", allocs)
	}
	_, cancel := l.Await(1 << 40)
	defer cancel()
	if allocs := testing.AllocsPerRun(1000, step); allocs != 0 {
		t.Fatalf("append+publish past a parked waiter: %v allocs", allocs)
	}
}

// TestLogAwaitConcurrent: readers park, ship and re-park while the
// appender publishes; each sees every record once, none is left parked
// behind a publish that covered it, and nothing stays registered.
func TestLogAwaitConcurrent(t *testing.T) {
	const total, readers = 2000, 4
	l := mustOpen(t, pmem.NewMemStore(), "cw", 64)
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var cursor uint64
			for cursor < total {
				ready, cancel := l.Await(cursor)
				<-ready
				cancel()
				for _, rec := range l.SinceDurable(cursor, 0) {
					if rec.Seq != cursor+1 {
						t.Errorf("shipped seq %d after %d", rec.Seq, cursor)
						return
					}
					cursor = rec.Seq
				}
			}
		}()
	}
	for i := 0; i < total; i++ {
		l.Append(RecPut, uint64(i), uint64(i))
		if i%3 == 0 || i == total-1 {
			l.Publish()
		}
	}
	wg.Wait()
	if l.Waiters() != 0 {
		t.Fatalf("waiters left = %d", l.Waiters())
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
