// Package repl is the replication layer's data plane: the fixed-size
// operation record every replicated write is logged as, and the per-shard
// persistent operation log those records live in.
//
// The design leans on the paper's relative-address format: because pool
// images are position-independent, a pool snapshot and an operation stream
// are both replayable in a different process at a different base address
// with no pointer swizzling. A replica therefore needs only (checkpoint
// image, log tail) to reconstruct a shard exactly, and the log records can
// be shipped over the wire as raw bytes.
//
// A record is 32 bytes, little-endian, CRC-protected:
//
//	[0:8)   seq    u64  per-shard sequence number, 1-based, dense
//	[8:16)  key    u64
//	[16:24) value  u64  (zero for deletes)
//	[24]    op     u8   RecPut | RecDelete
//	[25:28) -      zero reserved
//	[28:32) crc    u32  IEEE CRC32 over bytes [0:28)
//
// The CRC makes a record self-validating wherever it travels — in the log
// image, on the wire, or in a replica's apply queue — so a torn log tail
// or a corrupted frame is detected record-by-record instead of trusted.
package repl

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

// Record op kinds.
const (
	RecPut    byte = 1
	RecDelete byte = 2
)

// RecordSize is the fixed wire and log size of one record.
const RecordSize = 32

// ErrBadRecord reports a record that failed validation: bad size, unknown
// op, nonzero reserved bytes, or a CRC mismatch.
var ErrBadRecord = errors.New("repl: bad record")

// Record is one logged, replicable operation.
type Record struct {
	Seq   uint64
	Key   uint64
	Value uint64
	Op    byte
}

// AppendRecord appends the 32-byte wire form of r to buf, encoding in
// place so that a record costs no allocation beyond buf's own growth.
func AppendRecord(buf []byte, r Record) []byte {
	n := len(buf)
	buf = append(buf, make([]byte, RecordSize)...)
	b := buf[n:]
	binary.LittleEndian.PutUint64(b[0:], r.Seq)
	binary.LittleEndian.PutUint64(b[8:], r.Key)
	binary.LittleEndian.PutUint64(b[16:], r.Value)
	b[24] = r.Op
	binary.LittleEndian.PutUint32(b[28:], crc32.ChecksumIEEE(b[:28]))
	return buf
}

// DecodeRecord parses and validates one 32-byte record.
func DecodeRecord(b []byte) (Record, error) {
	if len(b) < RecordSize {
		return Record{}, fmt.Errorf("%w: %d bytes, want %d", ErrBadRecord, len(b), RecordSize)
	}
	want := binary.LittleEndian.Uint32(b[28:32])
	if got := crc32.ChecksumIEEE(b[:28]); got != want {
		return Record{}, fmt.Errorf("%w: crc %#x, want %#x", ErrBadRecord, got, want)
	}
	r := Record{
		Seq:   binary.LittleEndian.Uint64(b[0:]),
		Key:   binary.LittleEndian.Uint64(b[8:]),
		Value: binary.LittleEndian.Uint64(b[16:]),
		Op:    b[24],
	}
	if r.Op != RecPut && r.Op != RecDelete {
		return Record{}, fmt.Errorf("%w: unknown op %d", ErrBadRecord, r.Op)
	}
	if b[25] != 0 || b[26] != 0 || b[27] != 0 {
		return Record{}, fmt.Errorf("%w: nonzero reserved bytes", ErrBadRecord)
	}
	return r, nil
}

// EncodeRecords concatenates the wire forms of recs.
func EncodeRecords(recs []Record) []byte {
	buf := make([]byte, 0, len(recs)*RecordSize)
	for _, r := range recs {
		buf = AppendRecord(buf, r)
	}
	return buf
}

// DecodeRecords parses a concatenation of records, rejecting a buffer that
// is not a whole number of records, more than max records (when max > 0),
// or any record that fails validation.
func DecodeRecords(b []byte, max int) ([]Record, error) {
	if len(b)%RecordSize != 0 {
		return nil, fmt.Errorf("%w: %d bytes is not a whole number of records", ErrBadRecord, len(b))
	}
	n := len(b) / RecordSize
	if max > 0 && n > max {
		return nil, fmt.Errorf("%w: %d records exceeds %d", ErrBadRecord, n, max)
	}
	recs := make([]Record, n)
	for i := range recs {
		r, err := DecodeRecord(b[i*RecordSize:])
		if err != nil {
			return nil, fmt.Errorf("record %d: %w", i, err)
		}
		recs[i] = r
	}
	return recs, nil
}
