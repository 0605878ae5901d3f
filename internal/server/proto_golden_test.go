package server

import (
	"bytes"
	"encoding/hex"
	"strings"
	"testing"

	"nvref/internal/repl"
)

// The golden wire vectors: the bytes the codec put on the wire when the
// table was captured, as hex literals. Round-trip tests cannot see an edit
// that moves the encoder and the decoder together; these can. A vector only
// changes with a deliberate protocol revision.

var (
	goldenRecs  = []repl.Record{{Seq: 5, Key: 6, Value: 7, Op: repl.RecPut}, {Seq: 6, Key: 6, Op: repl.RecDelete}}
	goldenPairs = []KV{{Key: 1, Value: 2}, {Key: 3, Value: 4}}
	goldenBatch = &Request{Op: OpBatch, Sub: []Request{
		{Op: OpGet, Key: 1},
		{Op: OpPut, Key: 2, Value: 3},
		{Op: OpDelete, Key: 4},
		{Op: OpScan, Key: 5, Limit: 6},
	}}
)

// goldenOps is every op once, bare; the request table also encodes each
// under the deadline and trace envelopes (and the seq gate, on GET).
var goldenOps = []struct {
	name         string
	req          Request
	bare, behind string // the request alone; behind its envelopes
}{
	{"get", Request{Op: OpGet, Key: 0x0102030405060708},
		"010807060504030201",
		"08dc0500000c efcdab8967452301 01 0b 2a00000000000000 010807060504030201"},
	{"put", Request{Op: OpPut, Key: 1, Value: 2},
		"0201000000000000000200000000000000",
		"08dc0500000c efcdab8967452301 01 0201000000000000000200000000000000"},
	{"delete", Request{Op: OpDelete, Key: ^uint64(0)},
		"03ffffffffffffffff",
		"08dc0500000c efcdab8967452301 01 03ffffffffffffffff"},
	{"scan", Request{Op: OpScan, Key: 7, Limit: 100},
		"04070000000000000064000000",
		"08dc0500000c efcdab8967452301 01 04070000000000000064000000"},
	{"batch", *goldenBatch,
		"0504000000 010100000000000000 0202000000000000000300000000000000 030400000000000000 04050000000000000006000000",
		"08dc0500000c efcdab8967452301 01 0504000000 010100000000000000 0202000000000000000300000000000000 030400000000000000 04050000000000000006000000"},
	{"stats", Request{Op: OpStats}, "06", "08dc0500000c efcdab8967452301 01 06"},
	{"checkpoint", Request{Op: OpCheckpoint}, "07", "08dc0500000c efcdab8967452301 01 07"},
	{"replicate", Request{Op: OpReplicate, Shard: 3, Seq: 9, Limit: 1024},
		"0903000000090000000000000000040000",
		"08dc0500000c efcdab8967452301 01 0903000000090000000000000000040000"},
	{"replack", Request{Op: OpReplAck, Shard: 3, Seq: 9},
		"0a030000000900000000000000",
		"08dc0500000c efcdab8967452301 01 0a030000000900000000000000"},
	{"clustermap", Request{Op: OpClusterMap}, "0d", "08dc0500000c efcdab8967452301 01 0d"},
	{"mapupdate", Request{Op: OpMapUpdate, Blob: []byte{0xde, 0xad, 0xbe, 0xef}},
		"0e04000000deadbeef",
		"08dc0500000c efcdab8967452301 01 0e04000000deadbeef"},
	{"migsnapshot", Request{Op: OpMigSnapshot, Shard: 1, Slot: SlotAll, Key: 11, Limit: 4096},
		"0f01000000ffffffff0b0000000000000000100000",
		"08dc0500000c efcdab8967452301 01 0f01000000ffffffff0b0000000000000000100000"},
	{"migpull", Request{Op: OpMigPull, Shard: 1, Slot: 2, Seq: 11, Limit: 4096},
		"1001000000020000000b0000000000000000100000",
		"08dc0500000c efcdab8967452301 01 1001000000020000000b0000000000000000100000"},
	{"migfence", Request{Op: OpMigFence, Slot: 2, Addr: "n2:7171"},
		"11020000000700 6e323a37313731",
		"08dc0500000c efcdab8967452301 01 11020000000700 6e323a37313731"},
}

// goldenReplies is OK per op, then the shapes the reply head owns: a bare
// non-OK status, MOVED with its hint, the trace echo, and a batch whose
// sub-replies carry both.
var goldenReplies = []struct {
	name string
	req  *Request
	rep  Reply
	wire string
}{
	{"get", &Request{Op: OpGet}, Reply{Found: true, Value: 77}, "00 01 4d00000000000000"},
	{"put", &Request{Op: OpPut}, Reply{Shard: 2, Seq: 9}, "00 02000000 0900000000000000"},
	{"delete", &Request{Op: OpDelete}, Reply{Found: true, Shard: 2, Seq: 10}, "00 01 02000000 0a00000000000000"},
	{"scan", &Request{Op: OpScan}, Reply{Pairs: goldenPairs},
		"00 02000000 01000000000000000200000000000000 03000000000000000400000000000000"},
	{"batch", goldenBatch, Reply{Sub: []Reply{
		{Found: true, Value: 9}, {Shard: 1, Seq: 2}, {Shard: 1, Seq: 3}, {Pairs: goldenPairs[:1]}}},
		"00 04000000 00010900000000000000 00010000000200000000000000 0000010000000300000000000000" +
			"00010000000100000000000000 0200000000000000"},
	{"stats", &Request{Op: OpStats}, Reply{Blob: []byte(`{"shards":4}`)}, "00 0c000000 7b22736861726473223a347d"},
	{"checkpoint", &Request{Op: OpCheckpoint}, Reply{}, "00"},
	{"replicate", &Request{Op: OpReplicate}, Reply{Seq: 6, Value: 5, Recs: goldenRecs},
		"00 0600000000000000 0500000000000000 02000000" +
			"05000000000000000600000000000000070000000000000001000000bf6d15cf" +
			"06000000000000000600000000000000000000000000000002000000f92ce6ab"},
	{"replack", &Request{Op: OpReplAck}, Reply{}, "00"},
	{"clustermap", &Request{Op: OpClusterMap}, Reply{Blob: []byte{0xde, 0xad, 0xbe, 0xef}}, "00 04000000 deadbeef"},
	{"mapupdate", &Request{Op: OpMapUpdate}, Reply{}, "00"},
	{"migsnapshot", &Request{Op: OpMigSnapshot}, Reply{Found: true, Seq: 12, Pairs: goldenPairs},
		"00 01 0c00000000000000 02000000 01000000000000000200000000000000 03000000000000000400000000000000"},
	{"migpull", &Request{Op: OpMigPull}, Reply{Found: true, Seq: 6, Value: 8, Recs: goldenRecs[:1]},
		"00 01 0600000000000000 0800000000000000 01000000" +
			"05000000000000000600000000000000070000000000000001000000bf6d15cf"},
	{"migfence", &Request{Op: OpMigFence}, Reply{Seqs: []uint64{3, 4}}, "00 02000000 0300000000000000 0400000000000000"},

	{"deadline", &Request{Op: OpPut}, Reply{Status: StatusDeadline}, "05"},
	{"moved", &Request{Op: OpGet}, Reply{Status: StatusMoved, Epoch: 7, Addr: "n2:7171"},
		"08 0700000000000000 0700 6e323a37313731"},
	{"traced ok", &Request{Op: OpGet, Trace: 0x0123456789abcdef}, Reply{Found: true, Value: 77, Trace: 0x0123456789abcdef},
		"0c efcdab8967452301 00 01 4d00000000000000"},
	{"traced refusal", &Request{Op: OpPut, Trace: 0x0123456789abcdef}, Reply{Status: StatusShed, Trace: 0x0123456789abcdef},
		"0c efcdab8967452301 03"},
	{"traced batch, moved sub-reply",
		&Request{Op: OpBatch, Trace: 0x0123456789abcdef, Sub: []Request{{Op: OpGet, Key: 1}, {Op: OpPut, Key: 2, Value: 3}}},
		Reply{Trace: 0x0123456789abcdef, Sub: []Reply{
			{Found: true, Value: 9, Trace: 0x0123456789abcdef},
			{Status: StatusMoved, Epoch: 7, Addr: "n2:7171", Trace: 0x0123456789abcdef}}},
		"0c efcdab8967452301 00 02000000" +
			"0c efcdab8967452301 00 01 0900000000000000" +
			"0c efcdab8967452301 08 0700000000000000 0700 6e323a37313731"},
	{"traced batch, moved whole", &Request{Op: OpBatch, Trace: 0x0123456789abcdef, Sub: []Request{{Op: OpGet, Key: 1}}},
		Reply{Status: StatusMoved, Epoch: 7, Addr: "n2:7171", Trace: 0x0123456789abcdef},
		"0c efcdab8967452301 08 0700000000000000 0700 6e323a37313731"},
}

func unhex(t *testing.T, s string) []byte {
	t.Helper()
	b, err := hex.DecodeString(strings.ReplaceAll(s, " ", ""))
	if err != nil {
		t.Fatalf("bad vector %q: %v", s, err)
	}
	return b
}

func TestGoldenRequestWire(t *testing.T) {
	for _, tc := range goldenOps {
		bare := tc.req
		behind := tc.req
		behind.TTLms, behind.Trace, behind.Sampled = 1500, 0x0123456789abcdef, true
		if tc.req.Op == OpGet {
			behind.Gate = 42
		}
		for _, v := range []struct {
			what string
			req  *Request
			wire string
		}{{"bare", &bare, tc.bare}, {"enveloped", &behind, tc.behind}} {
			want := unhex(t, v.wire)
			got, err := AppendRequest(nil, v.req)
			if err != nil {
				t.Fatalf("%s %s: %v", tc.name, v.what, err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%s %s: encoded\n %x, want\n %x", tc.name, v.what, got, want)
			}
			dec, err := DecodeRequest(want)
			if err != nil {
				t.Fatalf("%s %s: decoding the vector: %v", tc.name, v.what, err)
			}
			if again, err := AppendRequest(nil, dec); err != nil || !bytes.Equal(again, want) {
				t.Errorf("%s %s: the decoded vector re-encodes to\n %x (%v), want\n %x", tc.name, v.what, again, err, want)
			}
		}
	}
}

func TestGoldenReplyWire(t *testing.T) {
	encode := func(req *Request, rep *Reply) []byte {
		if req.Op == OpBatch {
			return AppendBatchReply(nil, req, rep)
		}
		return AppendReply(nil, req.Op, rep)
	}
	for _, tc := range goldenReplies {
		want := unhex(t, tc.wire)
		if got := encode(tc.req, &tc.rep); !bytes.Equal(got, want) {
			t.Errorf("%s: encoded\n %x, want\n %x", tc.name, got, want)
		}
		dec, err := DecodeReply(tc.req, want)
		if err != nil {
			t.Fatalf("%s: decoding the vector: %v", tc.name, err)
		}
		if again := encode(tc.req, dec); !bytes.Equal(again, want) {
			t.Errorf("%s: the decoded vector re-encodes to\n %x, want\n %x", tc.name, again, want)
		}
	}
}
