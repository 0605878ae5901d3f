package server

// Request tracing support: the stage vocabulary stamped along a request's
// path, the flight-recorder trigger kinds, and the server-side sampler that
// traces a deterministic fraction of untraced requests.

import (
	"fmt"
	"sync/atomic"
)

// Stage labels of the request path, in hop order. Client- and server-side
// span recorders share this vocabulary so a trace reads end to end.
const (
	StageClientSend  = "client_send"   // client: request encode + frame write into the connection buffer (closed before the flush)
	StageDecode      = "server_decode" // server: frame read to decoded request
	StageQueueWait   = "queue_wait"    // admission queue: submit to worker pickup
	StageExecute     = "execute"       // shard worker: store operation, excluding the op-log append
	StageOplogAppend = "oplog_append"  // shard worker: op-log record append
	StageOplogFlush  = "oplog_flush"   // op-log flush at a checkpoint's truncation or a replica's apply (untraced; the LogFlushEvery cadence flush runs inside oplog_append)
	StageReplShip    = "repl_ship"     // primary: REPLICATE pull served (background, untraced)
	StageReplApply   = "repl_apply"    // replica: shipped records applied + flushed (background, untraced)
	StageAckHold     = "replack_hold"  // primary: write ack held for replica durability
	StageReplyEncode = "reply_encode"  // server: reply encode + frame write into the connection buffer (closed before the flush)
)

// Flight-recorder trigger kinds: the control-plane transitions that freeze
// and dump the incident ring.
const (
	TriggerPromotion   = "promotion"    // replica promoted itself to primary
	TriggerFencing     = "fencing"      // self-fenced primary refused a write
	TriggerBreakerOpen = "breaker_open" // watchdog force-opened a wedged shard's breaker
	TriggerRestart     = "restart"      // supervisor restarted a crashed shard worker
	TriggerDivergence  = "divergence"   // follower detected a log gap it cannot bridge
	TriggerMigration   = "migration"    // a cluster slot finished handover (in or out)
	TriggerEpoch       = "epoch"        // stale-epoch writes detected after a handover
	TriggerReseed      = "reseed"       // follower re-seeded itself from a primary snapshot
	TriggerMediaRepair = "media_repair" // pages reconstructed from parity (or damage beyond it)
)

// traceSampler traces every Nth untraced request with a fresh trace ID. A
// nil sampler never samples, so the disabled path is one pointer test.
type traceSampler struct {
	every uint64
	n     atomic.Uint64
	ids   atomic.Uint64
	seed  uint64
}

// newTraceSampler returns a sampler approximating the given rate in (0, 1]
// with a 1-in-N counter (nil when rate <= 0).
func newTraceSampler(rate float64, seed uint64) *traceSampler {
	if rate <= 0 {
		return nil
	}
	every := uint64(1)
	if rate < 1 {
		every = uint64(1/rate + 0.5)
		if every < 1 {
			every = 1
		}
	}
	return &traceSampler{every: every, seed: seed}
}

// next reports whether this request is sampled, and under which trace ID.
func (ts *traceSampler) next() (uint64, bool) {
	if ts == nil {
		return 0, false
	}
	if (ts.n.Add(1)-1)%ts.every != 0 {
		return 0, false
	}
	return ts.id(), true
}

// id returns a fresh nonzero trace ID (splitmix64 over a counter, so IDs
// from one server never collide and spread well as map keys).
func (ts *traceSampler) id() uint64 {
	z := ts.seed + ts.ids.Add(1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	if z == 0 {
		z = 1
	}
	return z
}

// opName renders an op code for span and wide-event labels.
func opName(op byte) string {
	switch op {
	case OpGet:
		return "get"
	case OpPut:
		return "put"
	case OpDelete:
		return "delete"
	case OpScan:
		return "scan"
	case OpBatch:
		return "batch"
	case OpStats:
		return "stats"
	case OpCheckpoint:
		return "checkpoint"
	case OpReplicate:
		return "replicate"
	case OpReplAck:
		return "replack"
	default:
		return fmt.Sprintf("op%d", op)
	}
}
