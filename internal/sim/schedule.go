package sim

import (
	"fmt"
	"time"
)

// ActionKind enumerates the nemesis moves a schedule can make.
type ActionKind string

const (
	// ActPartition cuts both directions between Node and Peer.
	ActPartition ActionKind = "partition"
	// ActOneway cuts only the Node→Peer direction (asymmetric partition).
	ActOneway ActionKind = "oneway"
	// ActHeal restores both directions between Node and Peer.
	ActHeal ActionKind = "heal"
	// ActHealAll restores every link.
	ActHealAll ActionKind = "heal-all"
	// ActAdvance moves the virtual clock forward by D — this is how
	// fencing, promotion, liveness, and ack-expiry windows elapse.
	ActAdvance ActionKind = "advance"
	// ActCrash kills Node without ceremony (no final checkpoint) and
	// records a crash marker in the history.
	ActCrash ActionKind = "crash"
	// ActRestart brings a crashed Node back on its old address with its
	// retained stores; Role overrides the node's role ("replica" makes a
	// restarted old primary rejoin as a follower of Peer).
	ActRestart ActionKind = "restart"
	// ActWaitRole blocks until Node has finished a promotion to the Role
	// ("primary"): it reports the role and its flight recorder holds the
	// promotion trigger.
	ActWaitRole ActionKind = "wait-role"
	// ActWaitConn blocks until Node's follower has had a pull answered
	// since Node's own start and since it last lost its primary to a crash
	// or a cut — by the primary's current incarnation, over a live link.
	ActWaitConn ActionKind = "wait-conn"
	// ActRebalance moves one slot onto Node by live migration, the first
	// its rebalance plan names, and returns once the handover committed —
	// cluster topology only.
	ActRebalance ActionKind = "rebalance"
	// ActCorrupt is the media nemesis: every checkpointed pool image in
	// Node's stores is damaged media-style (bytes change under an
	// unchanged checksum), alternating a single bit flip and a torn page
	// per firing. A fresh checkpoint is forced first, so the damage lands
	// on a current image and never races one being written. Requires a
	// schedule with Parity set; repair happens through the background
	// scrubber or through recovery-on-open after a later ActCrash.
	ActCorrupt ActionKind = "corrupt"
	// ActKillShard is the software-crash nemesis: it panics one shard
	// worker of Node and returns once the supervisor has restarted it in
	// place. The kth firing in a run hits shard k % simShards.
	ActKillShard ActionKind = "kill-shard"
)

// Action is one nemesis move, fired when AfterOp client operations have
// completed. Actions sharing an AfterOp fire back-to-back with no client
// operation between them — schedules rely on that to, e.g., partition a
// link and elapse the fencing window atomically, so no operation ever
// runs against a half-applied fault.
type Action struct {
	AfterOp int
	Kind    ActionKind
	Node    string
	Peer    string
	D       time.Duration
	Role    string
}

// OpKind is a scripted client operation class.
type OpKind string

const (
	OpPut    OpKind = "put"
	OpGet    OpKind = "get"
	OpDelete OpKind = "delete"
)

// OpSpec is one scripted operation: kind plus the key index it targets.
type OpSpec struct {
	Kind OpKind
	Key  int
}

// Schedule declares one simulation: topology, workload, configuration
// knobs under test, and the nemesis script.
type Schedule struct {
	Name     string
	Topology string // "pair" (primary/replica) or "cluster" (2 primaries, slot migration)

	// Ops is the number of client operations when Script is nil; the
	// driver draws a seeded put/get/delete mix over Keys. Script, when
	// set, replaces the random mix with an exact operation sequence —
	// the split-brain gates use it so the stale read is forced to land
	// where the violation is observable.
	Ops    int
	Keys   int
	Script []OpSpec

	Clients int

	// DeleteFrac, per mille, is the share of deletes in the random mix.
	// Gated-read schedules keep it 0: read gates are advanced by
	// acknowledged put sequence numbers only, so a delete would let a
	// lagging replica serve the pre-delete value through the gate — a
	// true stale read the checker would (correctly) flag.
	DeleteFrac int

	// FenceAfter/PromoteAfter configure the failover windows (virtual
	// time). Pair topology only.
	FenceAfter   time.Duration
	PromoteAfter time.Duration

	// GatedReads makes the driver issue reads with the newest
	// acknowledged per-shard sequence token, so a lagging node refuses
	// (and the client rotates) instead of serving stale state. Required
	// for any pair schedule that lets clients read from the replica.
	GatedReads bool

	// Flaky wraps client connections with the seed-deterministic fault
	// injector (delays served by the virtual clock).
	Flaky      bool
	FlakyEvery int // one injected fault per that many conn I/O calls

	// Parity arms the media-fault layer on every node: checkpoints
	// maintain parity sidecars, the background scrubber (virtual-clock
	// cadence) repairs corrupt stored images, and recovery repairs them
	// on open. Required by schedules that fire ActCorrupt.
	Parity bool
	// CheckpointEvery overrides the per-shard checkpoint cadence: a
	// checkpoint after that many mutations.
	// Zero keeps the sim default (-1: checkpoints only at barriers), so
	// crash recovery replays the full retained log. Media schedules set a
	// small positive cadence — ActCorrupt needs checkpointed images to
	// damage, and a crash then recovers from image plus log tail.
	CheckpointEvery int

	Actions []Action

	// ExpectViolation marks schedules constructed to corrupt history
	// (the unfenced split-brain gate): the run passes when the checker
	// DOES flag a durable-linearizability violation.
	ExpectViolation bool
}

// Window constants shared by the builtin schedules (virtual time).
const (
	simReplLive     = 200 * time.Millisecond
	simFenceAfter   = 300 * time.Millisecond
	simPromoteAfter = 500 * time.Millisecond
	simAckTimeout   = 2 * time.Second
)

// splitBrainScript builds the scripted gate workload on one key:
// warm-up writes and reads, a partition window with writes, then — after
// the old primary is crashed — reads only. The final reads must precede
// any fresh write: a write would overwrite the lost value and hide the
// loss from the reads that follow.
func splitBrainScript() []OpSpec {
	var s []OpSpec
	for i := 0; i < 6; i++ {
		s = append(s, OpSpec{Kind: OpPut})
	}
	s = append(s, OpSpec{Kind: OpGet}, OpSpec{Kind: OpGet})
	// ops 8..13: partition window (actions fire at AfterOp 8).
	for i := 0; i < 4; i++ {
		s = append(s, OpSpec{Kind: OpPut})
	}
	s = append(s, OpSpec{Kind: OpGet}, OpSpec{Kind: OpGet})
	// ops 14..19: old primary crashed (actions at AfterOp 14); reads only.
	for i := 0; i < 6; i++ {
		s = append(s, OpSpec{Kind: OpGet})
	}
	return s
}

// SplitBrain is the fencing gate: a primary⇄replica partition long
// enough for the replica to promote itself, writes during the window,
// then the old primary crashes and the survivors are read. With fencing
// disabled the partitioned primary keeps acknowledging writes the
// promoted replica never saw — a durable-linearizability violation the
// checker must flag. With FenceAfter below PromoteAfter the old primary
// fences itself first, clients rotate, and the same script is clean.
func SplitBrain(fenced bool) Schedule {
	s := Schedule{
		Name:         "split-brain-unfenced",
		Topology:     "pair",
		Keys:         1,
		Clients:      1,
		Script:       splitBrainScript(),
		PromoteAfter: simPromoteAfter,
		Actions: []Action{
			{AfterOp: 8, Kind: ActPartition, Node: "a", Peer: "b"},
			{AfterOp: 8, Kind: ActAdvance, D: simPromoteAfter + 50*time.Millisecond},
			{AfterOp: 8, Kind: ActWaitRole, Node: "b", Role: "primary"},
			{AfterOp: 14, Kind: ActCrash, Node: "a"},
		},
		ExpectViolation: true,
	}
	if fenced {
		s.Name = "split-brain-fenced"
		s.FenceAfter = simFenceAfter
		s.ExpectViolation = false
	}
	return s
}

// PartitionHeal is a sweep schedule: fenced pair, random workload with
// gated reads, a full partition that outlives both failover windows,
// then a heal. The promoted replica carries the traffic; the fenced old
// primary refuses writes and gated reads keep every read linearizable.
func PartitionHeal(ops int) Schedule {
	return Schedule{
		Name:         "partition-heal",
		Topology:     "pair",
		Ops:          ops,
		Keys:         8,
		Clients:      3,
		FenceAfter:   simFenceAfter,
		PromoteAfter: simPromoteAfter,
		GatedReads:   true,
		Actions: []Action{
			{AfterOp: ops / 4, Kind: ActPartition, Node: "a", Peer: "b"},
			{AfterOp: ops / 4, Kind: ActAdvance, D: simPromoteAfter + 50*time.Millisecond},
			{AfterOp: ops / 4, Kind: ActWaitRole, Node: "b", Role: "primary"},
			{AfterOp: ops / 2, Kind: ActHeal, Node: "a", Peer: "b"},
		},
	}
}

// CrashRestartReplica is a sweep schedule: the replica crashes without
// warning and later rejoins with its retained stores, recovering from
// its own log and catching up from the primary. The advance past the
// replica-liveness window is load-bearing: without it the primary would
// hold every write ack for a replica that can never answer.
func CrashRestartReplica(ops int) Schedule {
	return Schedule{
		Name:         "crash-restart-replica",
		Topology:     "pair",
		Ops:          ops,
		Keys:         8,
		Clients:      3,
		FenceAfter:   0, // a lone primary must keep serving after replica loss
		PromoteAfter: simPromoteAfter,
		GatedReads:   true,
		Actions: []Action{
			{AfterOp: ops / 3, Kind: ActCrash, Node: "b"},
			{AfterOp: ops / 3, Kind: ActAdvance, D: simReplLive + 50*time.Millisecond},
			{AfterOp: 2 * ops / 3, Kind: ActRestart, Node: "b", Role: "replica", Peer: "a"},
			{AfterOp: 2 * ops / 3, Kind: ActWaitConn, Node: "b"},
		},
	}
}

// CrashFailoverRestart is the replication gate: under a flaky client
// network the primary crashes, the replica promotes itself after the
// silence window, and the old primary later rejoins as a replica
// following the new primary.
func CrashFailoverRestart(ops int) Schedule {
	return Schedule{
		Name:         "crash-failover-restart",
		Topology:     "pair",
		Ops:          ops,
		Keys:         8,
		Clients:      3,
		FenceAfter:   simFenceAfter,
		PromoteAfter: simPromoteAfter,
		GatedReads:   true,
		Flaky:        true,
		Actions: []Action{
			{AfterOp: ops / 3, Kind: ActCrash, Node: "a"},
			{AfterOp: ops / 3, Kind: ActAdvance, D: simPromoteAfter + 50*time.Millisecond},
			{AfterOp: ops / 3, Kind: ActWaitRole, Node: "b", Role: "primary"},
			{AfterOp: 2 * ops / 3, Kind: ActRestart, Node: "a", Role: "replica", Peer: "b"},
		},
	}
}

// MigrationKill is the cluster gate: node a owns every slot, node b joins
// empty, and under a flaky client network b takes its fair share (half of
// simSlots) one live migration per ActRebalance — four before it is
// killed at ops/3, four more after it restarts at ops/2 with its retained
// stores. Clients find b only through MOVED redirects and map refreshes;
// the slots b holds go unserved while it is down.
func MigrationKill(ops int) Schedule {
	s := Schedule{
		Name:     "migration-kill",
		Topology: "cluster",
		Ops:      ops,
		Keys:     16,
		Clients:  3,
		Flaky:    true,
		Actions: []Action{
			{AfterOp: ops / 3, Kind: ActCrash, Node: "b"},
			{AfterOp: ops / 2, Kind: ActRestart, Node: "b"},
		},
	}
	step := ops / 15
	for k := 1; k <= simSlots/4; k++ {
		s.Actions = append(s.Actions,
			Action{AfterOp: k * step, Kind: ActRebalance, Node: "b"},
			Action{AfterOp: ops/2 + k*step, Kind: ActRebalance, Node: "b"})
	}
	return s
}

// CorruptUnderLoad is the media sweep schedule: a fenced pair with the
// parity layer armed, random gated-read workload, and three media-fault
// episodes — one repaired at rest (scrubber or checkpoint rewrite), one
// driven through primary crash recovery (corrupt, power-loss, and restart
// at the same op index, so the virtual clock never advances and the
// replica cannot promote meanwhile), and one through replica crash
// recovery. The durable-linearizability checker gates the result: media
// damage plus repair must never surface as lost or resurrected writes.
func CorruptUnderLoad(ops int) Schedule {
	return Schedule{
		Name:            "corrupt-under-load",
		Topology:        "pair",
		Ops:             ops,
		Keys:            8,
		Clients:         3,
		FenceAfter:      simFenceAfter,
		PromoteAfter:    simPromoteAfter,
		GatedReads:      true,
		Parity:          true,
		CheckpointEvery: 8,
		Actions: []Action{
			// At-rest repair: damage the primary's stored images mid-load
			// and leave them to the scrubber (or a checkpoint rewrite).
			{AfterOp: ops / 4, Kind: ActCorrupt, Node: "a"},
			// Primary recovery repair: corrupt, crash, restart back-to-back.
			{AfterOp: ops / 2, Kind: ActCorrupt, Node: "a"},
			{AfterOp: ops / 2, Kind: ActCrash, Node: "a"},
			{AfterOp: ops / 2, Kind: ActRestart, Node: "a"},
			{AfterOp: ops / 2, Kind: ActWaitConn, Node: "b"},
			// Replica recovery repair: corrupt and crash b, advance past the
			// liveness window so the lone primary keeps acking (degraded),
			// then rejoin as a follower.
			{AfterOp: 2 * ops / 3, Kind: ActCorrupt, Node: "b"},
			{AfterOp: 2 * ops / 3, Kind: ActCrash, Node: "b"},
			{AfterOp: 2 * ops / 3, Kind: ActAdvance, D: simReplLive + 50*time.Millisecond},
			{AfterOp: 5 * ops / 6, Kind: ActRestart, Node: "b", Role: "replica", Peer: "a"},
			{AfterOp: 5 * ops / 6, Kind: ActWaitConn, Node: "b"},
		},
	}
}

// Steady is the no-fault baseline: a healthy pair, deletes included.
func Steady(ops int) Schedule {
	return Schedule{
		Name:         "steady",
		Topology:     "pair",
		Ops:          ops,
		Keys:         8,
		Clients:      3,
		DeleteFrac:   150,
		FenceAfter:   simFenceAfter,
		PromoteAfter: simPromoteAfter,
	}
}

// FlakySteady is the self-healing gate: same healthy pair, but every
// client connection runs behind the seeded flaky wrapper (injected delays
// served by the virtual clock), and four shard workers of the primary are
// killed and restarted in place under the load.
func FlakySteady(ops int) Schedule {
	s := Steady(ops)
	s.Name = "flaky-steady"
	// Injected conn faults make clients rotate onto the replica, so
	// reads must carry gates — and gates don't cover deletes.
	s.DeleteFrac = 0
	s.GatedReads = true
	s.Flaky = true
	s.FlakyEvery = 40
	for k := 1; k <= 4; k++ {
		s.Actions = append(s.Actions, Action{AfterOp: k * ops / 5, Kind: ActKillShard, Node: "a"})
	}
	return s
}

// builtin is one named schedule: its constructor, the seeds whose
// histories must replay byte for byte, and whether the nemesis sweep runs
// it under every one of ten seeds. The split-brain scripts draw nothing
// from the seed, so one seed covers them.
type builtin struct {
	name  string
	build func(ops int) Schedule
	seeds []int64
	sweep bool
}

// builtins is every schedule a gate rests on.
var builtins = []builtin{
	{"steady", Steady, []int64{1, 2, 3}, false},
	{"flaky-steady", FlakySteady, []int64{1, 2, 3}, true},
	{"split-brain-unfenced", func(int) Schedule { return SplitBrain(false) }, []int64{1}, false},
	{"split-brain-fenced", func(int) Schedule { return SplitBrain(true) }, []int64{1}, false},
	{"partition-heal", PartitionHeal, []int64{1, 2, 3}, true},
	{"crash-restart-replica", CrashRestartReplica, []int64{1, 2, 3}, true},
	{"crash-failover-restart", CrashFailoverRestart, []int64{1, 2, 3}, true},
	{"migration-kill", MigrationKill, []int64{1, 2, 3}, true},
	{"corrupt-under-load", CorruptUnderLoad, []int64{1, 2, 3}, true},
}

// Schedules returns the named builtin schedule, sized to ops.
func Schedules(name string, ops int) (Schedule, error) {
	for _, b := range builtins {
		if b.name == name {
			return b.build(ops), nil
		}
	}
	return Schedule{}, fmt.Errorf("sim: unknown schedule %q", name)
}
