#!/bin/sh
# Full verification: build, vet, and the race-enabled test suite — which
# includes the fault matrix (internal/fault/inject's TestTransient*,
# TestTorn*, TestBitFlip* and TestStaleSaveServesPreviousImage), the
# crash-point sweep (internal/fault/harness's TestEnumerateAllPersistPoints
# and TestDoubleRecovery), the simulator's 10-seed nemesis sweep
# (internal/sim's TestSweepSchedules) and the recovery tests — run once,
# writing one coverage profile; then one leg per subsystem: a coverage gate
# read from that profile where verdicts rest on the subsystem, and its
# targeted tests (repeated where an ordering flake could hide).
# Performance is not judged here; benchmark/ does.
set -eux

cd "$(dirname "$0")/.."

cover="$(mktemp)"
trap 'rm -f "$cover"' EXIT

# cover_gate <pkg> <pct>: fails when the statement coverage of
# internal/<pkg>/... in the suite's one coverage profile is below <pct>
# percent. Each package's tests cover only that package, so the tree's
# share of the profile is what a run over internal/<pkg>/... alone reports.
cover_gate() {
	awk -v pkg="internal/$1" -v min="$2" '
		index($1, "/" pkg "/") { total += $2; if ($3 > 0) covered += $2 }
		END {
			if (total == 0) {
				printf "FAIL: no %s statements in the coverage profile\n", pkg
				exit 1
			}
			pct = sprintf("%.1f", 100 * covered / total)
			printf "%s coverage: %s%% (gate: %s%%)\n", pkg, pct, min
			if (pct + 0 < min + 0) {
				printf "FAIL: %s coverage below %s%%\n", pkg, min
				exit 1
			}
		}' "$cover"
}

go build ./...
go vet ./...
# benchmark/ is its own module, so the root ./... never reaches it.
(cd benchmark && go build ./... && go vet ./...)
test -z "$(gofmt -l .)"
go test -race -coverprofile="$cover" ./...

# Observability is what every other package trusts for its numbers; the
# serving tier is the only concurrent subsystem; the replication data
# plane (op-log records and the persistent log) backs the zero-loss
# promise.
cover_gate obs 80
cover_gate server 80
cover_gate repl 80

# Reference-model leg: the paper's contribution — the reference word and
# the Figure 4 rows (core) and the four reference models built on them
# (rt), whose every op and counter the ops golden pins; the simulated
# machine under them (cpu, mem, and the POLB/VALB lookaside structures in
# hw), whose host-side speed-ups are held to the plain models' counts by
# the oracles in cpu_test.go and mem_test.go; and the mini-C compiler and
# interpreter (minc) that runs the legacy-program corpus on those models.
# The simulator's per-layer microbenchmarks then run one iteration each, so
# they keep compiling and running.
cover_gate core 80
cover_gate rt 80
cover_gate cpu 80
cover_gate mem 80
cover_gate hw 80
cover_gate minc 80
go test -run '^$' -bench . -benchtime=1x ./internal/mem/ ./internal/cpu/ ./internal/hw/ ./internal/kvstore/

# Resilience leg: the recovery ladder over every cause and kind of damage.
# Shard kills under injected network faults (flaky-steady), the primary
# killed mid-stream under them (crash-failover-restart) and media
# corruption under load (corrupt-under-load) are sim schedules: the
# simulation leg below replays and judges them.
go test -race -run 'Ladder|Residue' ./internal/server/

# Cluster leg: the slot map, live migration, fencing and the routing
# client under the race detector. The gate under load — a node joining
# through a flaky network takes its fair share by live migration across
# its own crash, with zero stale-epoch writes and no fence left — is
# migration-kill in the simulation leg below.
cover_gate cluster 80
go test -race -run 'TestCluster' ./internal/server/

# Simulation leg: the harness and checker are what the consistency verdicts
# rest on. Every node pair talks over the simulator's in-memory network
# (sim.Net), which owns each connection, cut and injected fault. The suite
# above already ran the gate once: same-seed replay of every builtin
# schedule with byte-identical histories and results (TestDeterminism), the
# unfenced split-brain flagged while the fenced one passes (TestFenceGate),
# and a 10-seed nemesis matrix (TestSweepSchedules: partitions,
# crash-restarts, failover and shard kills under injected network faults,
# media corruption, a joiner killed between live migrations) whose every run
# passes its verdict: durable linearizability plus the counters its script
# implies — restarts per shard kill, injected net faults, pages repaired,
# promotions, a clean held-ack discipline, lag drained, slots handed over
# and epochs advanced per rebalance step, no stale-epoch write, a clean
# read-back. The transport's own semantics (refused dials to a closed
# listener, reads after a peer's close, seeded faults, retryable errors)
# are the TestNet* and TestFaults* tests. The replay is repeated here under
# the race detector.
cover_gate sim 80
go test -race -count=2 -run 'TestDeterminism' ./internal/sim/

# Media leg: the parity layer and the pool images under it (the
# incremental checkpoint, the sidecar record, repair) are what the in-place
# repair promise rests on; then the repair round-trips across pmem and the
# serving tier. The gate under load — bit flips and torn pages repaired
# from parity with zero acked-write loss, zero client-visible errors, zero
# promotions — is corrupt-under-load in the simulation leg.
cover_gate parity 80
cover_gate pmem 80
go test -race -run 'Media|Corrupt|Parity|Sidecar|Torn' \
	./internal/pmem/ ./internal/server/

# Checkpoint leg: store-time dirty tags, the two images a pool checkpoint
# patches in place, and the periodic save the serving tier runs beside the
# shard worker — repeated under the race detector, so an ordering flake
# between the save, its commit and the op-log truncation shows.
go test -race -count=10 -run 'Checkpoint|Truncat|Dirty' \
	./internal/mem/ ./internal/pmem/ ./internal/server/

# Tracing leg: envelope codec, echo discipline, span/flight recorders and
# health probes under the race detector, with the plane's gates among them:
# every echo returns (TestTraceReplyEchoContract, TestBatchTracePropagation),
# each traced op's stage chain on a replicated primary is ordered and fits
# its measured e2e latency, and every stage is seen (TestTraceChainSound), a
# promotion dumps the flight recorder with the spans in flight
# (TestPromotionDumpsFlightRecorder; promotion by silence is the sim
# verdict's promotion-dumps check), and the attached-but-unsampled plane is
# free by count: allocations per round trip and wire bytes equal a
# plane-less server's, zero recorder calls (TestTraceFreeWhenOff).
go test -race -run 'Trace|Span|Flight|Health|Statusz|Readiness|Fenced|Promotion|SlowOp' \
	./internal/obs/ ./internal/server/

# Fuzz smoke over both halves of the wire codec — malformed frames and
# replies must be rejected with protocol errors, never a panic or unbounded
# allocation — over the incremental image checksum: folded page sums,
# from scratch or re-summed over the edited pages, must equal the
# whole-image CRC-64 —
# and over the DirStore slot reader: arbitrary bytes in a name's two slot
# files load as an image under an intact header or as
# ErrCorrupt/ErrStoreMissing.
# The Makefile's fuzz target holds the one list of fuzz legs.
make fuzz
