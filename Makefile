GO ?= go

.PHONY: build test fuzz verify loc bench sim serve

build:
	$(GO) build ./...

test:
	$(GO) build ./... && $(GO) vet ./... && $(GO) test ./... && $(MAKE) fuzz

# Short fuzz smoke over both halves of the wire codec, the incremental
# image checksum and the DirStore slot reader (arbitrary bytes in a name's
# two slot files) — the one list of fuzz legs; verify.sh runs this target.
fuzz:
	$(GO) test -run='^$$' -fuzz=FuzzDecodeFrame -fuzztime=10s ./internal/server/
	$(GO) test -run='^$$' -fuzz=FuzzDecodeReply -fuzztime=10s ./internal/server/
	$(GO) test -run='^$$' -fuzz=FuzzImageChecksum -fuzztime=10s ./internal/pmem/
	$(GO) test -run='^$$' -fuzz=FuzzDirStoreLoad -fuzztime=10s ./internal/pmem/

# Full gate: build + vet + race-enabled tests (the fault matrix in
# internal/fault/inject and the crash sweep in internal/fault/harness
# included). CI and pre-merge runs use this.
verify:
	sh scripts/verify.sh

# Non-test Go lines per package of the module (nested ones included), one
# line each, then their total — the figure a ROADMAP item's LoC delta is read
# from (run it before and after).
loc:
	@$(GO) list -f '{{.Dir}} {{.ImportPath}}' ./... | while read -r dir pkg; do \
		printf '%6d %s\n' "$$(cat /dev/null $$(ls $$dir/*.go | grep -v _test.go) | wc -l)" "$$pkg"; \
	done | awk '{ print; total += $$1 } END { printf "%6d total\n", total }'

bench:
	$(GO) test -bench=. -benchmem

# Simulation gate: deterministic cluster simulation — byte-identical
# same-seed replay (TestDeterminism), the split-brain fence gate
# (TestFenceGate), a 10-seed nemesis sweep checked for durable
# linearizability (TestSweepSchedules), and every builtin schedule's
# verdict (TestSchedules). It is also the self-healing (flaky-steady:
# shard kills + network faults), replication (crash-failover-restart),
# media (corrupt-under-load) and cluster (migration-kill: a node joins by
# live migration across its own crash) gate. make test runs it too.
sim:
	$(GO) test -count=1 -run 'TestDeterminism|TestFenceGate|TestSchedules|TestSweepSchedules' ./internal/sim/

# Run the sharded KV daemon with persistent pools and the metrics mux.
serve:
	$(GO) run ./cmd/nvserved -data ./nvserved-data -http localhost:9090
