// Command nvserved runs the sharded persistent key-value service over the
// simulated runtime.
//
// Usage:
//
//	nvserved -addr localhost:7070 -shards 4 -data /tmp/nvserved
//	nvserved -addr localhost:7070 -http localhost:9090   # metrics mux
//
// Each shard owns its own simulation context and persistent pool. With
// -data, each pool lives in two slot files, <data>/shard-N/bench.pool.0
// and .1, and survives restarts: startup reopens every image, fscks it, and re-seats the index,
// so a killed daemon recovers to its last checkpoint. Without -data, pools
// live in process memory (gone at exit, but crash injection inside the
// process still exercises recovery).
//
// The serving tier is self-healing: each shard worker runs under a
// supervisor that catches panics, fscks and repairs the shard's pool, and
// restarts the worker in place; a watchdog opens the shard's circuit
// breaker when the worker wedges; and a background scrubber periodically
// fscks idle shards (-scrub-every). Overload is bounded by -admit-wait:
// requests that cannot be queued in time are answered with an explicit
// SHED frame instead of blocking the connection.
//
// Replication runs a pair of daemons:
//
//	nvserved -addr :7070 -role primary -data /var/a
//	nvserved -addr :7071 -role replica -follow localhost:7070 -data /var/b -promote-after 3s
//
// The primary appends every write to a per-shard op log (persisted under
// <data>/shard-N/oplog/) and holds the write's acknowledgment until the
// replica has pulled, applied, and acknowledged the record — an
// acknowledged write therefore exists on both sides. The replica serves
// reads (rejecting writes with READONLY, and gated reads with LAGGING when
// behind) and, with -promote-after, promotes itself to primary when the
// primary goes silent. Pair -promote-after with -fence-after on the
// primary (set below the replica's -promote-after): a primary cut off
// from its replica then fences itself read-only before the replica can
// have promoted, so a network partition cannot yield two writable copies.
//
// Clustering scales out horizontally. Founding nodes share a bootstrap
// map listing every founder's advertised address:
//
//	nvserved -addr :7070 -advertise host1:7070 -cluster-peers host1:7070,host2:7070,host3:7070
//	nvserved -addr :7070 -advertise host2:7070 -cluster-peers host1:7070,host2:7070,host3:7070
//	nvserved -addr :7070 -advertise host3:7070 -cluster-peers host1:7070,host2:7070,host3:7070
//
// Each key hashes to one of -cluster-slots slots; each slot is owned by
// one node, and requests for keys a node does not own answer MOVED with
// the owner's address (cluster-aware clients follow automatically). A
// later node joins a running cluster — under live load — with:
//
//	nvserved -addr :7070 -advertise host4:7070 -cluster-join host1:7070
//
// which fetches the cluster map from the seed, computes a balanced
// ownership target, and pulls its share of slots to itself by live
// migration: snapshot ship, op-log catch-up, fence, final catch-up, and
// an epoch-bumping handover that redirects clients mid-stream without
// losing a single acknowledged write. With -data, the installed map
// persists under <data>/cluster/ and a restarted node rejoins at its
// last epoch.
//
// Observability: -trace-sample records a per-stage latency breakdown for a
// fraction of requests (clients can also request a trace explicitly via the
// protocol's trace envelope), -slow-op emits a structured wide event for any
// operation over the threshold, and -flight-dir enables the incident flight
// recorder: control-plane transitions (promotion, fencing, breaker-open,
// worker restart, divergence) freeze and dump the recent wide events and
// spans as JSONL for post-mortem. With -http, /healthz serves liveness
// (?probe=ready for readiness) and /statusz the full status document.
//
// SIGINT/SIGTERM trigger a graceful shutdown: stop accepting, drain every
// shard queue, checkpoint every pool.
package main

import (
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"nvref/internal/cluster"
	"nvref/internal/obs"
	"nvref/internal/pmem"
	"nvref/internal/rt"
	"nvref/internal/server"
)

func main() {
	addr := flag.String("addr", "localhost:7070", "TCP address to serve the KV protocol on")
	shards := flag.Int("shards", 4, "number of engine shards")
	data := flag.String("data", "", "directory for persistent pool images (empty: in-process only)")
	mode := flag.String("mode", "hw", "reference model: explicit, sw, hw (volatile pointers cannot survive recovery)")
	poolSize := flag.Uint64("pool-size", 32<<20, "per-shard pool size in bytes")
	queueDepth := flag.Int("queue-depth", 128, "per-shard bounded queue depth")
	ckptEvery := flag.Int("checkpoint-every", 8192, "mutations between shard checkpoints (negative: only at shutdown)")
	httpAddr := flag.String("http", "", "serve /metrics, /metrics.json and /debug/pprof on this address")
	admitWait := flag.Duration("admit-wait", 50*time.Millisecond, "max wait for space in a full shard queue before shedding (negative: shed immediately)")
	wedgeTimeout := flag.Duration("wedge-timeout", 2*time.Second, "declare a shard wedged after this long without progress on queued work (negative: disable watchdog)")
	breakerCooldown := flag.Duration("breaker-cooldown", 100*time.Millisecond, "how long an open shard circuit breaker fails fast before probing")
	scrubEvery := flag.Duration("scrub-every", 30*time.Second, "background fsck period for idle shards (0: disable scrubbing)")
	role := flag.String("role", "standalone", "replication role: standalone, primary, or replica")
	follow := flag.String("follow", "", "primary address a replica ships the op log from (required with -role replica)")
	promoteAfter := flag.Duration("promote-after", 0, "replica self-promotes after this long without primary contact (0: manual promotion only)")
	fenceAfter := flag.Duration("fence-after", 0, "primary refuses writes after this long without replica contact, fencing against split-brain; set below the replica's -promote-after (0: no fencing)")
	traceSample := flag.Float64("trace-sample", 0, "server-side trace sampling rate in [0, 1]: this fraction of requests records a per-stage span breakdown (0: only client-requested traces)")
	slowOp := flag.Duration("slow-op", 0, "log a structured wide event for any operation slower than this end to end (0: disable the slow-op log)")
	flightDir := flag.String("flight-dir", "", "directory for incident flight-recorder JSONL dumps (empty: record in memory only)")
	advertise := flag.String("advertise", "", "cluster address this node advertises to peers and clients (enables the cluster tier; usually the resolvable form of -addr)")
	clusterPeers := flag.String("cluster-peers", "", "comma-separated advertised addresses of every founding node, this one included: builds the epoch-1 bootstrap map (requires -advertise)")
	clusterSlots := flag.Int("cluster-slots", 64, "cluster map slot count used when bootstrapping with -cluster-peers")
	clusterJoin := flag.String("cluster-join", "", "advertised address of an existing cluster node to join and rebalance from (requires -advertise; mutually exclusive with -cluster-peers)")
	flag.Parse()

	m, err := parseMode(*mode)
	if err != nil {
		fatal(err)
	}
	r, err := parseRole(*role)
	if err != nil {
		fatal(err)
	}
	if err := validateFlags(*shards, *queueDepth, *poolSize, *breakerCooldown, *scrubEvery, *promoteAfter, *fenceAfter, r, *follow); err != nil {
		fatal(err)
	}
	if *traceSample < 0 || *traceSample > 1 {
		fatal(fmt.Errorf("-trace-sample must be in [0, 1], got %v", *traceSample))
	}
	if *slowOp < 0 {
		fatal(fmt.Errorf("-slow-op must not be negative, got %s (use 0 to disable)", *slowOp))
	}
	if err := validateClusterFlags(*advertise, *clusterPeers, *clusterJoin, *clusterSlots, r); err != nil {
		fatal(err)
	}

	cfg := server.Config{
		Shards:          *shards,
		Mode:            m,
		PoolSize:        *poolSize,
		QueueDepth:      *queueDepth,
		CheckpointEvery: *ckptEvery,
		AdmitWait:       *admitWait,
		WedgeTimeout:    *wedgeTimeout,
		BreakerCooldown: *breakerCooldown,
		ScrubEvery:      *scrubEvery,
		Role:            r,
		FollowAddr:      *follow,
		PromoteAfter:    *promoteAfter,
		FenceAfter:      *fenceAfter,
		TraceSample:     *traceSample,
		SlowOp:          *slowOp,
		FlightDir:       *flightDir,
		ClusterSelf:     *advertise,
		Reg:             obs.NewRegistry(),
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "nvserved: "+format+"\n", args...)
		},
	}
	if *data != "" {
		cfg.StoreFor = func(i int) pmem.Store {
			st, err := pmem.NewDirStore(filepath.Join(*data, fmt.Sprintf("shard-%d", i)))
			if err != nil {
				fatal(err)
			}
			return st
		}
		if r != server.RoleStandalone {
			// The op log lives in a subdirectory so the shard directory
			// itself keeps listing only pool images (nvpool stats et al).
			cfg.LogStoreFor = func(i int) pmem.Store {
				st, err := pmem.NewDirStore(filepath.Join(*data, fmt.Sprintf("shard-%d", i), "oplog"))
				if err != nil {
					fatal(err)
				}
				return st
			}
		}
	}

	if *advertise != "" {
		if *clusterPeers != "" {
			peers := strings.Split(*clusterPeers, ",")
			for i := range peers {
				peers[i] = strings.TrimSpace(peers[i])
			}
			m, err := cluster.New(*clusterSlots, peers)
			if err != nil {
				fatal(fmt.Errorf("-cluster-peers: %w", err))
			}
			cfg.ClusterMap = m
		}
		if *data != "" {
			// The cluster map persists beside the shards so a restarted node
			// rejoins at its last installed epoch (a newer persisted image
			// beats the bootstrap map).
			st, err := pmem.NewDirStore(filepath.Join(*data, "cluster"))
			if err != nil {
				fatal(err)
			}
			cfg.ClusterStore = st
		}
	}

	srv, err := server.New(cfg)
	if err != nil {
		fatal(err)
	}
	for _, sh := range srv.CollectStats().PerShard {
		if sh.Keys > 0 || sh.FsckErrors > 0 || sh.Repairs > 0 {
			fmt.Fprintf(os.Stderr, "nvserved: shard %d recovered: %d keys, %d fsck errors, %d repairs\n",
				sh.ID, sh.Keys, sh.FsckErrors, sh.Repairs)
		}
	}

	if *httpAddr != "" {
		health := &obs.Health{
			Live:    srv.Live,
			Ready:   srv.Ready,
			Statusz: func() any { return srv.CollectStatusz() },
		}
		go func() {
			if err := http.ListenAndServe(*httpAddr, obs.MuxHealth(cfg.Reg, health)); err != nil {
				fmt.Fprintln(os.Stderr, "nvserved: http:", err)
			}
		}()
		fmt.Fprintf(os.Stderr, "nvserved: metrics on http://%s/metrics, health on /healthz, status on /statusz\n", *httpAddr)
	}

	bound, err := srv.Start(*addr)
	if err != nil {
		fatal(err)
	}
	if r == server.RoleReplica {
		fmt.Fprintf(os.Stderr, "nvserved: %d shards (%s mode) serving on %s as replica of %s\n", *shards, m, bound, *follow)
	} else {
		fmt.Fprintf(os.Stderr, "nvserved: %d shards (%s mode) serving on %s as %s\n", *shards, m, bound, *role)
	}
	if *clusterJoin != "" {
		// Join after the listener is up: the seed will start redirecting
		// clients here as soon as migrated slots commit.
		if err := srv.JoinCluster(*clusterJoin, nil); err != nil {
			fatal(fmt.Errorf("cluster join via %s: %w", *clusterJoin, err))
		}
		moved, err := srv.Rebalance(nil)
		if err != nil {
			fatal(fmt.Errorf("cluster rebalance (%d slots migrated): %w", moved, err))
		}
		fmt.Fprintf(os.Stderr, "nvserved: joined cluster via %s, migrated %d slot(s) in\n", *clusterJoin, moved)
	} else if *advertise != "" {
		fmt.Fprintf(os.Stderr, "nvserved: cluster node %s\n", *advertise)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	<-sig
	fmt.Fprintln(os.Stderr, "nvserved: draining and checkpointing...")
	if err := srv.Close(); err != nil {
		fatal(err)
	}
	fmt.Fprintln(os.Stderr, "nvserved: bye")
}

func parseRole(s string) (int32, error) {
	switch strings.ToLower(s) {
	case "standalone":
		return server.RoleStandalone, nil
	case "primary":
		return server.RolePrimary, nil
	case "replica":
		return server.RoleReplica, nil
	}
	return 0, fmt.Errorf("unknown role %q (want standalone, primary, or replica)", s)
}

// validateFlags rejects flag combinations the server would only trip over
// later, each with a one-line actionable error.
func validateFlags(shards, queueDepth int, poolSize uint64, breakerCooldown, scrubEvery, promoteAfter, fenceAfter time.Duration, role int32, follow string) error {
	if shards < 1 {
		return fmt.Errorf("-shards must be at least 1, got %d", shards)
	}
	if queueDepth < 1 {
		return fmt.Errorf("-queue-depth must be at least 1, got %d", queueDepth)
	}
	if poolSize == 0 {
		return fmt.Errorf("-pool-size must be nonzero")
	}
	if breakerCooldown < 0 {
		return fmt.Errorf("-breaker-cooldown must not be negative, got %s", breakerCooldown)
	}
	if scrubEvery < 0 {
		return fmt.Errorf("-scrub-every must not be negative, got %s (use 0 to disable)", scrubEvery)
	}
	if promoteAfter < 0 {
		return fmt.Errorf("-promote-after must not be negative, got %s (use 0 for manual promotion)", promoteAfter)
	}
	if role == server.RoleReplica && follow == "" {
		return fmt.Errorf("-role replica requires -follow with the primary's address")
	}
	if role != server.RoleReplica && follow != "" {
		return fmt.Errorf("-follow only makes sense with -role replica")
	}
	if role != server.RoleReplica && promoteAfter > 0 {
		return fmt.Errorf("-promote-after only makes sense with -role replica")
	}
	if fenceAfter < 0 {
		return fmt.Errorf("-fence-after must not be negative, got %s (use 0 to disable fencing)", fenceAfter)
	}
	if role != server.RolePrimary && fenceAfter > 0 {
		return fmt.Errorf("-fence-after only makes sense with -role primary")
	}
	return nil
}

// validateClusterFlags rejects inconsistent cluster flag combinations.
func validateClusterFlags(advertise, peers, join string, slots int, role int32) error {
	if advertise == "" {
		if peers != "" || join != "" {
			return fmt.Errorf("-cluster-peers and -cluster-join require -advertise")
		}
		return nil
	}
	if role == server.RoleReplica {
		return fmt.Errorf("-advertise (cluster tier) cannot combine with -role replica; cluster nodes are primaries")
	}
	if peers != "" && join != "" {
		return fmt.Errorf("-cluster-peers (bootstrap) and -cluster-join (join existing) are mutually exclusive")
	}
	if peers != "" {
		found := false
		for _, p := range strings.Split(peers, ",") {
			if strings.TrimSpace(p) == advertise {
				found = true
				break
			}
		}
		if !found {
			return fmt.Errorf("-cluster-peers must include this node's own -advertise address %q", advertise)
		}
		if slots < 1 {
			return fmt.Errorf("-cluster-slots must be at least 1, got %d", slots)
		}
	}
	return nil
}

func parseMode(s string) (rt.Mode, error) {
	for _, m := range rt.Modes {
		if strings.EqualFold(m.String(), s) {
			if m == rt.Volatile {
				return 0, fmt.Errorf("volatile mode stores absolute pointers and cannot recover a relocated pool; use explicit, sw, or hw")
			}
			return m, nil
		}
	}
	return 0, fmt.Errorf("unknown mode %q (want explicit, sw, or hw)", s)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "nvserved:", err)
	os.Exit(1)
}
