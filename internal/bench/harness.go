// The acceptance harness is the one place that knows how a serving-tier
// experiment loads, drives and verifies a topology. Every experiment built
// on it answers the same question — was any acknowledged write lost? — with
// the same oracle:
//
//   - one sequencer: every PUT value is drawn from a single atomic counter,
//     so values are unique and totally ordered across clients and phases;
//   - one writer per key: the closed loop remaps write keys so each key is
//     written by exactly one client, which issues serially on one
//     connection while the shard worker serializes applies — so for any
//     key, acknowledgment order equals apply order (without this two
//     clients' writes to one key could apply in the opposite of sequencer
//     order and the comparison below would be unsound);
//   - stored >= highest ack: at the end the value read back for a key must
//     be at least the highest value the server acknowledged for it. A
//     higher value is a later write whose ack was lost in flight; a lower
//     one means acknowledged state was rolled back (a lost write); an
//     absent key is a missing one.
//
// What an experiment adds on top is only what is unique to it: the server
// configs of its topology, its nemesis, the counters it sums, its Pass
// predicate and its text report.
package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"nvref/internal/fault"
	"nvref/internal/fault/flaky"
	"nvref/internal/rt"
	"nvref/internal/server"
	"nvref/internal/ycsb"
)

// LoadSpec is the part of an experiment's parameters the harness consumes;
// every serving-tier spec embeds it.
type LoadSpec struct {
	Records    int
	Operations int
	Clients    int
	// Shards is the per-server shard count.
	Shards   int
	Mode     rt.Mode
	PoolSize uint64
	// CheckpointEvery is the per-shard checkpoint cadence: a checkpoint
	// after that many mutations.
	CheckpointEvery int
	// NetFaultEvery injects one network fault (drop/truncate/delay) per
	// that many client conn I/O calls during the closed loop (0 keeps the
	// network clean).
	NetFaultEvery int
	Seed          int64
}

// config returns the server.Config fields every topology derives from the
// spec; experiments add what is theirs.
func (s LoadSpec) config() server.Config {
	return server.Config{
		Shards:          s.Shards,
		Mode:            s.Mode,
		PoolSize:        s.PoolSize,
		CheckpointEvery: s.CheckpointEvery,
	}
}

// LoadResult is what the harness measures and verifies; every zero-loss
// experiment document embeds it, so the fields keep one name everywhere.
type LoadResult struct {
	Records    int    `json:"records"`
	Operations int    `json:"operations"`
	Clients    int    `json:"clients"`
	Shards     int    `json:"shards"`
	Mode       string `json:"mode"`

	// Client-side view of the closed loop.
	OpsOK       int     `json:"ops_ok"`
	OpsFailed   int     `json:"ops_failed"`
	ErrorRate   float64 `json:"error_rate"`
	WallSeconds float64 `json:"wall_seconds"`
	NetFaults   uint64  `json:"net_faults"`

	// Zero-loss sweep.
	AckedKeys   int `json:"acked_keys"`
	LostWrites  int `json:"lost_writes"`
	MissingKeys int `json:"missing_keys"`
}

// writeVerdict renders the line every zero-loss report ends on.
func (r *LoadResult) writeVerdict(w io.Writer, pass bool) {
	fmt.Fprintf(w, "acked writes: %d keys verified, %d missing, %d lost -> %s\n",
		r.AckedKeys, r.MissingKeys, r.LostWrites, verdict(pass))
}

func verdict(pass bool) string {
	if pass {
		return "PASS"
	}
	return "FAIL"
}

// kv is what the load phase, the closed loop and the sweep need of a
// client. *server.Client, *server.ResilientClient and
// *server.ClusterClient satisfy it as they are.
type kv interface {
	Get(key uint64) (value uint64, found bool, err error)
	Put(key, value uint64) error
	Close() error
}

// ledger remembers the highest value the server acknowledged per key.
type ledger struct {
	seq   atomic.Uint64
	acked map[uint64]uint64
}

// next draws the next PUT value from the sequencer.
func (l *ledger) next() uint64 { return l.seq.Add(1) }

// ack records that the server acknowledged value v for key.
func (l *ledger) ack(key, v uint64) {
	if v > l.acked[key] {
		l.acked[key] = v
	}
}

// merge folds one client's private acks in. Within a client the sequencer
// is monotonic, so its map already holds each key's maximum.
func (l *ledger) merge(mine map[uint64]uint64) {
	for k, v := range mine {
		l.ack(k, v)
	}
}

// sweep reads every acknowledged key back and counts the ones the server
// no longer has (missing) or holds at less than their highest
// acknowledged value (lost).
func (l *ledger) sweep(get func(key uint64) (uint64, bool, error)) (missing, lost int, err error) {
	for k, want := range l.acked {
		v, found, err := get(k)
		if err != nil {
			return missing, lost, fmt.Errorf("verify get %d: %w", k, err)
		}
		if !found {
			missing++
		} else if v < want {
			lost++
		}
	}
	return missing, lost, nil
}

// acceptance runs one experiment's load phase, closed loop and sweep over
// a YCSB-A stream, accumulating the LoadResult as it goes.
type acceptance struct {
	ledger
	spec LoadSpec
	w    *ycsb.Workload
	res  LoadResult

	// wall and lats are the last closed loop's duration and per-op
	// latencies (microseconds, successful ops only).
	wall time.Duration
	lats []float64

	net *fault.Periodic // the flaky network's schedule, shared by all clients

	// The nemesis trigger: the client whose completion brings done to
	// fireAt runs fire before issuing its next op.
	fireAt int64
	fire   func()
	fired  bool
	done   atomic.Int64
}

func newAcceptance(spec LoadSpec) *acceptance {
	h := &acceptance{
		spec: spec,
		w:    ycsb.Generate(ycsb.WorkloadA(spec.Records, spec.Operations, spec.Seed)),
		res: LoadResult{
			Records:    spec.Records,
			Operations: spec.Operations,
			Clients:    spec.Clients,
			Shards:     spec.Shards,
			Mode:       spec.Mode.String(),
		},
	}
	h.acked = make(map[uint64]uint64, spec.Records)
	if spec.NetFaultEvery > 0 {
		h.net = fault.NewPeriodic("", spec.NetFaultEvery)
	}
	return h
}

// policy is the closed-loop clients' retry policy, seeded per client.
func (h *acceptance) policy(ci int) server.RetryPolicy {
	return server.RetryPolicy{
		MaxAttempts: 16,
		BaseBackoff: time.Millisecond,
		MaxBackoff:  80 * time.Millisecond,
		Timeout:     2 * time.Second,
		TTLms:       2000,
		Seed:        uint64(h.spec.Seed) + uint64(ci)*977,
	}
}

// loaderPolicy is the default policy for clients on the clean network
// (loader, sweep).
func (h *acceptance) loaderPolicy() server.RetryPolicy {
	return server.RetryPolicy{Seed: uint64(h.spec.Seed)}
}

// dialer puts the flaky network between closed-loop client ci and the
// servers; nil (plain TCP) when the spec injects no network faults.
func (h *acceptance) dialer(ci int) func(addr string) (net.Conn, error) {
	if h.net == nil {
		return nil
	}
	return flaky.Dialer(flaky.Config{Sched: h.net, Seed: uint64(h.spec.Seed) + uint64(ci)})
}

// batcher is the optional bulk path the load phase uses when the client
// has one (the routing cluster client does not).
type batcher interface {
	Batch(sub []server.Request) ([]server.Reply, error)
}

// load streams the workload's records in over cl as sequenced PUTs, 256 to
// a batch, recording every ack, and closes cl.
func (h *acceptance) load(cl kv) error {
	defer cl.Close()
	const loadBatch = 256
	b, batched := cl.(batcher)
	for i := 0; i < len(h.w.Load); i += loadBatch {
		end := i + loadBatch
		if end > len(h.w.Load) {
			end = len(h.w.Load)
		}
		sub := make([]server.Request, 0, end-i)
		for _, rec := range h.w.Load[i:end] {
			sub = append(sub, server.Request{Op: server.OpPut, Key: rec.Key, Value: h.next()})
		}
		if batched {
			if _, err := b.Batch(sub); err != nil {
				return fmt.Errorf("load batch at %d: %w", i, err)
			}
		} else {
			for _, r := range sub {
				if err := cl.Put(r.Key, r.Value); err != nil {
					return fmt.Errorf("load put %d: %w", r.Key, err)
				}
			}
		}
		for _, r := range sub {
			h.ack(r.Key, r.Value)
		}
	}
	return nil
}

// at arms the nemesis: fn runs once, in the goroutine of the client that
// completes operation number frac*len(ops) of the stream (failed
// operations count — the trigger is an op count, not a wall-clock race),
// before that client issues its next op. frac must lie in (0, 1].
func (h *acceptance) at(frac float64, fn func()) {
	h.fireAt = int64(frac * float64(len(h.w.Ops)))
	h.fire = func() {
		h.fired = true
		fn()
	}
}

// drive runs the closed loop: spec.Clients clients, each on its own
// connection from dial, stripe the operation stream round-robin. Write
// keys are remapped so client ci owns the keys congruent to ci mod
// Clients (the single-writer rule the oracle rests on), and every PUT
// value comes from the sequencer.
func (h *acceptance) drive(dial func(ci int) (kv, error)) error {
	n := h.spec.Clients
	cls := make([]kv, n)
	for ci := range cls {
		cl, err := dial(ci)
		if err != nil {
			for _, c := range cls[:ci] {
				c.Close()
			}
			return fmt.Errorf("dial client %d: %w", ci, err)
		}
		cls[ci] = cl
	}
	type tally struct {
		ok, failed int
		acks       map[uint64]uint64
		lats       []float64
	}
	tallies := make([]tally, n)
	var wg sync.WaitGroup
	t0 := time.Now()
	for ci := 0; ci < n; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			cl, t := cls[ci], &tallies[ci]
			defer cl.Close()
			t.acks = make(map[uint64]uint64)
			t.lats = make([]float64, 0, len(h.w.Ops)/n+1)
			for oi := ci; oi < len(h.w.Ops); oi += n {
				op := h.w.Ops[oi]
				start := time.Now()
				var err error
				if op.Type == ycsb.Get {
					_, _, err = cl.Get(op.Key)
				} else {
					key := op.Key - op.Key%uint64(n) + uint64(ci)
					v := h.next()
					if err = cl.Put(key, v); err == nil {
						t.acks[key] = v
					}
				}
				if err != nil {
					t.failed++
				} else {
					t.ok++
					t.lats = append(t.lats, float64(time.Since(start).Nanoseconds())/1e3)
				}
				if h.done.Add(1) == h.fireAt {
					h.fire()
				}
			}
		}(ci)
	}
	wg.Wait()
	h.wall = time.Since(t0)

	h.lats = h.lats[:0]
	h.res.OpsOK, h.res.OpsFailed = 0, 0
	for i := range tallies {
		h.res.OpsOK += tallies[i].ok
		h.res.OpsFailed += tallies[i].failed
		h.lats = append(h.lats, tallies[i].lats...)
		h.merge(tallies[i].acks)
	}
	h.res.WallSeconds = h.wall.Seconds()
	if total := h.res.OpsOK + h.res.OpsFailed; total > 0 {
		h.res.ErrorRate = float64(h.res.OpsFailed) / float64(total)
	}
	if h.net != nil {
		h.res.NetFaults = h.net.Fired()
	}
	if h.fire != nil && !h.fired {
		return fmt.Errorf("nemesis armed at op %d never fired: the stream ended at op %d", h.fireAt, h.done.Load())
	}
	return nil
}

// verify ends an experiment with the zero-loss sweep on a clean connection
// cl, and closes cl.
func (h *acceptance) verify(cl kv) error {
	defer cl.Close()
	var err error
	h.res.AckedKeys = len(h.acked)
	h.res.MissingKeys, h.res.LostWrites, err = h.sweep(cl.Get)
	return err
}

// startServer brings one in-process server up on a loopback listener.
func startServer(cfg server.Config) (*server.Server, string, error) {
	srv, err := server.New(cfg)
	if err != nil {
		return nil, "", err
	}
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		srv.Abort()
		return nil, "", err
	}
	return srv, addr.String(), nil
}

// pair is an in-process primary with one replica following it.
type pair struct {
	primary, replica *server.Server
	paddr, raddr     string
	dead             bool // the primary was killed
}

// startPair brings the primary up, points the replica at it, and waits for
// the follower's first pull so write acks are held against replica
// durability from the first operation. The caller's configs carry what is
// specific to the experiment; roles and the follow wiring are set here.
func startPair(pcfg, rcfg server.Config) (*pair, error) {
	pcfg.Role = server.RolePrimary
	primary, paddr, err := startServer(pcfg)
	if err != nil {
		return nil, err
	}
	p := &pair{primary: primary, paddr: paddr}
	rcfg.Role = server.RoleReplica
	rcfg.FollowAddr = paddr
	if p.replica, p.raddr, err = startServer(rcfg); err != nil {
		primary.Abort()
		return nil, err
	}
	if err := waitUntil(5*time.Second, func() bool {
		fs := p.replica.CollectStats().Follower
		return fs != nil && fs.Pulls > 0
	}); err != nil {
		p.close()
		return nil, fmt.Errorf("follower never contacted primary: %w", err)
	}
	return p, nil
}

// kill aborts the primary without ceremony: no final checkpoint, no
// graceful drain.
func (p *pair) kill() {
	p.primary.Abort()
	p.dead = true
}

// awaitPromotion waits for the replica to notice the primary's silence and
// finish promoting itself. The promotion counter moves last — after the
// role flips and the pools are scrubbed — so waiting on it (not on the
// role) means the counters read next are final.
func (p *pair) awaitPromotion() error {
	if err := waitUntil(5*time.Second, func() bool { return p.replica.Promotions() > 0 }); err != nil {
		return fmt.Errorf("replica never promoted itself: %w", err)
	}
	return nil
}

func (p *pair) close() {
	if !p.dead {
		p.kill()
	}
	p.replica.Close()
}

// waitUntil polls cond every millisecond until it holds or the budget runs
// out.
func waitUntil(d time.Duration, cond func() bool) error {
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			return fmt.Errorf("condition not reached within %s", d)
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}

// percentile interpolates the p-th percentile of xs, sorting it in place.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	rank := p / 100 * float64(len(xs)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return xs[lo]
	}
	frac := rank - float64(lo)
	return xs[lo]*(1-frac) + xs[hi]*frac
}

// WriteJSON emits an experiment document as indented JSON.
func WriteJSON(w io.Writer, doc any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}
