package main

// The serve_* workloads: bring a pinned topology up in-process, load it,
// drive it closed-loop from two client connections, and check every
// acknowledged write afterwards. The client library is synchronous — a
// caller waits for its reply — so closed loop is the real traffic shape.

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"nvref/internal/obs"
	"nvref/internal/parity"
	"nvref/internal/pmem"
	"nvref/internal/server"
	"nvref/internal/ycsb"
)

// topology is one running serve_* deployment.
type topology struct {
	w       workload
	p       pinned
	primary *server.Server
	replica *server.Server
	addr    string // the primary's listen address
	raddr   string // the replica's, when there is one
	dir     string // DirStore root of a durable topology
	cfg     server.Config
	meters  []*meterStore // traced durable topologies only
}

// bringUp builds and starts the workload's topology. spans, when non-nil,
// attaches the tracing plane to every server (the traced leg); meter wraps
// the durable stores in byte and dirty-page counters.
func bringUp(p pinned, w workload, tmpRoot string, spans *obs.SpanRecorder, meter bool) (*topology, error) {
	t := &topology{w: w, p: p}
	cfg := serverConfig(p)
	cfg.Spans = spans
	switch w.Role {
	case "primary":
		cfg.Role = server.RolePrimary
	default:
		cfg.Role = server.RoleStandalone
	}
	if w.Parity {
		cfg.Parity = parity.Default()
	}
	if w.Durable {
		dir, err := os.MkdirTemp(tmpRoot, "durable-")
		if err != nil {
			return nil, err
		}
		t.dir = dir
		pools, logs := make([]pmem.Store, p.Shards), make([]pmem.Store, p.Shards)
		for i := 0; i < p.Shards; i++ {
			for kind, dst := range map[string][]pmem.Store{"pool": pools, "log": logs} {
				ds, err := pmem.NewDirStore(filepath.Join(dir, fmt.Sprintf("%s-%d", kind, i)))
				if err != nil {
					t.close()
					return nil, err
				}
				dst[i] = ds
				if meter {
					m := &meterStore{Store: ds, pool: kind == "pool"}
					t.meters = append(t.meters, m)
					dst[i] = m
				}
			}
		}
		cfg.StoreFor = func(i int) pmem.Store { return pools[i] }
		cfg.LogStoreFor = func(i int) pmem.Store { return logs[i] }
	}
	t.cfg = cfg
	srv, err := server.New(cfg)
	if err != nil {
		t.close()
		return nil, fmt.Errorf("primary: %w", err)
	}
	t.primary = srv
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.close()
		return nil, err
	}
	t.addr = addr.String()
	if w.Replica {
		rcfg := serverConfig(p)
		rcfg.Spans = spans
		rcfg.Role = server.RoleReplica
		rcfg.FollowAddr = t.addr
		rcfg.FollowPoll = replicaPoll
		rep, err := server.New(rcfg)
		if err != nil {
			t.close()
			return nil, fmt.Errorf("replica: %w", err)
		}
		t.replica = rep
		raddr, err := rep.Start("127.0.0.1:0")
		if err != nil {
			t.close()
			return nil, err
		}
		t.raddr = raddr.String()
		// Writes acked before the follower's first pull would be degraded
		// single-copy acks, which void the run.
		if err := waitFor(10*time.Second, func() bool {
			fs := rep.CollectStats().Follower
			return fs != nil && fs.Pulls > 0
		}); err != nil {
			t.close()
			return nil, fmt.Errorf("replica never contacted the primary: %w", err)
		}
	}
	return t, nil
}

// close stops every server and removes the durable directory.
func (t *topology) close() {
	if t.replica != nil {
		t.replica.Close()
		t.replica = nil
	}
	if t.primary != nil {
		t.primary.Close()
		t.primary = nil
	}
	if t.dir != "" {
		os.RemoveAll(t.dir)
	}
}

func waitFor(limit time.Duration, cond func() bool) error {
	deadline := time.Now().Add(limit)
	for !cond() {
		if time.Now().After(deadline) {
			return errors.New("timed out")
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}

// meterStore counts what a durable store is asked to write, from outside
// the store: bytes and saves always, and — while diffing is on — how many
// 4 KiB pages of a pool image changed since the previous save, which is the
// write set parity's delta update has to fold in.
type meterStore struct {
	pmem.Store
	pool    bool // holds pool images (diffed page by page), not op logs
	saved   atomic.Uint64
	diffing atomic.Bool

	mu         sync.Mutex
	prev       map[string][]byte
	poolSaves  uint64
	dirtyPages uint64
}

const meterPage = 4096

func (m *meterStore) Save(meta pmem.Meta, data []byte) error {
	m.saved.Add(uint64(len(data)))
	if m.pool && !parity.IsSidecar(meta.Name) {
		m.mu.Lock()
		if m.prev == nil {
			m.prev = make(map[string][]byte)
		}
		if old := m.prev[meta.Name]; m.diffing.Load() && len(old) == len(data) {
			m.poolSaves++
			for off := 0; off+meterPage <= len(data); off += meterPage {
				if !bytes.Equal(old[off:off+meterPage], data[off:off+meterPage]) {
					m.dirtyPages++
				}
			}
		}
		// Checkpoint images are fresh snapshots nobody mutates afterwards,
		// so holding the slice is safe and costs no copy.
		m.prev[meta.Name] = data
		m.mu.Unlock()
	}
	return m.Store.Save(meta, data)
}

func (m *meterStore) counts() (poolSaves, dirtyPages uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.poolSaves, m.dirtyPages
}

// loadClient is one closed-loop client connection. Writes are
// single-writer-per-key — client c writes only keys ≡ c (mod clients) — with
// values monotone per client, so the last acknowledged value of a key is
// exactly what a later read must return.
type loadClient struct {
	opStream
	cl   *server.Client
	last []uint64 // last acked value per key (own keys only)
	next uint64   // value counter

	phases []phaseSamples
	failed int
	err    error // first failure, for the report
}

// phaseSamples is what one client measured in one phase of the window.
type phaseSamples struct {
	lat  []int64 // per-op latency, ns
	puts int
}

// opStream is one client's operation stream: which key, and whether to
// read or write it. It is a function of the seed and the client number
// alone, so the same seed gives the same inputs.
type opStream struct {
	id, clients int
	records     int
	readFrac    float64
	rng         *rand.Rand
	zipf        *ycsb.Zipfian
}

func newOpStream(id int, p pinned, w workload, seed int64) opStream {
	rng := rand.New(rand.NewSource(seed*int64(p.Clients) + int64(id)))
	return opStream{
		id: id, clients: p.Clients, records: p.Records, readFrac: w.ReadFrac,
		rng: rng, zipf: ycsb.NewZipfian(uint64(p.Records), p.ZipfTheta, rng),
	}
}

// nextOp draws the next operation: a zipfian key and, with probability
// 1-readFrac, a PUT — which goes to the drawn key's neighbour this client
// owns.
func (s *opStream) nextOp() (key uint64, isPut bool) {
	key = s.zipf.Next()
	if s.rng.Float64() >= s.readFrac {
		return s.ownKey(key), true
	}
	return key, false
}

// ownKey maps a drawn key to one this client may write.
func (s *opStream) ownKey(key uint64) uint64 {
	k := key - key%uint64(s.clients) + uint64(s.id)
	if k >= uint64(s.records) {
		k -= uint64(s.clients)
	}
	return k
}

func (s *opStream) owns(key uint64) bool { return int(key%uint64(s.clients)) == s.id }

func newLoadClient(id int, p pinned, w workload, addr string, seed int64) (*loadClient, error) {
	cl, err := server.Dial(addr)
	if err != nil {
		return nil, err
	}
	return &loadClient{opStream: newOpStream(id, p, w, seed), cl: cl, last: make([]uint64, p.Records)}, nil
}

func (c *loadClient) fail(err error) {
	c.failed++
	if c.err == nil {
		c.err = err
	}
}

// batchRetryFor bounds how long batchAll keeps resending refused
// sub-requests.
const batchRetryFor = 30 * time.Second

// batchAll sends sub as one BATCH frame and hands every final sub-reply to
// done. A batch wider than the admission queue can have sub-requests shed
// (or, behind a long fsync, refused by the shard's breaker) while a shard
// checkpoints; GET and PUT are idempotent, so exactly those are resent until
// the server takes them. sub is consumed; the first error done returns ends
// the call.
func batchAll(cl *server.Client, sub []server.Request, done func(req *server.Request, rep *server.Reply) error) error {
	for deadline := time.Now().Add(batchRetryFor); len(sub) > 0; {
		reps, err := cl.Batch(sub)
		if err != nil {
			return err
		}
		retry := sub[:0]
		for i := range reps {
			if st := reps[i].Status; (st == server.StatusShed || st == server.StatusUnavailable) && time.Now().Before(deadline) {
				retry = append(retry, sub[i])
				continue
			}
			if err := done(&sub[i], &reps[i]); err != nil {
				return err
			}
		}
		sub = retry
	}
	return nil
}

// ownedBatches calls visit with LoadBatch-sized BATCH sub-request lists
// covering every step-th key this client owns.
func (c *loadClient) ownedBatches(batch, step int, mk func(key uint64) server.Request, visit func([]server.Request) error) error {
	sub := make([]server.Request, 0, batch)
	for k := c.id; k < c.records; k += c.clients * step {
		sub = append(sub, mk(uint64(k)))
		if len(sub) == batch {
			if err := visit(sub); err != nil {
				return err
			}
			sub = sub[:0]
		}
	}
	if len(sub) == 0 {
		return nil
	}
	return visit(sub)
}

// load writes every key this client owns in LoadBatch-op BATCH frames.
func (c *loadClient) load(batch int) error {
	return c.ownedBatches(batch, 1, func(key uint64) server.Request {
		c.next++
		return server.Request{Op: server.OpPut, Key: key, Value: c.next}
	}, func(sub []server.Request) error {
		return batchAll(c.cl, sub, c.acked)
	})
}

// acked records an acknowledged PUT's value as the key's last.
func (c *loadClient) acked(req *server.Request, rep *server.Reply) error {
	if err := rep.Err(); err != nil {
		return err
	}
	if req.Op == server.OpPut {
		c.last[req.Key] = req.Value
	}
	return nil
}

// warm runs n operations of this client's stream through BATCH frames — a
// warm-up counted in operations, not seconds. The simulated caches and, on a
// durable primary, the op-log length are functions of how many operations
// came before, so a timed warm-up would leave both — and with them
// sim_cycles_per_op and the flush cost — depending on how fast the host
// happened to be.
func (c *loadClient) warm(n, batch int) error {
	for n > 0 {
		sub := make([]server.Request, 0, batch)
		for ; n > 0 && len(sub) < batch; n-- {
			key, isPut := c.nextOp()
			if isPut {
				c.next++
				sub = append(sub, server.Request{Op: server.OpPut, Key: key, Value: c.next})
			} else {
				sub = append(sub, server.Request{Op: server.OpGet, Key: key})
			}
		}
		if err := batchAll(c.cl, sub, c.acked); err != nil {
			return err
		}
	}
	return nil
}

// phase is one slice of the driven window. Warm-up is a phase nobody
// records; the traced leg runs an untraced reference phase and a traced one
// on the same topology. A window is timed — every phase has a dur — or
// counted — every phase has an ops.
type phase struct {
	dur    time.Duration // timed: the phase ends dur after the previous one
	ops    int           // counted: the phase ends once the clients have completed ops operations in it between them
	record bool
	traced bool
}

// opClock tells the phases of a counted window apart: done is how many
// operations the clients have completed between them since the window
// started, cum[i] the count at which phase i ends. The client that completes
// a phase's last operation reports the boundary.
type opClock struct {
	done     atomic.Int64
	cum      []int64
	boundary chan struct{}
}

// newOpClock returns the clock of a counted window, or nil for a timed one.
func newOpClock(phases []phase) *opClock {
	if len(phases) == 0 || phases[0].ops == 0 {
		return nil
	}
	k := &opClock{boundary: make(chan struct{}, len(phases))}
	var sum int64
	for _, ph := range phases {
		sum += int64(ph.ops)
		k.cum = append(k.cum, sum)
	}
	return k
}

// run drives the closed loop through the phases, starting at start; clock is
// nil for a timed window.
func (c *loadClient) run(start time.Time, phases []phase, traceSeed uint64, clock *opClock) {
	c.phases = make([]phaseSamples, len(phases))
	ends := make([]time.Time, len(phases))
	t := start
	for i, ph := range phases {
		t = t.Add(ph.dur)
		ends[i] = t
	}
	cur, tracing := 0, false
	for {
		t0 := time.Now()
		if clock == nil {
			for cur < len(phases) && !t0.Before(ends[cur]) {
				cur++
			}
		} else {
			for done := clock.done.Load(); cur < len(phases) && done >= clock.cum[cur]; {
				cur++
			}
		}
		if cur == len(phases) {
			return
		}
		if phases[cur].traced != tracing {
			tracing = phases[cur].traced
			rate := 0.0
			if tracing {
				rate = 1
			}
			c.cl.SetTraceSample(rate, traceSeed+uint64(c.id)<<32)
		}
		key, isPut := c.nextOp()
		var err error
		if isPut {
			c.next++
			if err = c.cl.Put(key, c.next); err == nil {
				c.last[key] = c.next
			}
		} else {
			var v uint64
			var found bool
			v, found, err = c.cl.Get(key)
			// Every key is loaded, so a read must find it; a key this
			// client owns must also read back its last acked value.
			if err == nil && (!found || (c.owns(key) && v != c.last[key])) {
				err = fmt.Errorf("%w: GET %d = (%d, %v), last acked %d", errMismatch, key, v, found, c.last[key])
			}
		}
		lat := time.Since(t0)
		if phases[cur].record {
			ps := &c.phases[cur]
			ps.lat = append(ps.lat, lat.Nanoseconds())
			if isPut {
				ps.puts++
			}
		}
		if clock != nil {
			done := clock.done.Add(1)
			for _, end := range clock.cum[cur:] {
				if done == end {
					clock.boundary <- struct{}{}
				}
			}
		}
		if err != nil {
			alive := connectionSurvives(err)
			if phases[cur].record || !alive {
				c.fail(err)
			}
			if !alive {
				return
			}
		}
	}
}

var errMismatch = errors.New("read does not match the last acknowledged write")

// connectionSurvives reports whether err is a mismatch or a refusal the
// server framed, after which the connection is still usable; anything else
// is a transport failure and nothing more can complete on it.
func connectionSurvives(err error) bool {
	for _, e := range []error{errMismatch, server.ErrShed, server.ErrUnavailable, server.ErrDeadline, server.ErrReadOnly, server.ErrLagging} {
		if errors.Is(err, e) {
			return true
		}
	}
	return false
}

// verifyOwn reads back every step-th key this client owns through cl (its
// own connection, or one to a reopened server or a replica), checking each
// against the last acknowledged value. It returns how many keys were read
// and how many mismatched.
func (c *loadClient) verifyOwn(cl *server.Client, batch, step int) (checked, bad int, err error) {
	err = c.ownedBatches(batch, step, func(key uint64) server.Request {
		return server.Request{Op: server.OpGet, Key: key}
	}, func(sub []server.Request) error {
		return batchAll(cl, sub, func(req *server.Request, rep *server.Reply) error {
			checked++
			if rep.Status != server.StatusOK || !rep.Found || rep.Value != c.last[req.Key] {
				bad++
			}
			return nil
		})
	})
	return checked, bad, err
}

// procSnap is the process- and server-side state read at a phase boundary.
type procSnap struct {
	at      time.Time
	cpu     time.Duration
	mallocs uint64
	pauseNS uint64
	heapSys uint64
	cycles  uint64
	stats   server.Stats
	fstats  *server.FollowerStats
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func snapProc(t *topology) procSnap {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := procSnap{at: time.Now(), cpu: cpuTime(), mallocs: ms.Mallocs, pauseNS: ms.PauseTotalNs, heapSys: ms.HeapSys}
	if t != nil {
		for _, c := range t.primary.ShardCycles() {
			s.cycles += c
		}
		s.stats = t.primary.CollectStats()
		if t.replica != nil {
			s.fstats = t.replica.CollectStats().Follower
		}
	}
	return s
}

// setUp brings the topology up and loads it through the client
// connections the window will use, returning how long that took.
func setUp(p pinned, w workload, tmpRoot string, seed int64, spans *obs.SpanRecorder, meter bool) (*topology, []*loadClient, time.Duration, error) {
	t0 := time.Now()
	topo, err := bringUp(p, w, tmpRoot, spans, meter)
	if err != nil {
		return nil, nil, 0, err
	}
	clients := make([]*loadClient, p.Clients)
	for i := range clients {
		c, err := newLoadClient(i, p, w, topo.addr, seed)
		if err != nil {
			closeClients(clients)
			topo.close()
			return nil, nil, 0, err
		}
		clients[i] = c
	}
	errs := make([]error, len(clients))
	var wg sync.WaitGroup
	for i, c := range clients {
		wg.Add(1)
		go func(i int, c *loadClient) {
			defer wg.Done()
			errs[i] = c.load(p.LoadBatch)
		}(i, c)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		closeClients(clients)
		topo.close()
		return nil, nil, 0, fmt.Errorf("load: %w", err)
	}
	return topo, clients, time.Since(t0), nil
}

func closeClients(clients []*loadClient) {
	for _, c := range clients {
		if c != nil {
			c.cl.Close()
		}
	}
}

// drive warms the topology with a fixed number of operations per client,
// then runs every client through the phases and returns the boundary
// snapshots: snaps[i] is taken when phase i starts, snaps[len] at the end.
// atBoundary, when non-nil, runs at each boundary before the snapshot.
func drive(topo *topology, clients []*loadClient, phases []phase, traceSeed uint64, atBoundary func(next int)) ([]procSnap, error) {
	errs := make([]error, len(clients))
	var wg sync.WaitGroup
	for i, c := range clients {
		wg.Add(1)
		go func(i int, c *loadClient) {
			defer wg.Done()
			errs[i] = c.warm(topo.p.WarmOps, topo.p.LoadBatch)
		}(i, c)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	// Start every window from the same heap state: what set-up left behind
	// is collected now, not at a random point of the window.
	runtime.GC()
	clock := newOpClock(phases)
	start := time.Now().Add(5 * time.Millisecond)
	for _, c := range clients {
		wg.Add(1)
		go func(c *loadClient) {
			defer wg.Done()
			c.run(start, phases, traceSeed, clock)
		}(c)
	}
	// Clients that lose their connections stop early; a counted window's
	// boundaries then never come, and the remaining snapshots are taken at
	// once (the run has failed operations to report either way).
	stopped := make(chan struct{})
	go func() {
		wg.Wait()
		close(stopped)
	}()
	snaps := make([]procSnap, 0, len(phases)+1)
	t := start
	for i := 0; i <= len(phases); i++ {
		if clock == nil || i == 0 {
			time.Sleep(time.Until(t))
		} else {
			select {
			case <-clock.boundary:
			case <-stopped:
			}
		}
		if atBoundary != nil {
			atBoundary(i)
		}
		snaps = append(snaps, snapProc(topo))
		if i < len(phases) {
			t = t.Add(phases[i].dur)
		}
	}
	<-stopped
	return snaps, nil
}

// verifyServe is the output check of a serve_* run: every client reads back
// its last acknowledged value for every key it owns; a durable topology is
// then closed gracefully, reopened over the same directories and checked
// again; a replicated one waits for lag 0 and checks a key sample on the
// replica. It returns reads made, mismatches, and the reopen time.
func verifyServe(topo *topology, clients []*loadClient) (checked, bad int, reopen time.Duration, err error) {
	batch := topo.p.LoadBatch
	tally := func(cl func(c *loadClient) *server.Client, step int) error {
		for _, c := range clients {
			n, b, err := c.verifyOwn(cl(c), batch, step)
			checked, bad = checked+n, bad+b
			if err != nil {
				return err
			}
		}
		return nil
	}
	if err := tally(func(c *loadClient) *server.Client { return c.cl }, 1); err != nil {
		return checked, bad, 0, fmt.Errorf("verify: %w", err)
	}
	if topo.replica != nil {
		if err := waitFor(10*time.Second, func() bool {
			return topo.primary.CollectStats().ReplLagRecords == 0
		}); err != nil {
			return checked, bad, 0, fmt.Errorf("verify: replication lag never drained: %w", err)
		}
		rcl, err := server.Dial(topo.raddr)
		if err != nil {
			return checked, bad, 0, err
		}
		defer rcl.Close()
		if err := tally(func(*loadClient) *server.Client { return rcl }, 8); err != nil {
			return checked, bad, 0, fmt.Errorf("verify replica: %w", err)
		}
	}
	if topo.w.Durable {
		closeClients(clients)
		if err := topo.primary.Close(); err != nil {
			return checked, bad, 0, fmt.Errorf("verify: close: %w", err)
		}
		topo.primary = nil
		t0 := time.Now()
		srv, err := server.New(topo.cfg)
		if err != nil {
			return checked, bad, 0, fmt.Errorf("verify: reopen: %w", err)
		}
		topo.primary = srv
		addr, err := srv.Start("127.0.0.1:0")
		if err != nil {
			return checked, bad, 0, err
		}
		cl, err := server.Dial(addr.String())
		if err != nil {
			return checked, bad, 0, err
		}
		defer cl.Close()
		if _, _, err := cl.Get(0); err != nil {
			return checked, bad, 0, fmt.Errorf("verify: first GET after reopen: %w", err)
		}
		reopen = time.Since(t0)
		if err := tally(func(*loadClient) *server.Client { return cl }, 1); err != nil {
			return checked, bad, reopen, fmt.Errorf("verify reopened: %w", err)
		}
	}
	return checked, bad, reopen, nil
}
