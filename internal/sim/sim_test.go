package sim

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"
	"time"
)

func TestVClock(t *testing.T) {
	c := NewVClock()
	t0 := c.Now()
	if c.Elapsed() != 0 {
		t.Fatalf("fresh clock elapsed %v", c.Elapsed())
	}
	ch := c.After(10 * time.Millisecond)
	select {
	case <-ch:
		t.Fatal("After fired before any advance")
	default:
	}
	c.Advance(5 * time.Millisecond)
	select {
	case <-ch:
		t.Fatal("After fired early")
	default:
	}
	if c.Waiters() != 1 {
		t.Fatalf("waiters = %d, want 1", c.Waiters())
	}
	c.Advance(5 * time.Millisecond)
	select {
	case at := <-ch:
		if got := at.Sub(t0); got != 10*time.Millisecond {
			t.Fatalf("fired at +%v, want +10ms", got)
		}
	case <-time.After(time.Second):
		t.Fatal("After never fired despite due advance")
	}
	// Sleep self-advances.
	c.Sleep(3 * time.Millisecond)
	if got := c.Elapsed(); got != 13*time.Millisecond {
		t.Fatalf("elapsed = %v, want 13ms", got)
	}
	// Non-positive After fires immediately.
	select {
	case <-c.After(0):
	default:
		t.Fatal("After(0) did not fire immediately")
	}
	// A stopped Timer is out of the waiter list and never fires.
	fire, stop := c.Timer(time.Second)
	if c.Waiters() != 1 {
		t.Fatalf("waiters with a timer armed = %d, want 1", c.Waiters())
	}
	stop()
	stop()
	if c.Waiters() != 0 {
		t.Fatalf("waiters after stop = %d, want 0", c.Waiters())
	}
	c.Advance(2 * time.Second)
	select {
	case <-fire:
		t.Fatal("a stopped Timer fired")
	default:
	}
}

func TestHistoryToLinz(t *testing.T) {
	vc := NewVClock()
	h := NewHistory(vc)
	h.Invoke(0, "put", "k", 7)
	h.Return(0, "put", "k", 7, false, "ok")
	h.Invoke(1, "get", "k", 0)
	h.Crash("a")
	h.Return(1, "get", "k", 7, true, "ok")
	h.Invoke(0, "delete", "k", 0)
	h.Return(0, "delete", "k", 0, true, "info")
	h.Nemesis("a", "something")

	lh, err := h.ToLinz()
	if err != nil {
		t.Fatal(err)
	}
	if len(lh.Ops) != 3 {
		t.Fatalf("ops = %d, want 3", len(lh.Ops))
	}
	if len(lh.Crashes) != 1 || lh.Crashes[0] != 3 {
		t.Fatalf("crashes = %v, want [3]", lh.Crashes)
	}
	if lh.Ops[1].Value != 7 || !lh.Ops[1].Found {
		t.Fatalf("get not carried: %+v", lh.Ops[1])
	}
	if got := len(bytes.Split(bytes.TrimSpace(h.JSONL()), []byte("\n"))); got != 8 {
		t.Fatalf("JSONL lines = %d, want 8", got)
	}

	// Overlapping invocations from one client are a harness bug.
	bad := NewHistory(vc)
	bad.Invoke(0, "put", "k", 1)
	bad.Invoke(0, "put", "k", 2)
	if _, err := bad.ToLinz(); err == nil {
		t.Fatal("overlapping invocations not rejected")
	}
	// A return with no invocation is too.
	bad2 := NewHistory(vc)
	bad2.Return(0, "put", "k", 1, false, "ok")
	if _, err := bad2.ToLinz(); err == nil {
		t.Fatal("orphan return not rejected")
	}
}

func TestSchedulesByName(t *testing.T) {
	for _, b := range builtins {
		s, err := Schedules(b.name, 60)
		if err != nil {
			t.Fatalf("%s: %v", b.name, err)
		}
		if s.Name != b.name {
			t.Fatalf("Schedules(%q).Name = %q", b.name, s.Name)
		}
	}
	if _, err := Schedules("no-such", 60); err == nil {
		t.Fatal("unknown schedule accepted")
	}
}

// TestDeterminism is the reproducibility gate over every builtin schedule
// under its replay seeds: three runs of one (schedule, seed) must produce
// byte-identical histories and results — every counter the verdict reads
// included — each from a separate stack of servers on its own network, and
// different seeds of a seeded schedule must not.
func TestDeterminism(t *testing.T) {
	for _, b := range builtins {
		sched := b.build(60)
		var prev []byte
		for _, seed := range b.seeds {
			var first, firstResult []byte
			for i := 0; i < 3; i++ {
				r, err := Run(RunConfig{Schedule: sched, Seed: seed})
				if err != nil {
					t.Fatalf("%s seed %d: %v", b.name, seed, err)
				}
				if !r.Ok {
					t.Fatalf("%s seed %d run %d: %s", b.name, seed, i, r.Detail)
				}
				r.HistoryPath = ""
				result, err := json.Marshal(r)
				if err != nil {
					t.Fatal(err)
				}
				if i == 0 {
					first, firstResult = r.History, result
				} else if !bytes.Equal(first, r.History) {
					t.Fatalf("%s seed %d: run %d's history differs:\n--- run 0 ---\n%s--- run %d ---\n%s",
						b.name, seed, i, first, i, r.History)
				} else if !bytes.Equal(firstResult, result) {
					t.Fatalf("%s seed %d: run %d's result differs:\n--- run 0 ---\n%s\n--- run %d ---\n%s",
						b.name, seed, i, firstResult, i, result)
				}
			}
			if bytes.Equal(prev, first) {
				t.Fatalf("%s: seed %d replayed the previous seed's history", b.name, seed)
			}
			prev = first
		}
	}
}

// TestFenceGate is the headline safety result: with fencing off, the
// partitioned primary keeps acknowledging writes the promoted replica
// never saw, and the checker must flag the durable-linearizability
// violation. Same script with fencing on checks clean.
func TestFenceGate(t *testing.T) {
	if unfenced := runSchedule(t, "split-brain-unfenced", 1); unfenced.LinzOK {
		t.Fatalf("unfenced split-brain checked clean; history:\n%s", unfenced.History)
	}
	if fenced := runSchedule(t, "split-brain-fenced", 1); !fenced.LinzOK {
		t.Fatalf("fenced split-brain flagged: %v\nhistory:\n%s", fenced.Violations, fenced.History)
	}
}

// sweepSeeds are the seeds the nemesis sweep runs each sweep schedule
// under.
var sweepSeeds = []int64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}

// scheduleRuns caches the passing run of each (schedule, seed), so the
// gate tests, the sweep and TestSchedules share one run of each.
var scheduleRuns = make(map[string]*RunResult)

// runSchedule runs the builtin schedule name under seed — once per test
// binary — and fails t unless the run's verdict passes.
func runSchedule(t *testing.T, name string, seed int64) *RunResult {
	t.Helper()
	key := fmt.Sprintf("%s/%d", name, seed)
	if r, ok := scheduleRuns[key]; ok {
		return r
	}
	sched, err := Schedules(name, 90)
	if err != nil {
		t.Fatal(err)
	}
	r, err := Run(RunConfig{Schedule: sched, Seed: seed})
	if err != nil {
		t.Fatalf("%s seed %d: %v", name, seed, err)
	}
	if !r.Ok {
		t.Fatalf("%s seed %d: %s; violations %v\nhistory:\n%s",
			name, seed, r.Detail, r.Violations, r.History)
	}
	scheduleRuns[key] = r
	return r
}

// TestSweepSchedules is the nemesis sweep: every sweep schedule under each
// of sweepSeeds must pass its verdict, durable linearizability included.
func TestSweepSchedules(t *testing.T) {
	for _, b := range builtins {
		if !b.sweep {
			continue
		}
		for _, seed := range sweepSeeds {
			runSchedule(t, b.name, seed)
		}
	}
}

// TestMigrationKill: the joiner takes its fair share one handover per
// ActRebalance across its own crash and restart, under a flaky network,
// with no write applied past a fence and no fence left standing.
func TestMigrationKill(t *testing.T) {
	for _, seed := range sweepSeeds {
		r := runSchedule(t, "migration-kill", seed)
		if r.Crashes != 1 {
			t.Errorf("seed %d: crashes = %d, want 1", seed, r.Crashes)
		}
		if r.JoinerSlots != simSlots/2 || r.EpochLow != 1+simSlots/2 || r.MigratedOut != simSlots/2 {
			t.Errorf("seed %d: joiner owns %d slots, epochs %d..%d, %d donated; want %d, %d, %d",
				seed, r.JoinerSlots, r.EpochLow, r.EpochHigh, r.MigratedOut, simSlots/2, 1+simSlots/2, simSlots/2)
		}
		if r.NetFaults == 0 || r.MapRefreshes == 0 {
			t.Errorf("seed %d: %d net faults, %d map refreshes", seed, r.NetFaults, r.MapRefreshes)
		}
	}
}

// TestCorruptUnderLoad drives the media nemesis: stored pool images are
// damaged under live load — once left to the at-rest repair path and
// twice driven through crash recovery, on the primary and on the replica.
// The history must stay durably linearizable (repairs happen in place;
// corruption never surfaces as lost or resurrected writes), and at least
// one page must actually have been reconstructed from parity by a node
// that survived to the end of the run.
func TestCorruptUnderLoad(t *testing.T) {
	for _, seed := range sweepSeeds {
		r := runSchedule(t, "corrupt-under-load", seed)
		if r.Crashes != 2 {
			t.Errorf("seed %d: crashes = %d, want 2", seed, r.Crashes)
		}
		if r.PagesRepaired == 0 {
			t.Errorf("seed %d: no page reconstructed from parity", seed)
		}
		if r.MediaUnrecoverable != 0 {
			t.Errorf("seed %d: %d unrecoverable rangelet(s); single-page damage must stay within parity's reach",
				seed, r.MediaUnrecoverable)
		}
	}
}

// TestFlakySteady: steady load over a flaky client network with shard
// kills; the supervisor must restart every killed shard worker and the
// client must have met injected faults.
func TestFlakySteady(t *testing.T) {
	for _, seed := range sweepSeeds {
		r := runSchedule(t, "flaky-steady", seed)
		if r.Restarts == 0 {
			t.Errorf("seed %d: no shard worker restarted", seed)
		}
		if r.NetFaults == 0 {
			t.Errorf("seed %d: no network fault injected", seed)
		}
	}
}

// TestSchedules runs every builtin schedule under its replay seeds: each
// run's verdict must pass. Then, for each check of the verdict, it breaks that
// check's condition in a passing run of the schedule that exercises it and
// re-judges: the run must fail, and Detail must name the check.
func TestSchedules(t *testing.T) {
	runs := make(map[string]*RunResult)
	for _, b := range builtins {
		for _, seed := range b.seeds {
			runs[b.name] = runSchedule(t, b.name, seed)
		}
	}

	for _, tc := range []struct {
		check, sched string
		brk          func(r *RunResult, w *want)
	}{
		{"action", "steady", func(r *RunResult, _ *want) { r.ActionErrors = []string{"wait-role b: timed out"} }},
		{"linz", "split-brain-unfenced", func(r *RunResult, _ *want) { r.LinzOK = true }},
		{"acked-puts", "steady", func(r *RunResult, _ *want) { r.PutsOK = 0 }},
		{"sweep", "steady", func(r *RunResult, _ *want) { r.SweepFails = 1 }},
		{"clean-ops", "corrupt-under-load", func(r *RunResult, _ *want) { r.OpsFail = 1 }},
		{"clean-ops", "crash-failover-restart", func(r *RunResult, _ *want) { r.OpsInfo = 1 }},
		{"crashes", "crash-restart-replica", func(_ *RunResult, w *want) { w.crashes++ }},
		// The expected restart count off by one: one kill more than the
		// supervisor restarted.
		{"restarts", "flaky-steady", func(r *RunResult, w *want) { w.kills = int(r.Restarts) + 1 }},
		{"net-faults", "flaky-steady", func(r *RunResult, _ *want) { r.NetFaults = 0 }},
		{"net-faults", "crash-failover-restart", func(r *RunResult, _ *want) { r.NetFaults = 0 }},
		{"corrupt-classes", "corrupt-under-load", func(r *RunResult, _ *want) { r.TornPages = 0 }},
		{"repaired", "corrupt-under-load", func(r *RunResult, _ *want) { r.PagesRepaired = 0 }},
		{"unrecoverable", "corrupt-under-load", func(r *RunResult, _ *want) { r.MediaUnrecoverable = 1 }},
		{"recovery-repairs", "corrupt-under-load", func(r *RunResult, _ *want) { r.RecoveryRepairs = 0 }},
		{"promotions", "crash-failover-restart", func(_ *RunResult, w *want) { w.promotions = 0 }},
		{"promotions", "corrupt-under-load", func(r *RunResult, _ *want) { r.Promotions, r.PromotionsExported = 1, 1 }},
		{"promotions-series", "crash-failover-restart", func(r *RunResult, _ *want) { r.PromotionsExported = -1 }},
		{"promotion-dumps", "crash-failover-restart", func(r *RunResult, _ *want) { r.PromotionDumps = 0 }},
		{"ack-discipline", "crash-failover-restart", func(r *RunResult, _ *want) { r.CrashSamples[0].DegradedAcks = 1 }},
		{"ack-discipline", "corrupt-under-load", func(r *RunResult, _ *want) { r.CrashSamples[0].TimeoutAcks = 1 }},
		{"replica-work", "crash-failover-restart", func(r *RunResult, _ *want) { r.CrashSamples[0].Applies = 0 }},
		{"lag-drained", "crash-restart-replica", func(r *RunResult, _ *want) { r.ReplLag = 3 }},
		{"joiner-slots", "migration-kill", func(r *RunResult, _ *want) { r.JoinerSlots-- }},
		{"epoch", "migration-kill", func(r *RunResult, _ *want) { r.EpochLow-- }},
		{"migrated-out", "migration-kill", func(r *RunResult, _ *want) { r.MigratedOut++ }},
		{"stale-epoch-writes", "migration-kill", func(r *RunResult, _ *want) { r.StaleEpochWrites = 1 }},
		{"fenced-slots", "migration-kill", func(r *RunResult, _ *want) { r.FencedSlots = 1 }},
		{"map-refreshes", "migration-kill", func(r *RunResult, _ *want) { r.MapRefreshes = 0 }},
	} {
		base := runs[tc.sched]
		r := *base
		r.CrashSamples = append([]CrashSample(nil), base.CrashSamples...)
		if strings.HasPrefix(tc.check, "ack-") || tc.check == "replica-work" {
			if len(r.CrashSamples) != 1 {
				t.Fatalf("%s: %d crash samples, want 1: %+v", tc.sched, len(r.CrashSamples), r.CrashSamples)
			}
		}
		sched, _ := Schedules(tc.sched, 90)
		w := expect(sched)
		tc.brk(&r, &w)
		r.judge(w)
		if r.Ok || !strings.Contains(r.Detail, tc.check+": ") {
			t.Errorf("%s with %q broken: ok=%v, detail %q", tc.sched, tc.check, r.Ok, r.Detail)
		}
	}
}

func TestRunHistoryDir(t *testing.T) {
	dir := t.TempDir()
	r, err := Run(RunConfig{Schedule: Steady(30), Seed: 9, HistoryDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if r.HistoryPath == "" {
		t.Fatal("no history path recorded")
	}
}

func TestRunRejectsEmptySchedule(t *testing.T) {
	if _, err := Run(RunConfig{Schedule: Schedule{Name: "x", Topology: "pair"}}); err == nil {
		t.Fatal("empty schedule accepted")
	}
}

// newPairSim brings up sched's primary/replica pair outside Run, for tests
// that fire actions and issue operations by hand.
func newPairSim(t *testing.T, sched Schedule) *sim {
	t.Helper()
	s := &sim{
		sched:     sched,
		vc:        NewVClock(),
		net:       NewNet(),
		nodes:     make(map[string]*node),
		gateShard: make(map[uint64]uint32),
		gateMax:   make(map[uint32]uint64),
		res:       &RunResult{},
	}
	s.hist = NewHistory(s.vc)
	t.Cleanup(s.teardown)
	if err := s.setupPair(); err != nil {
		t.Fatal(err)
	}
	return s
}

// fireAll fires acts in order and fails t on the first that errs.
func fireAll(t *testing.T, s *sim, acts ...Action) {
	t.Helper()
	for _, a := range acts {
		if msg := s.fire(a); msg != "" {
			t.Fatal(msg)
		}
	}
}

// primaryRepl sums the held-ack discipline counters of a's shards.
func primaryRepl(s *sim) (degraded, fenced uint64) {
	a := s.nodes["a"]
	for _, sh := range a.srv.CollectStats().PerShard {
		degraded += sh.Repl.DegradedAcks
	}
	return degraded, a.series()["server_repl_fenced_writes_total"]
}

// TestParkedPullsLeaveNoWaiters: every replicated write ends one parked
// pull and starts the next, each with a bound armed on the virtual clock.
// A bound that was not given back when its park ended would stay in the
// clock's waiter list until it came due — one per write, all of them
// scanned by every Advance. The list must stay the size it is at rest: the
// nodes' background ticks plus one bound per parked pull.
func TestParkedPullsLeaveNoWaiters(t *testing.T) {
	s := newPairSim(t, Steady(0))
	// Two nodes, a sweeper and a watchdog tick each; one park per shard.
	const atRest = 2*2 + simShards
	cl := &simClient{s: s}
	defer cl.close()
	for i := 0; i < 500; i++ {
		if out := cl.put(keyFor(i%8), uint64(i+1)); out != "ok" {
			t.Fatalf("put %d: %s", i, out)
		}
		s.vc.Advance(opTick)
		if got := s.vc.Waiters(); got > atRest {
			t.Fatalf("after %d replicated writes the virtual clock holds %d waiters, want <= %d", i+1, got, atRest)
		}
	}
}

// TestWaitConnAfterPrimaryRestart: after the primary crashes and restarts,
// wait-conn must hold until the new incarnation has served the replica a
// pull. The replica's lifetime pull count is already positive, so a wait
// on it returns at once, and the next write reaches a primary that has not
// heard from its replica yet: it acks that write single-copy.
func TestWaitConnAfterPrimaryRestart(t *testing.T) {
	s := newPairSim(t, Steady(0))
	cl := &simClient{s: s}
	defer cl.close()
	for i := 0; i < 8; i++ {
		if out := cl.put(keyFor(i), uint64(i+1)); out != "ok" {
			t.Fatalf("put %d: %s", i, out)
		}
	}
	fireAll(t, s,
		Action{Kind: ActCrash, Node: "a"},
		Action{Kind: ActRestart, Node: "a"},
		Action{Kind: ActWaitConn, Node: "b"})
	for i := 0; i < 8; i++ {
		if out := cl.put(keyFor(i), uint64(100+i)); out != "ok" {
			t.Fatalf("put %d after the restart: %s", i, out)
		}
	}
	if degraded, _ := primaryRepl(s); degraded != 0 {
		t.Fatalf("the restarted primary acked %d writes single-copy after wait-conn returned", degraded)
	}
}

// TestAdvanceRepullsBeforeReturning: an advance past the fencing window
// over a healthy pair ends every parked pull; it must not return before
// the replica has pulled again, or the next write finds a primary whose
// last replica contact is a window old, and it fences itself.
func TestAdvanceRepullsBeforeReturning(t *testing.T) {
	s := newPairSim(t, Steady(0))
	cl := &simClient{s: s}
	defer cl.close()
	for round := 0; round < 5; round++ {
		fireAll(t, s, Action{Kind: ActAdvance, D: simFenceAfter + 50*time.Millisecond})
		if out := cl.put(keyFor(round), uint64(round+1)); out != "ok" {
			t.Fatalf("round %d: put %s", round, out)
		}
		if degraded, fenced := primaryRepl(s); degraded != 0 || fenced != 0 {
			t.Fatalf("round %d: the primary acked %d writes single-copy and refused %d as fenced", round, degraded, fenced)
		}
	}
}
