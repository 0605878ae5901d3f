package sim

import (
	"fmt"
	"sort"
	"strings"
)

// want is what a schedule implies about any run of it. Every count comes
// from the schedule's own action script, so a schedule states its gate by
// the faults it fires.
type want struct {
	crashes    int // one crash marker per ActCrash
	kills      int // one worker restart per ActKillShard
	corrupts   int // ActCorrupt firings, alternating bit flip and torn page
	promotions int // one promotion per ActWaitRole primary
	// crashAfterCorrupt: some node is crashed after it was corrupted, so
	// its restart must repair the damage on the way back up.
	crashAfterCorrupt bool
	flaky             bool // the injector must fire at least once
	// cluster: no clean-ops check, since the slots of a crashed node go
	// unserved until it restarts: their operations fail, definitely, as
	// the dial or the write to the dead node is refused.
	cluster    bool
	rebalances int  // slots handed over, one per ActRebalance
	violation  bool // ExpectViolation
}

// sortedActions returns the schedule's actions in firing order.
func sortedActions(sched Schedule) []Action {
	acts := append([]Action(nil), sched.Actions...)
	sort.SliceStable(acts, func(i, j int) bool { return acts[i].AfterOp < acts[j].AfterOp })
	return acts
}

// expect derives a schedule's want from its script.
func expect(sched Schedule) want {
	w := want{flaky: sched.Flaky, cluster: sched.Topology == "cluster", violation: sched.ExpectViolation}
	corrupted := make(map[string]bool)
	for _, a := range sortedActions(sched) {
		switch a.Kind {
		case ActCrash:
			w.crashes++
			w.crashAfterCorrupt = w.crashAfterCorrupt || corrupted[a.Node]
		case ActKillShard:
			w.kills++
		case ActRebalance:
			w.rebalances++
		case ActCorrupt:
			w.corrupts++
			corrupted[a.Node] = true
		case ActWaitRole:
			if a.Role == "primary" {
				w.promotions++
			}
		}
	}
	return w
}

// judge is the one verdict of a run: it sets Ok when every check holds and
// names each failed check in Detail. go test and nvbench both read it.
func (r *RunResult) judge(w want) {
	var fails []string
	check := func(ok bool, name, format string, args ...any) {
		if !ok {
			fails = append(fails, name+": "+fmt.Sprintf(format, args...))
		}
	}
	for _, e := range r.ActionErrors {
		fails = append(fails, "action: "+e)
	}
	check(!r.CheckerExhausted, "linz", "checker state cap exceeded")
	if w.violation {
		check(!r.LinzOK, "linz", "expected a durable-linearizability violation; history checked clean")
	} else {
		check(r.LinzOK, "linz", "history is not durably linearizable")
	}
	check(r.PutsOK > 0, "acked-puts", "no put was acknowledged")
	check(r.SweepFails == 0, "sweep", "%d read-back reads not ok", r.SweepFails)
	check(w.cluster || r.OpsFail == 0 && r.OpsInfo == 0, "clean-ops",
		"%d failed, %d indeterminate operations", r.OpsFail, r.OpsInfo)
	check(r.Crashes == w.crashes, "crashes", "%d recorded, the script fires %d", r.Crashes, w.crashes)
	check(r.Restarts >= uint64(w.kills), "restarts", "%d worker restarts for %d shard kills", r.Restarts, w.kills)
	check(!w.flaky || r.NetFaults > 0, "net-faults", "no network fault was injected")
	check(r.BitFlips == (w.corrupts+1)/2 && r.TornPages == w.corrupts/2, "corrupt-classes",
		"%d bit flips, %d torn pages for %d corruptions", r.BitFlips, r.TornPages, w.corrupts)
	check(w.corrupts == 0 || r.PagesRepaired > 0, "repaired", "no page reconstructed from parity")
	check(r.MediaUnrecoverable == 0, "unrecoverable", "%d rangelets beyond parity's reach", r.MediaUnrecoverable)
	check(!w.crashAfterCorrupt || r.RecoveryRepairs > 0, "recovery-repairs",
		"a corrupted node crashed and no restart repaired a page while recovering")
	check(r.Promotions == uint64(w.promotions), "promotions", "%d, the script waits for %d", r.Promotions, w.promotions)
	check(r.PromotionsExported == int64(r.Promotions), "promotions-series",
		"the registries export %d promotions, the servers report %d", r.PromotionsExported, r.Promotions)
	check(r.PromotionDumps == w.promotions, "promotion-dumps",
		"the flight recorders hold %d promotion triggers, the script waits for %d", r.PromotionDumps, w.promotions)
	for _, c := range r.CrashSamples {
		check(c.DegradedAcks == 0 && c.TimeoutAcks == 0, "ack-discipline",
			"%s acked %d degraded and %d timed-out writes before its crash", c.Node, c.DegradedAcks, c.TimeoutAcks)
		check(c.Pulls > 0 && c.Applies > 0, "replica-work",
			"%s's replica had %d pulls, %d applies before the crash", c.Node, c.Pulls, c.Applies)
	}
	check(r.ReplLag == 0, "lag-drained", "%d records still unreplicated after the sweep", r.ReplLag)
	// Every handover commits epoch+1 on the joiner and the donor, from the
	// bootstrap map's epoch 1.
	n := w.rebalances
	check(r.JoinerSlots == n, "joiner-slots", "the joiner owns %d slots, the script hands over %d", r.JoinerSlots, n)
	check(!w.cluster || r.EpochLow == uint64(1+n) && r.EpochHigh == uint64(1+n), "epoch",
		"live nodes at epochs %d..%d, want %d after %d handovers", r.EpochLow, r.EpochHigh, 1+n, n)
	check(r.MigratedOut == uint64(n), "migrated-out", "the donors report %d slots donated, the script hands over %d", r.MigratedOut, n)
	check(r.StaleEpochWrites == 0, "stale-epoch-writes", "%d writes applied past a slot's fence", r.StaleEpochWrites)
	check(r.FencedSlots == 0, "fenced-slots", "%d slot fences left standing", r.FencedSlots)
	check(!w.cluster || r.MapRefreshes > 0, "map-refreshes", "the clients never refreshed their cluster map")

	r.Ok = len(fails) == 0
	r.Detail = strings.Join(append(fails, r.notes...), "; ")
}
