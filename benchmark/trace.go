package main

// Span aggregation for the traced leg. The client and every server of a
// topology share one obs.SpanRecorder whose sink folds each span into a
// per-stage duration list; the recorder's ring would wrap thousands of
// times over a window, so the ring is kept tiny and only the aggregate
// (plus, on request, a bounded raw sample for -spans-out) stays in memory.
// Nothing is written until the window has closed.

import (
	"sync/atomic"

	"nvref/internal/obs"
)

// maxKeptSpans bounds the raw spans retained for -spans-out.
const maxKeptSpans = 1 << 18

// stageAgg is the sink. The recorder calls it under its own lock, which
// serialises writers; on gates which phase is aggregated.
type stageAgg struct {
	on   atomic.Bool
	dur  map[string][]int64
	keep bool
	kept []obs.Span
}

func newStageAgg(keep bool) *stageAgg {
	return &stageAgg{dur: make(map[string][]int64), keep: keep}
}

func (a *stageAgg) sink(s obs.Span) {
	if !a.on.Load() {
		return
	}
	a.dur[s.Stage] = append(a.dur[s.Stage], s.DurNS)
	if a.keep && len(a.kept) < maxKeptSpans {
		a.kept = append(a.kept, s)
	}
}

// stageTable fills server.stage.* from the aggregate. e2eNS is the summed
// client-observed latency of the traced operations, the denominator of
// every share; the shares and the unattributed remainder sum to 1 by
// construction. The spans are known to overlap at the socket boundary
// (reply_encode can close after the client has stopped its clock), and
// background stages overlap queue_wait, so the remainder may be negative.
func (a *stageAgg) stageTable(ms *metricSet, e2eNS int64) {
	attributed := 0.0
	for _, st := range stages {
		d := sortedCopy(a.dur[st])
		prefix := "server.stage." + st
		// A percentile without minBeyond samples past it is not reported:
		// the metric stays 0 and its sample count says why.
		p50, _ := percentile(d, 50)
		p99, _ := percentile(d, 99)
		ms.setN(prefix+".p50_us", float64(p50)/1e3, len(d))
		ms.setN(prefix+".p99_us", float64(p99)/1e3, len(d))
		var sum int64
		for _, x := range d {
			sum += x
		}
		share := 0.0
		if e2eNS > 0 {
			share = float64(sum) / float64(e2eNS)
		}
		attributed += share
		ms.setN(prefix+".share", share, len(d))
	}
	ms.set("server.stage.unattributed.share", 1-attributed)
}
