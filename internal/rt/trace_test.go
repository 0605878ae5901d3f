package rt

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"nvref/internal/core"
	"nvref/internal/obs"
)

func TestTraceRecordsOperationsAndConversions(t *testing.T) {
	c := MustNew(HW)
	var buf bytes.Buffer
	tr := obs.NewTracer(0)
	tr.SetSink(func(e obs.Event) { fmt.Fprintln(&buf, FormatEvent(e)) })
	c.SetTracer(tr)

	a := c.Pmalloc(32)
	b := c.Pmalloc(32)
	c.StorePtr(tsStore, a, 0, b) // VA-form local into NVM: converts
	p := c.LoadPtr(tsLoad, a, 0) // relative loaded, converted to local VA
	_ = c.LoadWord(tsLoad, p, 8)
	c.StoreWord(tsStore, p, 8, 5)

	out := buf.String()
	for _, want := range []string{"storePtr", "loadPtr", "load    ", "storeD", "(converted from", "pdy=pxr conversion", "[HW @"} {
		if !strings.Contains(out, want) {
			t.Errorf("trace missing %q in:\n%s", want, out)
		}
	}

	// Detaching the tracer stops emission.
	c.SetTracer(nil)
	before := buf.Len()
	_ = c.LoadWord(tsLoad, p, 8)
	if buf.Len() != before {
		t.Error("trace emitted after detach")
	}
}

func TestTraceOffByDefaultCostsNothing(t *testing.T) {
	c := MustNew(SW)
	p := c.Pmalloc(16)
	c.StoreWord(tsStore, p, 0, 1)
	if c.traceOn() {
		t.Error("trace on by default")
	}
	_ = core.Null
}
