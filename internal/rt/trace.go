package rt

import (
	"fmt"

	"nvref/internal/core"
	"nvref/internal/obs"
)

// Execution tracing: when a tracer is attached, the Context emits one
// structured obs.Event per reference operation — the representation of
// every operand, the resolved address, and the conversions performed. The
// trace is the debugging view of the reference machinery: reading it next
// to the Figure 4 table shows each rule firing.
//
// The old unstructured text stream survives as a rendering: FormatEvent
// turns an event into its legacy line, so a tracer whose sink prints
// FormatEvent lines reproduces the old output byte for byte — emitted
// under the tracer's mutex, so a Context shared across goroutines cannot
// interleave partial lines.
//
// Tracing is off (nil tracer) by default and costs one nil check when off.

// SetTracer attaches a structured event tracer (nil detaches).
func (c *Context) SetTracer(t *obs.Tracer) { c.tracer = t }

// Tracer returns the attached tracer (nil when tracing is off).
func (c *Context) Tracer() *obs.Tracer { return c.tracer }

// traceOn reports whether tracing is active (to skip building events).
func (c *Context) traceOn() bool { return c.tracer != nil }

// FormatEvent renders a structured event in the legacy text trace format,
// byte-for-byte what the old io.Writer trace printed.
func FormatEvent(e obs.Event) string {
	prefix := fmt.Sprintf("[%s @%d] ", e.Mode, e.Cycle)
	switch e.Kind {
	case obs.EvLoadPtr:
		note := ""
		if e.Conv != obs.ConvNone {
			note = fmt.Sprintf(" -> local %s (pdy=pxr conversion)", core.Ptr(e.Res))
		}
		return prefix + fmt.Sprintf("loadPtr  %s+%d = %s%s", core.Ptr(e.P), e.Off, core.Ptr(e.Val), note)
	case obs.EvStorePtr:
		note := ""
		if e.Conv != obs.ConvNone {
			note = fmt.Sprintf(" (converted from %s)", core.Ptr(e.Val))
		}
		return prefix + fmt.Sprintf("storePtr %s+%d <- %s%s", core.Ptr(e.P), e.Off, core.Ptr(e.Res), note)
	case obs.EvLoad:
		return prefix + fmt.Sprintf("load     %s+%d @ va %#x", core.Ptr(e.P), e.Off, e.Val)
	case obs.EvStore:
		return prefix + fmt.Sprintf("storeD   %s+%d @ va %#x", core.Ptr(e.P), e.Off, e.Val)
	case obs.EvAlloc:
		return prefix + fmt.Sprintf("alloc    %s (%d bytes)", core.Ptr(e.P), e.Val)
	case obs.EvFree:
		return prefix + fmt.Sprintf("free     %s (%d bytes)", core.Ptr(e.P), e.Val)
	}
	return prefix + fmt.Sprintf("%s %s+%d val %#x", e.Kind, core.Ptr(e.P), e.Off, e.Val)
}

// event seeds an Event with the Context's position (mode and cycle).
func (c *Context) event(kind obs.EventKind) obs.Event {
	return obs.Event{Cycle: c.CPU.Stats.Cycles, Mode: c.Mode.String(), Kind: kind}
}

// Traced operation hooks. The regular operations call these; with no tracer
// attached each costs one nil check.

func (c *Context) traceLoadPtr(p core.Ptr, off int64, loaded, local core.Ptr) {
	if !c.traceOn() {
		return
	}
	e := c.event(obs.EvLoadPtr)
	e.P, e.Off, e.Val, e.Res = uint64(p), off, uint64(loaded), uint64(local)
	if loaded != local {
		e.Conv = obs.ConvRelToAbs
	}
	c.tracer.Emit(e)
}

func (c *Context) traceStorePtr(p core.Ptr, off int64, q, stored core.Ptr) {
	if !c.traceOn() {
		return
	}
	e := c.event(obs.EvStorePtr)
	e.P, e.Off, e.Val, e.Res = uint64(p), off, uint64(q), uint64(stored)
	if q != stored {
		if stored.IsRelative() {
			e.Conv = obs.ConvAbsToRel
		} else {
			e.Conv = obs.ConvRelToAbs
		}
	}
	c.tracer.Emit(e)
}

func (c *Context) traceAllocFree(kind obs.EventKind, p core.Ptr, size uint64) {
	if !c.traceOn() {
		return
	}
	e := c.event(kind)
	e.P, e.Val = uint64(p), size
	c.tracer.Emit(e)
}

func (c *Context) traceAccess(kind obs.EventKind, p core.Ptr, off int64, va uint64) {
	if !c.traceOn() {
		return
	}
	e := c.event(kind)
	e.P, e.Off, e.Val = uint64(p), off, va
	c.tracer.Emit(e)
}
