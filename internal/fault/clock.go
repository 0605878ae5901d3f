package fault

import "time"

// Clock abstracts the time source the fault-adjacent correctness windows
// read: held-ack expiry, replica liveness, fencing, promotion-by-silence,
// breaker cooldowns, watchdog wedge windows, request deadlines, and the
// flaky injector's delays. Production code runs on Wall; the deterministic
// simulator (internal/sim) substitutes a seeded virtual clock so every
// window fires at an exactly reproducible point in the run.
//
// Implementations must be safe for concurrent use.
type Clock interface {
	// Now returns the current time on this clock.
	Now() time.Time
	// Sleep blocks the caller for d of this clock's time. A virtual clock
	// may instead account the sleep and return immediately.
	Sleep(d time.Duration)
	// After returns a channel that delivers the clock's time once at
	// least d has elapsed. Unlike time.After the returned channel may be
	// re-armed lazily (fired on the next advance of a virtual clock), so
	// callers must treat the delivery time, not the wall instant of
	// receipt, as "now".
	After(d time.Duration) <-chan time.Time
	// Timer is After for a wait that usually ends early: stop gives back
	// what the clock holds for the timer — a runtime timer, a virtual
	// clock's waiter — so a caller woken by something else leaves nothing
	// armed behind it. stop after the channel fired is a no-op.
	Timer(d time.Duration) (fire <-chan time.Time, stop func())
}

// Wall is the production Clock: the real time package.
type Wall struct{}

// Now implements Clock.
func (Wall) Now() time.Time { return time.Now() }

// Sleep implements Clock.
func (Wall) Sleep(d time.Duration) { time.Sleep(d) }

// After implements Clock.
func (Wall) After(d time.Duration) <-chan time.Time { return time.After(d) }

// Timer implements Clock.
func (Wall) Timer(d time.Duration) (<-chan time.Time, func()) {
	t := time.NewTimer(d)
	return t.C, func() { t.Stop() }
}

// OrWall returns c, or the wall clock when c is nil — the default-filling
// helper every Clock consumer uses.
func OrWall(c Clock) Clock {
	if c == nil {
		return Wall{}
	}
	return c
}
