// Package sim is the deterministic whole-cluster simulation harness: a
// seeded virtual clock the server's correctness windows draw from, a
// partitionable in-process network, a nemesis plane that composes fault
// schedules over the existing hooks, a client-history recorder, and (in
// the linz subpackage) a durable-linearizability checker over those
// histories.
//
// The determinism model is deliberately simple: one sequential driver
// issues exactly one client operation at a time, the virtual clock only
// moves at driver-controlled points (per-op ticks, nemesis advances, and
// injected flaky delays), and histories are ordered by driver-assigned
// event indices. Wall-clock time still paces goroutines and sockets —
// liveness — but every window that decides *correctness* (fencing,
// promotion-by-silence, replica liveness, ack expiry, deadlines) reads
// the virtual clock, so a run's recorded history is a pure function of
// (schedule, seed).
package sim

import (
	"sync"
	"time"
)

// vclockEpoch is the virtual time origin. It is deliberately far from
// zero: the server stores "never" as a zero UnixNano, so virtual
// timestamps must not collide with it.
var vclockEpoch = time.Unix(1<<20, 0)

// VClock is the simulator's virtual clock: an explicit logical time that
// only moves when the driver advances it. It implements fault.Clock.
//
// Sleep self-advances the clock by the requested duration and returns
// immediately: the sum of advances is commutative, so concurrent sleeps
// (the flaky injector's delays) keep the clock value at every driver
// step deterministic even though goroutine interleaving is not.
type VClock struct {
	mu      sync.Mutex
	now     time.Time
	waiters []vwaiter
}

type vwaiter struct {
	at time.Time
	ch chan time.Time
}

// NewVClock returns a virtual clock at the simulation epoch.
func NewVClock() *VClock {
	return &VClock{now: vclockEpoch}
}

// Now implements fault.Clock.
func (c *VClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// Elapsed returns how much virtual time has passed since the epoch.
func (c *VClock) Elapsed() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now.Sub(vclockEpoch)
}

// Advance moves the clock forward by d (never backward) and fires every
// waiter whose deadline the new time covers. It returns the new time.
func (c *VClock) Advance(d time.Duration) time.Time {
	c.mu.Lock()
	if d > 0 {
		c.now = c.now.Add(d)
	}
	now := c.now
	kept := c.waiters[:0]
	var due []vwaiter
	for _, w := range c.waiters {
		if !w.at.After(now) {
			due = append(due, w)
		} else {
			kept = append(kept, w)
		}
	}
	c.waiters = kept
	c.mu.Unlock()
	for _, w := range due {
		w.ch <- now // buffered, single-use: never blocks
	}
	return now
}

// Sleep implements fault.Clock: account the sleep as a self-advance and
// return immediately (see the type comment for why this is sound).
func (c *VClock) Sleep(d time.Duration) { c.Advance(d) }

// After implements fault.Clock: the returned channel fires on the first
// Advance that reaches now+d. If d is non-positive it fires immediately.
func (c *VClock) After(d time.Duration) <-chan time.Time {
	ch, _ := c.Timer(d)
	return ch
}

// Timer implements fault.Clock: After, plus a stop that takes the waiter
// back out, so a wait abandoned before its deadline costs Advance nothing.
func (c *VClock) Timer(d time.Duration) (<-chan time.Time, func()) {
	ch := make(chan time.Time, 1)
	c.mu.Lock()
	defer c.mu.Unlock()
	at := c.now.Add(d)
	if !at.After(c.now) {
		ch <- c.now
		return ch, func() {}
	}
	c.waiters = append(c.waiters, vwaiter{at: at, ch: ch})
	return ch, func() {
		c.mu.Lock()
		defer c.mu.Unlock()
		for i, w := range c.waiters {
			if w.ch == ch {
				c.waiters = append(c.waiters[:i], c.waiters[i+1:]...)
				return
			}
		}
	}
}

// Waiters returns how many After and Timer channels are still pending
// (test hook).
func (c *VClock) Waiters() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.waiters)
}
