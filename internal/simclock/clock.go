// Package simclock provides the virtual/real clock abstraction used by every
// time-dependent component in the repository.
//
// The paper's experiments span days of traffic (predictability analysis) and
// milliseconds of latency (QUIC attestation). To run both as fast tests, all
// components take a Clock. A VirtualClock advances only when told to, so a
// two-week testbed trace simulates in milliseconds; a RealClock wraps the
// wall clock for the loopback-UDP latency experiments.
package simclock

import (
	"sort"
	"sync"
	"time"
)

// Clock is the minimal time source components depend on.
type Clock interface {
	// Now returns the current instant.
	Now() time.Time
}

// RealClock reads the wall clock.
type RealClock struct{}

// Now implements Clock.
func (RealClock) Now() time.Time { return time.Now() }

// VirtualClock is a manually advanced clock with an event queue. It is safe
// for concurrent use. The zero value is not ready; use NewVirtual.
type VirtualClock struct {
	mu     sync.Mutex
	now    time.Time
	queue  []*timer
	nextID int
}

type timer struct {
	id   int
	when time.Time
	fn   func(time.Time)
}

// Epoch is the default start instant for virtual clocks: a fixed, readable
// reference so traces are reproducible byte-for-byte.
var Epoch = time.Date(2022, time.June, 1, 0, 0, 0, 0, time.UTC)

// NewVirtual returns a virtual clock starting at Epoch.
func NewVirtual() *VirtualClock { return NewVirtualAt(Epoch) }

// NewVirtualAt returns a virtual clock starting at the given instant.
func NewVirtualAt(start time.Time) *VirtualClock {
	return &VirtualClock{now: start}
}

// Now implements Clock.
func (c *VirtualClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// AfterFunc schedules fn to run (synchronously, during Advance) when the
// clock passes d from now. It returns a cancel function.
func (c *VirtualClock) AfterFunc(d time.Duration, fn func(now time.Time)) (cancel func()) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.nextID++
	t := &timer{id: c.nextID, when: c.now.Add(d), fn: fn}
	c.queue = append(c.queue, t)
	id := t.id
	return func() {
		c.mu.Lock()
		defer c.mu.Unlock()
		for i, q := range c.queue {
			if q.id == id {
				c.queue = append(c.queue[:i], c.queue[i+1:]...)
				return
			}
		}
	}
}

// Advance moves the clock forward by d, firing due timers in timestamp order.
// Timers scheduled by running timers fire too if they fall inside the window.
func (c *VirtualClock) Advance(d time.Duration) {
	c.mu.Lock()
	target := c.now.Add(d)
	for {
		idx := -1
		for i, t := range c.queue {
			if !t.when.After(target) && (idx < 0 || t.when.Before(c.queue[idx].when) ||
				(t.when.Equal(c.queue[idx].when) && t.id < c.queue[idx].id)) {
				idx = i
			}
		}
		if idx < 0 {
			break
		}
		t := c.queue[idx]
		c.queue = append(c.queue[:idx], c.queue[idx+1:]...)
		if t.when.After(c.now) {
			c.now = t.when
		}
		c.mu.Unlock()
		t.fn(t.when)
		c.mu.Lock()
	}
	if target.After(c.now) {
		c.now = target
	}
	c.mu.Unlock()
}

// AdvanceTo moves the clock to the given instant (no-op if in the past).
func (c *VirtualClock) AdvanceTo(t time.Time) {
	c.mu.Lock()
	now := c.now
	c.mu.Unlock()
	if t.After(now) {
		c.Advance(t.Sub(now))
	}
}

// Pending reports how many timers are scheduled.
func (c *VirtualClock) Pending() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.queue)
}

// NextDeadline returns the earliest scheduled timer instant, and false when
// no timers are pending.
func (c *VirtualClock) NextDeadline() (time.Time, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.queue) == 0 {
		return time.Time{}, false
	}
	sorted := make([]time.Time, len(c.queue))
	for i, t := range c.queue {
		sorted[i] = t.when
	}
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Before(sorted[j]) })
	return sorted[0], true
}

// Run drains the timer queue, advancing to each deadline, until either no
// timers remain or the clock would pass end. It returns the number of timers
// fired.
func (c *VirtualClock) Run(end time.Time) int {
	fired := 0
	for {
		next, ok := c.NextDeadline()
		if !ok || next.After(end) {
			break
		}
		before := c.Pending()
		c.AdvanceTo(next)
		if after := c.Pending(); after < before {
			fired += before - after
		}
	}
	c.AdvanceTo(end)
	return fired
}
