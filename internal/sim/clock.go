// Package sim provides the virtual-time primitives used by the simulated GPU
// devices and host runtimes.
//
// All timing produced by VComputeBench is simulated time, not wall-clock time.
// The paper measures execution times on the CPU using std::chrono around
// submissions and waits; this package models the equivalent host clock plus the
// per-engine timelines (queues, DMA engines) the host synchronises with.
package sim

import (
	"sync"
	"time"
)

// Clock is a monotonically advancing virtual clock. The zero value is a clock
// at time zero, ready to use.
type Clock struct {
	mu  sync.Mutex
	now time.Duration
}

// Now returns the current virtual time.
func (c *Clock) Now() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// Advance moves the clock forward by d. Negative durations are ignored so a
// caller can safely advance by a computed delta that may round to a negative
// value.
func (c *Clock) Advance(d time.Duration) time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	if d > 0 {
		c.now += d
	}
	return c.now
}

// AdvanceTo moves the clock forward to t if t is later than the current time.
// It returns the resulting time.
func (c *Clock) AdvanceTo(t time.Duration) time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	if t > c.now {
		c.now = t
	}
	return c.now
}

// Reset rewinds the clock to zero. Only tests should use this.
func (c *Clock) Reset() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = 0
}
