package main

import (
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// schedule is an open loop's send plan: request i is due at start+i*interval
// whether or not earlier requests have completed.
type schedule struct {
	start    time.Time
	interval time.Duration
}

func (s schedule) due(i int) time.Time { return s.start.Add(time.Duration(i) * s.interval) }

// opResult is one open-loop request. Latency runs from the due time, not the
// send time, so a stall is charged to every request it delayed; lateness is
// how far behind its schedule the generator sent the request.
type opResult struct {
	latency  time.Duration
	lateness time.Duration
	ok       bool
}

func account(due, sent, done time.Time, ok bool) opResult {
	late := sent.Sub(due)
	if late < 0 {
		late = 0
	}
	return opResult{latency: done.Sub(due), lateness: late, ok: ok}
}

// openLoop sends requests 0..n-1 on the schedule from conns workers and
// returns once all have completed. A worker that falls behind sends at once;
// the delay shows as lateness and in latency.
func openLoop(sch schedule, n, conns int, do func(i int) bool) []opResult {
	results := make([]opResult, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				due := sch.due(i)
				waitUntil(due)
				sent := time.Now()
				ok := do(i)
				results[i] = account(due, sent, time.Now(), ok)
			}
		}()
	}
	wg.Wait()
	return results
}

// waitUntil returns at t, or at once if t has passed. The runtime's timers
// round sub-millisecond sleeps up to about a millisecond, which would show as
// generator lateness, so the wait is a nanosleep of the calling thread
// instead (the runtime hands the thread's processor to other goroutines
// meanwhile).
func waitUntil(t time.Time) {
	if d := time.Until(t); d > 0 {
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // EINTR only shortens the wait
	}
}

// closedLoop runs conns workers that each send their next request as soon as
// the previous one completes, until d has passed. It returns the completed
// and failed counts and the wall time until the last completion.
func closedLoop(d time.Duration, conns int, do func(i int) bool) (done, failed int, wall time.Duration) {
	var next, nfail atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(d)
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				i := int(next.Add(1) - 1)
				if !do(i) {
					nfail.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	return int(next.Load()), int(nfail.Load()), time.Since(start)
}
