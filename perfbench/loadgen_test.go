package main

import (
	"testing"
	"time"
)

func TestAccountFromDueTime(t *testing.T) {
	due := time.Unix(100, 0)
	early := account(due, due.Add(-time.Millisecond), due.Add(2*time.Millisecond), true)
	if early.latency != 2*time.Millisecond || early.lateness != 0 {
		t.Errorf("sent early: %+v, want latency 2ms from due and no lateness", early)
	}
	late := account(due, due.Add(5*time.Millisecond), due.Add(6*time.Millisecond), false)
	if late.latency != 6*time.Millisecond || late.lateness != 5*time.Millisecond || late.ok {
		t.Errorf("sent late: %+v, want latency 6ms (including the 5ms wait) and lateness 5ms", late)
	}
}

func TestScheduleDue(t *testing.T) {
	s := schedule{start: time.Unix(0, 0), interval: 250 * time.Microsecond}
	if got := s.due(4).Sub(s.start); got != time.Millisecond {
		t.Errorf("due(4) = start+%v, want start+1ms", got)
	}
}

// TestOpenLoopChargesStalls: one connection, a request every millisecond,
// each taking five. The schedule does not wait for the server, so every
// request is later than the one before and its latency carries that wait.
func TestOpenLoopChargesStalls(t *testing.T) {
	const n = 6
	results := openLoop(schedule{start: time.Now(), interval: time.Millisecond}, n, 1, func(int) bool {
		time.Sleep(5 * time.Millisecond)
		return true
	})
	for i, r := range results {
		if !r.ok || r.latency < 5*time.Millisecond || r.latency < r.lateness {
			t.Errorf("request %d: %+v", i, r)
		}
		if i > 0 && r.lateness <= results[i-1].lateness {
			t.Errorf("request %d lateness %v not above request %d's %v", i, r.lateness, i-1, results[i-1].lateness)
		}
	}
	if min := time.Duration(n-1) * 4 * time.Millisecond; results[n-1].lateness < min {
		t.Errorf("last request lateness %v, want at least %v", results[n-1].lateness, min)
	}
}

func TestClosedLoopCounts(t *testing.T) {
	done, failed, wall := closedLoop(20*time.Millisecond, 2, func(i int) bool {
		time.Sleep(time.Millisecond)
		return i%2 == 0
	})
	if done < 2 || failed < 1 || failed > done || wall < 20*time.Millisecond {
		t.Errorf("closed loop: done %d failed %d wall %v", done, failed, wall)
	}
}
