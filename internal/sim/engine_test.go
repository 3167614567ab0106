package sim

import (
	"strings"
	"testing"
	"time"
)

func TestScheduleOrdersWork(t *testing.T) {
	e := NewEngine("q0")
	start, end := e.Schedule("a", 0, 10*time.Microsecond)
	if start != 0 || end != 10*time.Microsecond {
		t.Fatalf("first span = [%v, %v], want [0, 10µs]", start, end)
	}
	// The engine is busy until 10µs, so an earlier earliest cannot jump the
	// queue; a later earliest delays the start.
	start, end = e.Schedule("b", 5*time.Microsecond, 5*time.Microsecond)
	if start != 10*time.Microsecond || end != 15*time.Microsecond {
		t.Fatalf("second span = [%v, %v], want [10µs, 15µs]", start, end)
	}
	start, _ = e.Schedule("c", 20*time.Microsecond, time.Microsecond)
	if start != 20*time.Microsecond {
		t.Fatalf("third span starts at %v, want 20µs", start)
	}
}

func TestScheduleCountsNegativeDurationClamps(t *testing.T) {
	e := NewEngine("q0")
	availBefore := e.AvailableAt()
	start, end := e.Schedule("broken-model", 0, -time.Microsecond)
	if start != end {
		t.Fatalf("negative duration not clamped to zero-length span: [%v, %v]", start, end)
	}
	if e.AvailableAt() != availBefore {
		t.Fatalf("clamped span advanced the engine: availableAt = %v", e.AvailableAt())
	}
	if got := e.NegativeClamps(); got != 1 {
		t.Fatalf("NegativeClamps = %d, want 1", got)
	}
	e.Schedule("ok", 0, time.Microsecond)
	if got := e.NegativeClamps(); got != 1 {
		t.Fatalf("NegativeClamps after valid span = %d, want 1", got)
	}
	e.Reset()
	if got := e.NegativeClamps(); got != 0 {
		t.Fatalf("NegativeClamps after Reset = %d, want 0", got)
	}
}

func TestScheduleNegativeDurationPanicsInDebugMode(t *testing.T) {
	DebugNegativeDurations = true
	defer func() { DebugNegativeDurations = false }()
	e := NewEngine("q0")
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("Schedule with negative duration did not panic under DebugNegativeDurations")
		}
		msg, ok := r.(string)
		if !ok || !strings.Contains(msg, "negative duration") {
			t.Fatalf("unexpected panic payload: %v", r)
		}
	}()
	e.Schedule("broken-model", 0, -time.Nanosecond)
}
