package sim

import (
	"fmt"
	"sync"
	"time"
)

// DebugNegativeDurations makes Engine.Schedule panic when asked to schedule
// work of negative duration instead of silently clamping it to zero. A
// negative duration always means a timing-model bug (internal/hw produced
// "work" that takes less than no time); tests and debug runs set this to make
// such bugs loud. It must be toggled before any engine runs work.
var DebugNegativeDurations = false

// Engine models a single in-order execution engine (a device queue, a DMA
// engine, ...). Work scheduled on an engine starts no earlier than the engine
// becomes free and no earlier than the requested earliest start time, and runs
// for its estimated duration.
type Engine struct {
	mu          sync.Mutex
	name        string
	availableAt time.Duration
	negClamped  int
}

// NewEngine creates an engine with the given name.
func NewEngine(name string) *Engine {
	return &Engine{name: name}
}

// Name returns the engine name.
func (e *Engine) Name() string { return e.name }

// AvailableAt reports the earliest time at which new work could start.
func (e *Engine) AvailableAt() time.Duration {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.availableAt
}

// Schedule places a unit of work of length d on the engine, starting no
// earlier than earliest. It returns the start and completion times. A
// negative duration is a timing-model bug: it is clamped to zero and counted
// (NegativeClamps), or panics under DebugNegativeDurations, so broken models
// cannot hide as free work.
func (e *Engine) Schedule(name string, earliest, d time.Duration) (start, end time.Duration) {
	if d < 0 {
		if DebugNegativeDurations {
			panic(fmt.Sprintf("sim: engine %q asked to schedule %q for negative duration %v", e.name, name, d))
		}
		e.mu.Lock()
		e.negClamped++
		e.mu.Unlock()
		d = 0
	}
	e.mu.Lock()
	start = e.availableAt
	if earliest > start {
		start = earliest
	}
	end = start + d
	e.availableAt = end
	e.mu.Unlock()
	return start, end
}

// NegativeClamps reports how many scheduled durations were negative and got
// clamped to zero — a nonzero value flags a timing-model bug upstream.
func (e *Engine) NegativeClamps() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.negClamped
}

// Reset clears the engine's occupancy and its negative-duration count. Only
// tests should use this.
func (e *Engine) Reset() {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.availableAt = 0
	e.negClamped = 0
}

// TraceSink receives every host-clock Spend for trace capture. The execute/
// replay layer (internal/hw) implements it to record host work symbolically;
// sim stays ignorant of what the durations mean.
type TraceSink interface {
	// HostSpend is called once per Spend, before the non-positive-duration
	// filter, so a sink sees knob-valued spends even while the knob is zero.
	HostSpend(d time.Duration)
}

// Host models the CPU side of the platform: a virtual clock the benchmarks
// read with the simulated equivalent of std::chrono, plus helpers for
// host-side busy work (API call overheads, validation, driver work).
type Host struct {
	clock Clock
	sink  TraceSink
}

// NewHost returns a host whose clock starts at zero.
func NewHost() *Host { return &Host{} }

// SetTraceSink attaches a sink observing every Spend (nil detaches). Waits
// are not observed here: their targets are queue-relative, which only the
// layers holding the queues can express.
func (h *Host) SetTraceSink(s TraceSink) { h.sink = s }

// Now returns the current host time.
func (h *Host) Now() time.Duration { return h.clock.Now() }

// Spend advances the host clock by d, modelling CPU-side work such as API
// validation, command recording or driver bookkeeping, and returns the new
// time. what names the work at the call site.
func (h *Host) Spend(what string, d time.Duration) time.Duration {
	if h.sink != nil {
		h.sink.HostSpend(d)
	}
	return h.clock.Advance(d)
}

// WaitUntil blocks (in virtual time) until t: the host clock is advanced to t
// if t is in the future.
func (h *Host) WaitUntil(t time.Duration) time.Duration {
	return h.clock.AdvanceTo(t)
}

// Reset rewinds the host clock. Only tests and the benchmark runner (between
// repetitions) should use this.
func (h *Host) Reset() {
	h.clock.Reset()
}

// Stopwatch measures an interval of host virtual time, mirroring the paper's
// use of std::chrono::high_resolution_clock on the CPU.
type Stopwatch struct {
	host  *Host
	start time.Duration
}

// StartStopwatch begins a measurement at the current host time.
func StartStopwatch(h *Host) *Stopwatch {
	return &Stopwatch{host: h, start: h.Now()}
}

// Elapsed returns the virtual time elapsed since the stopwatch started.
func (s *Stopwatch) Elapsed() time.Duration { return s.host.Now() - s.start }

func (s *Stopwatch) String() string {
	return fmt.Sprintf("stopwatch(start=%v elapsed=%v)", s.start, s.Elapsed())
}
