package hw

import (
	"fmt"
	"time"
	"unsafe"

	"vcomputebench/internal/kernels"
)

// This file is the simulator's clock and its execute/replay seam. A run's
// Timeline owns the simulated host time and the availability of every device
// queue. Each host-clock advance and each unit of device work is appended to
// it as a TraceEvent whose duration is a *function of the driver profile*,
// not a number, and the timeline steps its clocks by valuing that event
// under the run's profile. Replaying the finished trace under any
// DriverProfile steps a fresh timeline through the same events with the same
// code, so a replay under the recorded profile reproduces the run exactly —
// without re-executing a single workgroup. The expensive part of a
// measurement (functional kernel execution producing kernels.Counters) is
// invariant under every timing knob, so a recorded trace turns a calibration
// sweep of E candidate profiles from E executions into 1 execution + E
// analytic replays.
//
// What is profile-dependent and what is not:
//
//   - EvSpend / EvOccupy durations are Costs: a fixed part plus counts of
//     DriverProfile duration knobs, revalued at replay time.
//   - EvKernel durations are KernelDuration(profile, driver, prog, counters),
//     recomputed from the recorded counters (plus a Cost for the API layer's
//     extra device time).
//   - EvTransfer durations are TransferDuration(profile, bytes).
//   - The event *sequence* (control flow, dispatch grids, byte volumes,
//     counters) is invariant under DriverProfile changes; it does depend on
//     the structural profile fields summarised by ExecutionFingerprint.

// Knob identifies one DriverProfile duration field a recorded cost refers to
// symbolically, so replay can revalue it under a different profile.
type Knob uint8

// The DriverProfile duration knobs: its timing durations, in declaration
// order (knobFields). The order is the snapshot codec's wire order.
const (
	KnobKernelLaunch     Knob = iota // KernelLaunchOverhead
	KnobSync                         // SyncLatency
	KnobSubmit                       // SubmitOverhead
	KnobCommandRecord                // CommandRecordOverhead
	KnobPipelineBind                 // PipelineBindOverhead
	KnobBarrier                      // BarrierOverhead
	KnobDescriptorUpdate             // DescriptorUpdateOverhead
	KnobPushConstant                 // PushConstantOverhead
	KnobJITCompile                   // JITCompileTime
	KnobPipelineCreate               // PipelineCreateTime
	KnobAlloc                        // AllocOverhead
	knobCount
)

// value reads the knob's declared DriverProfile field (see knobFields). It
// runs once per replayed cost, so it indexes precomputed field offsets
// instead of going through reflection.
func (k Knob) value(drv *DriverProfile) time.Duration {
	return *(*time.Duration)(unsafe.Add(unsafe.Pointer(drv), knobFields[k].offset))
}

// Cost is a symbolic duration: a fixed part plus integer counts of driver
// knobs. Valuation multiplies each count by the knob's current profile value
// (e.g. n * drv.JITCompileTime for a build of n kernels). The API front ends
// never value knobs themselves: they hand costs to the run's Timeline.
type Cost struct {
	Fixed  time.Duration
	Counts [knobCount]int32
}

// FixedCost returns a profile-independent cost.
func FixedCost(d time.Duration) Cost { return Cost{Fixed: d} }

// KnobCost returns the cost of one use of a driver knob.
func KnobCost(k Knob) Cost { return KnobCostN(k, 1) }

// KnobCostN returns the cost of n uses of a driver knob.
func KnobCostN(k Knob, n int) Cost {
	var c Cost
	c.Counts[k] = int32(n)
	return c
}

// Plus returns the sum of two costs.
func (c Cost) Plus(o Cost) Cost {
	c.Fixed += o.Fixed
	for i := range c.Counts {
		c.Counts[i] += o.Counts[i]
	}
	return c
}

// IsZero reports whether the cost is structurally empty: no fixed part and no
// knob uses. A structurally non-empty cost may still evaluate to zero under a
// profile whose knobs are zero — callers that gate work on a cost must use
// IsZero, not the valuation, so the decision is profile-independent.
func (c Cost) IsZero() bool {
	if c.Fixed != 0 {
		return false
	}
	for _, n := range c.Counts {
		if n != 0 {
			return false
		}
	}
	return true
}

// Duration values the cost under a driver profile.
func (c Cost) Duration(drv *DriverProfile) time.Duration {
	d := c.Fixed
	for k, n := range c.Counts {
		if n != 0 {
			d += time.Duration(n) * Knob(k).value(drv)
		}
	}
	return d
}

// EventKind discriminates TraceEvent.
type EventKind uint8

// Trace event kinds.
const (
	// EvSpend advances the host clock by Cost; non-positive valuations
	// leave it where it is.
	EvSpend EventKind = iota
	// EvKernel schedules KernelDuration(prog, counters) + Cost on a queue.
	EvKernel
	// EvTransfer schedules TransferDuration(bytes) on a queue.
	EvTransfer
	// EvOccupy schedules Cost on a queue. Every scheduled duration is
	// clamped at zero (see DebugNegativeDurations).
	EvOccupy
	// EvWait advances the host clock to the end of event Ref (no-op for a
	// negative Ref, which denotes an empty queue at record time).
	EvWait
	// EvMark samples the host clock (stopwatch boundaries, total-time reads).
	EvMark
)

// TraceEvent is one timed step of a recorded run.
type TraceEvent struct {
	Kind  EventKind
	Queue uint8 // queue slot for EvKernel/EvTransfer/EvOccupy
	Ref   int32 // EvWait target event index (-1 = wait on nothing)
	Bytes int64 // EvTransfer byte count

	Prog     *kernels.Program // EvKernel program (immutable registry entry)
	Counters kernels.Counters // EvKernel execution counters (by value)

	Cost Cost // EvSpend / EvOccupy duration; EvKernel extra device time
}

// ReadingKind discriminates Reading.
type ReadingKind uint8

// Reading kinds.
const (
	// ReadHostMark is an absolute host-time sample: the value of mark event A.
	ReadHostMark ReadingKind = iota
	// ReadMarkDiff is a stopwatch interval: mark B minus mark A.
	ReadMarkDiff
	// ReadSpanSum is the summed device occupancy of the referenced events.
	ReadSpanSum
	// ReadEndDiff is end(B) - end(A) of two scheduled events (-1 = time zero),
	// the semantics of device-side event timers (cudaEventElapsedTime).
	ReadEndDiff
)

// Reading is one derived quantity a benchmark observed during the run (a
// stopwatch interval, a submission's kernel-time sum, an event-timer delta, a
// total-time sample). The recorded Value lets the runner bind a Result field
// to the reading that produced it; replay then recomputes the reading's value
// under the new profile.
type Reading struct {
	Kind  ReadingKind
	A, B  int32
	Refs  []int32
	Value time.Duration
}

// maxQueueSlots bounds the number of device queues a trace distinguishes
// (devices expose 3; slots beyond the bound would be a programming error).
const maxQueueSlots = 8

// DebugNegativeDurations makes the timeline panic when asked to schedule work
// of negative duration instead of clamping it to zero. A negative duration
// always means a timing-model bug (the model produced "work" that takes less
// than no time); tests and debug runs set this to make such bugs loud. It
// must be toggled before any timeline runs.
var DebugNegativeDurations = false

// Timeline is the simulated clock of one benchmark run: the host time, the
// availability of every device queue, and the trace of every event and
// reading that moved or observed them. Each method appends its event or
// reading and returns the resulting value, computed by the same step and
// evaluation code Trace.Replay runs. A Timeline is not safe for concurrent
// use; a benchmark run's host code is single-threaded.
type Timeline struct {
	api      API
	prof     *Profile
	drv      DriverProfile
	events   []TraceEvent
	readings []Reading
	// at holds each event's schedule interval: [start, end) for queue work,
	// a zero-length interval at the host time for marks, zero otherwise.
	at         []span
	host       time.Duration
	avail      [maxQueueSlots]time.Duration
	last       [maxQueueSlots]int32
	negClamped int
}

type span struct{ start, end time.Duration }

// newTimeline returns an empty timeline valuing costs under the profile's
// driver for api.
func newTimeline(p *Profile, api API) (*Timeline, error) {
	drv, ok := p.Driver(api)
	if !ok {
		return nil, fmt.Errorf("hw: %q has no %s driver", p.Name, api)
	}
	t := &Timeline{api: api, prof: p, drv: drv}
	for i := range t.last {
		t.last[i] = -1
	}
	return t, nil
}

// push appends an event and steps the clocks through it.
func (t *Timeline) push(ev TraceEvent) int32 {
	i := len(t.events)
	t.events = append(t.events, ev)
	t.at = append(t.at, span{})
	t.step(i)
	return int32(i)
}

// step advances the clocks through event i. It is the one definition of
// simulated time: live runs call it as each event is appended, Replay calls
// it over a recorded trace.
func (t *Timeline) step(i int) {
	ev := &t.events[i]
	switch ev.Kind {
	case EvSpend:
		if d := ev.Cost.Duration(&t.drv); d > 0 {
			t.host += d
		}
	case EvKernel, EvTransfer, EvOccupy:
		var d time.Duration
		switch ev.Kind {
		case EvKernel:
			d = KernelDuration(t.prof, &t.drv, ev.Prog, &ev.Counters) + ev.Cost.Duration(&t.drv)
		case EvTransfer:
			d = TransferDuration(t.prof, ev.Bytes)
		case EvOccupy:
			d = ev.Cost.Duration(&t.drv)
		}
		if d < 0 {
			if DebugNegativeDurations {
				panic(fmt.Sprintf("hw: event %d on queue slot %d asked to schedule negative duration %v", i, ev.Queue, d))
			}
			t.negClamped++
			d = 0
		}
		// In-order queue: work starts once the queue is free, and never
		// before the host enqueued it.
		start := max(t.avail[ev.Queue], t.host)
		t.at[i] = span{start, start + d}
		t.avail[ev.Queue] = start + d
		t.last[ev.Queue] = int32(i)
	case EvWait:
		if ev.Ref >= 0 && t.at[ev.Ref].end > t.host {
			t.host = t.at[ev.Ref].end
		}
	case EvMark:
		t.at[i] = span{t.host, t.host}
	}
}

// Spend advances the host clock by the cost valued under the run's profile
// (API validation, command recording, driver bookkeeping) and returns the
// new host time. Non-positive valuations leave the clock where it is.
func (t *Timeline) Spend(c Cost) time.Duration {
	t.push(TraceEvent{Kind: EvSpend, Cost: c})
	return t.host
}

// QueueMark returns the index of the latest event scheduled on the queue
// slot, or -1 while the queue is still empty. The index denotes "the work
// this queue has accepted so far": waiting on it drains the queue, and event
// timers snapshot it (cudaEventRecord).
func (t *Timeline) QueueMark(slot uint8) int32 { return t.last[slot] }

// Wait blocks the host until the end of the referenced event (a no-op for
// -1, an empty queue) and returns the host time.
func (t *Timeline) Wait(ref int32) time.Duration {
	t.push(TraceEvent{Kind: EvWait, Ref: ref})
	return t.host
}

// WaitQueue blocks the host until the queue slot's current work drains.
func (t *Timeline) WaitQueue(slot uint8) time.Duration { return t.Wait(t.QueueMark(slot)) }

// Mark appends a host-time sample point and returns its event index.
func (t *Timeline) Mark() int32 { return t.push(TraceEvent{Kind: EvMark}) }

// ReadHostMark observes the absolute host time at mark a.
func (t *Timeline) ReadHostMark(a int32) time.Duration {
	return t.read(Reading{Kind: ReadHostMark, A: a})
}

// ReadMarkDiff observes a stopwatch interval: mark b minus mark a.
func (t *Timeline) ReadMarkDiff(a, b int32) time.Duration {
	return t.read(Reading{Kind: ReadMarkDiff, A: a, B: b})
}

// ReadSpanSum observes the summed occupancy of the given scheduled events
// (e.g. a Vulkan submission's per-dispatch execution times).
func (t *Timeline) ReadSpanSum(refs []int32) time.Duration {
	return t.read(Reading{Kind: ReadSpanSum, Refs: refs})
}

// ReadSpan observes one scheduled event's occupancy (an OpenCL profiling
// event's start-to-end duration).
func (t *Timeline) ReadSpan(ref int32) time.Duration { return t.ReadSpanSum([]int32{ref}) }

// ReadEndDiff observes end(b) - end(a) of two scheduled events (device event
// timers); a or b may be -1 for "queue was empty", i.e. time zero.
func (t *Timeline) ReadEndDiff(a, b int32) time.Duration {
	return t.read(Reading{Kind: ReadEndDiff, A: a, B: b})
}

// read appends a reading with its current value and returns the value.
func (t *Timeline) read(r Reading) time.Duration {
	r.Value = t.value(&r)
	t.readings = append(t.readings, r)
	return r.Value
}

// value evaluates a reading against the timeline's event intervals.
func (t *Timeline) value(r *Reading) time.Duration {
	switch r.Kind {
	case ReadHostMark:
		return t.at[r.A].end
	case ReadMarkDiff:
		return t.at[r.B].end - t.at[r.A].end
	case ReadSpanSum:
		var sum time.Duration
		for _, ref := range r.Refs {
			sum += t.at[ref].end - t.at[ref].start
		}
		return sum
	case ReadEndDiff:
		var a, b time.Duration
		if r.A >= 0 {
			a = t.at[r.A].end
		}
		if r.B >= 0 {
			b = t.at[r.B].end
		}
		return b - a
	}
	return 0
}

// Reading returns the current value of the i-th reading.
func (t *Timeline) Reading(i int) (time.Duration, error) {
	if i < 0 || i >= len(t.readings) {
		return 0, fmt.Errorf("hw: timeline has no reading %d", i)
	}
	r := &t.readings[i]
	if r.Kind > ReadEndDiff {
		return 0, fmt.Errorf("hw: unknown reading kind %d", r.Kind)
	}
	return t.value(r), nil
}

// NegativeClamps reports how many scheduled durations were negative and got
// clamped to zero — a nonzero value flags a timing-model bug upstream.
func (t *Timeline) NegativeClamps() int { return t.negClamped }

// Trace returns the events and readings appended so far.
func (t *Timeline) Trace() *Trace {
	return &Trace{API: t.api, Events: t.events, Readings: t.readings}
}

// Trace is the immutable timing trace of one benchmark run: the event
// sequence plus the readings benchmarks derived from it.
type Trace struct {
	API      API
	Events   []TraceEvent
	Readings []Reading
}

// AddSpanSumReading appends a synthetic span-sum reading (the runner uses it
// to bind a benchmark-side accumulation of several individual span readings,
// e.g. a loop summing OpenCL event durations) and returns its index.
func (t *Trace) AddSpanSumReading(refs []int32, v time.Duration) int {
	t.Readings = append(t.Readings, Reading{Kind: ReadSpanSum, Refs: refs, Value: v})
	return len(t.Readings) - 1
}

// Validate reports whether the trace is safe to replay: every event and
// reading kind is known, queue slots are within bound, kernel events carry a
// program, and every event a wait or a reading refers to exists. A recorded
// trace always passes; a decoder of stored bytes calls it so a corrupt or
// hostile trace fails with an error instead of crashing Replay.
func (t *Trace) Validate() error {
	n := len(t.Events)
	for i := range t.Events {
		ev := &t.Events[i]
		switch {
		case ev.Kind > EvMark:
			return fmt.Errorf("hw: event %d has unknown kind %d", i, ev.Kind)
		case ev.Queue >= maxQueueSlots:
			return fmt.Errorf("hw: event %d uses queue %d beyond the %d-slot bound", i, ev.Queue, maxQueueSlots)
		case ev.Kind == EvKernel && ev.Prog == nil:
			return fmt.Errorf("hw: kernel event %d has no program", i)
		case ev.Kind == EvWait && (ev.Ref < -1 || int(ev.Ref) >= n):
			return fmt.Errorf("hw: wait event %d references event %d of %d", i, ev.Ref, n)
		}
	}
	for i := range t.Readings {
		r := &t.Readings[i]
		if r.Kind > ReadEndDiff {
			return fmt.Errorf("hw: reading %d has unknown kind %d", i, r.Kind)
		}
		if err := validateReadingRefs(r, n); err != nil {
			return fmt.Errorf("hw: reading %d: %w", i, err)
		}
	}
	return nil
}

// validateReadingRefs bounds-checks a reading's event references so Replay
// cannot index out of range. ReadEndDiff allows -1 (time zero, an empty queue
// at record time); the other kinds require real events.
func validateReadingRefs(r *Reading, nEvents int) error {
	inRange := func(ref int32, allowNeg bool) bool {
		if ref == -1 && allowNeg {
			return true
		}
		return ref >= 0 && int(ref) < nEvents
	}
	switch r.Kind {
	case ReadHostMark:
		if !inRange(r.A, false) {
			return fmt.Errorf("host mark references event %d of %d", r.A, nEvents)
		}
	case ReadMarkDiff:
		if !inRange(r.A, false) || !inRange(r.B, false) {
			return fmt.Errorf("mark diff references events %d,%d of %d", r.A, r.B, nEvents)
		}
	case ReadEndDiff:
		if !inRange(r.A, true) || !inRange(r.B, true) {
			return fmt.Errorf("end diff references events %d,%d of %d", r.A, r.B, nEvents)
		}
	case ReadSpanSum:
		for _, ref := range r.Refs {
			if !inRange(ref, false) {
				return fmt.Errorf("span sum references event %d of %d", ref, nEvents)
			}
		}
	}
	return nil
}

// Replay steps a fresh timeline through the trace under the given profile
// and returns it; its Reading values are the trace's readings revalued. It
// is a pure function of (trace, profile): the trace is only read, so it is
// safe to call concurrently on a shared trace. The profile must be
// execution-compatible with the one the trace was recorded under (same
// ExecutionFingerprint); only timing fields — every DriverProfile knob and
// the device-side timing parameters — may differ.
func (t *Trace) Replay(p *Profile) (*Timeline, error) {
	tl, err := newTimeline(p, t.API)
	if err != nil {
		return nil, fmt.Errorf("hw: replay of a %s trace: %w", t.API, err)
	}
	// Full slice expressions: appending to a replayed timeline must copy,
	// never write into the shared trace.
	tl.events = t.Events[:len(t.Events):len(t.Events)]
	tl.readings = t.Readings[:len(t.Readings):len(t.Readings)]
	tl.at = make([]span, len(t.Events))
	for i := range tl.events {
		tl.step(i)
	}
	return tl, nil
}
