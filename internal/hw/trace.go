package hw

import (
	"fmt"
	"time"
	"unsafe"

	"vcomputebench/internal/kernels"
)

// This file is the execute/replay seam of the simulator: while a benchmark
// runs, a Recorder captures every host-clock advance and every unit of device
// work as a symbolic TraceEvent whose duration is a *function of the driver
// profile*, not a number. Replaying the trace under any DriverProfile then
// reproduces the run's timeline bit-identically to a fresh execution — without
// re-executing a single workgroup. The expensive part of a measurement
// (functional kernel execution producing kernels.Counters) is invariant under
// every timing knob, so a recorded trace turns a calibration sweep of E
// candidate profiles from E executions into 1 execution + E analytic replays.
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
// order (knobFields). The order is the trace codec's wire order.
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
// knobs. Valuation multiplies each count by the knob's current profile value,
// exactly mirroring how the API layers compute the same durations inline
// (e.g. time.Duration(n) * drv.JITCompileTime).
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
	// EvSpend advances the host clock by Cost (clamped at zero, like
	// sim.Host.Spend ignores non-positive durations).
	EvSpend EventKind = iota
	// EvKernel schedules KernelDuration(prog, counters) + Cost on a queue.
	EvKernel
	// EvTransfer schedules TransferDuration(bytes) on a queue.
	EvTransfer
	// EvOccupy schedules Cost on a queue (clamped at zero, like
	// sim.Engine.Schedule clamps negative durations).
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

// Recorder captures the trace of one benchmark run. All methods are safe on a
// nil receiver (no-ops), so instrumented code paths need no conditionals. A
// Recorder is not safe for concurrent use; a benchmark run's host code is
// single-threaded, which is what it records.
type Recorder struct {
	api         API
	events      []TraceEvent
	readings    []Reading
	lastByQueue [maxQueueSlots]int32
	next        Cost // pending symbolic tag for the next HostSpend
	nextSet     bool
}

// maxQueueSlots bounds the number of device queues a trace distinguishes
// (devices expose 3; slots beyond the bound would be a programming error).
const maxQueueSlots = 8

// NewRecorder returns an empty recorder for a run using the given API.
func NewRecorder(api API) *Recorder {
	r := &Recorder{api: api}
	for i := range r.lastByQueue {
		r.lastByQueue[i] = -1
	}
	return r
}

// NextSpend tags the next host Spend with a symbolic cost. API layers call it
// immediately before a host.Spend whose duration is a driver-knob valuation;
// untagged spends are recorded as fixed costs by HostSpend.
func (r *Recorder) NextSpend(c Cost) {
	if r == nil {
		return
	}
	r.next = c
	r.nextSet = true
}

// HostSpend implements sim.TraceSink: every host-clock advance lands here.
func (r *Recorder) HostSpend(d time.Duration) {
	if r == nil {
		return
	}
	c := FixedCost(d)
	if r.nextSet {
		c = r.next
		r.nextSet = false
	}
	r.events = append(r.events, TraceEvent{Kind: EvSpend, Cost: c})
}

// schedule appends a queue event and tracks it as the queue's latest.
func (r *Recorder) schedule(ev TraceEvent) int32 {
	idx := int32(len(r.events))
	r.events = append(r.events, ev)
	r.lastByQueue[ev.Queue] = idx
	return idx
}

// Kernel records one dispatch: program, counters and the API layer's extra
// device-time cost.
func (r *Recorder) Kernel(queue uint8, prog *kernels.Program, counters *kernels.Counters, extra Cost) {
	if r == nil {
		return
	}
	r.schedule(TraceEvent{Kind: EvKernel, Queue: queue, Prog: prog, Counters: *counters, Cost: extra})
}

// Transfer records one host<->device copy.
func (r *Recorder) Transfer(queue uint8, bytes int64) {
	if r == nil {
		return
	}
	r.schedule(TraceEvent{Kind: EvTransfer, Queue: queue, Bytes: bytes})
}

// Occupy records opaque device-side work of symbolic duration.
func (r *Recorder) Occupy(queue uint8, c Cost) {
	if r == nil {
		return
	}
	r.schedule(TraceEvent{Kind: EvOccupy, Queue: queue, Cost: c})
}

// QueueMark returns the index of the latest event scheduled on the queue, or
// -1 when the queue is still empty. The index denotes "the work this queue
// has accepted so far": waiting on it reproduces AvailableAt()-based
// synchronisation, and event timers snapshot it (cudaEventRecord).
func (r *Recorder) QueueMark(queue uint8) int32 {
	if r == nil {
		return -1
	}
	return r.lastByQueue[queue]
}

// Wait records a host wait until the end of the referenced event.
func (r *Recorder) Wait(ref int32) {
	if r == nil {
		return
	}
	r.events = append(r.events, TraceEvent{Kind: EvWait, Ref: ref})
}

// WaitQueue records a host wait until the queue's current work drains.
func (r *Recorder) WaitQueue(queue uint8) {
	if r == nil {
		return
	}
	r.Wait(r.QueueMark(queue))
}

// Mark appends a host-time sample point and returns its event index, or -1 on
// a nil recorder.
func (r *Recorder) Mark() int32 {
	if r == nil {
		return -1
	}
	idx := int32(len(r.events))
	r.events = append(r.events, TraceEvent{Kind: EvMark})
	return idx
}

// ReadHostMark records an absolute host-time observation at mark a.
func (r *Recorder) ReadHostMark(a int32, v time.Duration) {
	if r == nil {
		return
	}
	r.readings = append(r.readings, Reading{Kind: ReadHostMark, A: a, Value: v})
}

// ReadMarkDiff records a stopwatch observation between marks a and b.
func (r *Recorder) ReadMarkDiff(a, b int32, v time.Duration) {
	if r == nil {
		return
	}
	r.readings = append(r.readings, Reading{Kind: ReadMarkDiff, A: a, B: b, Value: v})
}

// ReadSpanSum records an observation of the summed occupancy of the given
// scheduled events (e.g. a Vulkan submission's per-dispatch execution times).
func (r *Recorder) ReadSpanSum(refs []int32, v time.Duration) {
	if r == nil {
		return
	}
	r.readings = append(r.readings, Reading{Kind: ReadSpanSum, Refs: refs, Value: v})
}

// ReadSpan records an observation of one scheduled event's occupancy (an
// OpenCL profiling event's start-to-end duration).
func (r *Recorder) ReadSpan(ref int32, v time.Duration) {
	if r == nil {
		return
	}
	r.ReadSpanSum([]int32{ref}, v)
}

// ReadEndDiff records an observation of end(b) - end(a) (device event
// timers); a or b may be -1 for "queue was empty", i.e. time zero.
func (r *Recorder) ReadEndDiff(a, b int32, v time.Duration) {
	if r == nil {
		return
	}
	r.readings = append(r.readings, Reading{Kind: ReadEndDiff, A: a, B: b, Value: v})
}

// Trace returns the recorded trace. The recorder must not be used afterwards.
func (r *Recorder) Trace() *Trace {
	if r == nil {
		return nil
	}
	return &Trace{API: r.api, Events: r.events, Readings: r.readings}
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

// Replayed is the outcome of replaying a trace under a profile: the replayed
// timeline, exposed through the quantities readings need.
type Replayed struct {
	trace *Trace
	// start/end are per-event schedule times (zero for non-schedule events);
	// marks are host-time samples at EvMark events.
	start, end []time.Duration
	marks      []time.Duration
	final      time.Duration
}

// Replay recomputes the trace's timeline under the given profile. It is a
// pure function of (trace, profile): no device or host state is touched, so
// it is safe to call concurrently on a shared trace. The profile must be
// execution-compatible with the one the trace was recorded under (same
// ExecutionFingerprint); only timing fields — every DriverProfile knob and
// the device-side timing parameters — may differ.
func (t *Trace) Replay(p *Profile) (*Replayed, error) {
	drv, ok := p.Driver(t.API)
	if !ok {
		return nil, fmt.Errorf("hw: replay of a %s trace on a profile without a %s driver", t.API, t.API)
	}
	rp := &Replayed{
		trace: t,
		start: make([]time.Duration, len(t.Events)),
		end:   make([]time.Duration, len(t.Events)),
		marks: make([]time.Duration, len(t.Events)),
	}
	var host time.Duration
	var avail [maxQueueSlots]time.Duration
	for i := range t.Events {
		ev := &t.Events[i]
		switch ev.Kind {
		case EvSpend:
			// sim.Host.Spend ignores non-positive durations.
			if d := ev.Cost.Duration(&drv); d > 0 {
				host += d
			}
		case EvKernel, EvTransfer, EvOccupy:
			var d time.Duration
			switch ev.Kind {
			case EvKernel:
				d = KernelDuration(p, &drv, ev.Prog, &ev.Counters) + ev.Cost.Duration(&drv)
			case EvTransfer:
				d = TransferDuration(p, ev.Bytes)
			case EvOccupy:
				d = ev.Cost.Duration(&drv)
			}
			if d < 0 {
				d = 0 // sim.Engine.Schedule clamps negative durations
			}
			start := avail[ev.Queue]
			if host > start {
				start = host // every schedule site passes host.Now() as earliest
			}
			rp.start[i] = start
			rp.end[i] = start + d
			avail[ev.Queue] = rp.end[i]
		case EvWait:
			if ev.Ref >= 0 && rp.end[ev.Ref] > host {
				host = rp.end[ev.Ref]
			}
		case EvMark:
			rp.marks[i] = host
		}
	}
	rp.final = host
	return rp, nil
}

// Reading returns the replayed value of the i-th trace reading.
func (rp *Replayed) Reading(i int) (time.Duration, error) {
	if i < 0 || i >= len(rp.trace.Readings) {
		return 0, fmt.Errorf("hw: replay has no reading %d", i)
	}
	r := &rp.trace.Readings[i]
	switch r.Kind {
	case ReadHostMark:
		return rp.marks[r.A], nil
	case ReadMarkDiff:
		return rp.marks[r.B] - rp.marks[r.A], nil
	case ReadSpanSum:
		var sum time.Duration
		for _, ref := range r.Refs {
			sum += rp.end[ref] - rp.start[ref]
		}
		return sum, nil
	case ReadEndDiff:
		var a, b time.Duration
		if r.A >= 0 {
			a = rp.end[r.A]
		}
		if r.B >= 0 {
			b = rp.end[r.B]
		}
		return b - a, nil
	default:
		return 0, fmt.Errorf("hw: unknown reading kind %d", r.Kind)
	}
}
