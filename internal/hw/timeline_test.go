package hw

import (
	"strings"
	"testing"
	"time"

	"vcomputebench/internal/kernels"
)

// timelineTestProfile returns a profile able to run Vulkan timelines.
func timelineTestProfile() *Profile {
	return &Profile{
		Name: "timeline-test", Class: ClassDesktop,
		ComputeUnits: 8, ALUsPerCU: 64, CoreClockMHz: 1000, WarpSize: 32,
		PeakBandwidthGBps: 100, CacheLineBytes: 64,
		DeviceMemBytes: 1 << 30, HostVisibleMemBytes: 1 << 28,
		TransferGBps:            8,
		MaxWorkgroupInvocations: 1024,
		DispatchLatency:         time.Microsecond, TransferLatency: time.Microsecond,
		Drivers: map[API]DriverProfile{
			APIVulkan: {
				Supported:            true,
				KernelLaunchOverhead: 10 * time.Microsecond, SyncLatency: 5 * time.Microsecond,
				SubmitOverhead: 2 * time.Microsecond, CompilerEfficiency: 0.9, MemoryEfficiency: 0.8,
			},
		},
	}
}

// timelineTestDevice returns a Vulkan run's device on the timeline test
// profile.
func timelineTestDevice(t *testing.T) *Device {
	t.Helper()
	dev, err := NewDevice(*timelineTestProfile(), APIVulkan)
	if err != nil {
		t.Fatal(err)
	}
	return dev
}

func timelineQueue(t *testing.T, dev *Device, index int) *Queue {
	t.Helper()
	q, err := dev.Queue(QueueCompute, index)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

func TestTimelineSchedulesInOrder(t *testing.T) {
	dev := timelineTestDevice(t)
	tl := dev.Timeline()
	q := timelineQueue(t, dev, 0)

	a := q.Occupy(FixedCost(10 * time.Microsecond))
	if got := tl.at[a]; got != (span{0, 10 * time.Microsecond}) {
		t.Fatalf("first span = %v, want [0, 10µs]", got)
	}
	// The queue is busy until 10µs, so work the host enqueues at 5µs cannot
	// jump it; work enqueued at 20µs starts when the host enqueues it.
	tl.Spend(FixedCost(5 * time.Microsecond))
	b := q.Occupy(FixedCost(5 * time.Microsecond))
	if got := tl.at[b]; got != (span{10 * time.Microsecond, 15 * time.Microsecond}) {
		t.Fatalf("second span = %v, want [10µs, 15µs]", got)
	}
	tl.Spend(FixedCost(15 * time.Microsecond))
	c := q.Occupy(FixedCost(time.Microsecond))
	if got := tl.at[c].start; got != 20*time.Microsecond {
		t.Fatalf("third span starts at %v, want 20µs", got)
	}
	if got := tl.QueueMark(q.Slot()); got != c {
		t.Fatalf("QueueMark = %d, want the latest event %d", got, c)
	}
}

func TestTimelineCountsNegativeDurationClamps(t *testing.T) {
	dev := timelineTestDevice(t)
	tl := dev.Timeline()
	q := timelineQueue(t, dev, 0)

	ref := q.Occupy(FixedCost(-time.Microsecond))
	if s := tl.at[ref]; s.start != s.end {
		t.Fatalf("negative duration not clamped to a zero-length span: %v", s)
	}
	if tl.avail[q.Slot()] != 0 {
		t.Fatalf("clamped span advanced the queue: available at %v", tl.avail[q.Slot()])
	}
	if got := tl.NegativeClamps(); got != 1 {
		t.Fatalf("NegativeClamps = %d, want 1", got)
	}
	q.Occupy(FixedCost(time.Microsecond))
	if got := tl.NegativeClamps(); got != 1 {
		t.Fatalf("NegativeClamps after a valid span = %d, want 1", got)
	}
	// Replay steps the same code, so it clamps and counts the same way.
	rp, err := tl.Trace().Replay(dev.Profile())
	if err != nil {
		t.Fatal(err)
	}
	if got := rp.NegativeClamps(); got != 1 {
		t.Fatalf("replayed NegativeClamps = %d, want 1", got)
	}
}

func TestTimelineNegativeDurationPanicsInDebugMode(t *testing.T) {
	DebugNegativeDurations = true
	defer func() { DebugNegativeDurations = false }()
	dev := timelineTestDevice(t)
	q := timelineQueue(t, dev, 0)
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("negative duration did not panic under DebugNegativeDurations")
		}
		msg, ok := r.(string)
		if !ok || !strings.Contains(msg, "negative duration") {
			t.Fatalf("unexpected panic payload: %v", r)
		}
	}()
	q.Occupy(FixedCost(-time.Nanosecond))
}

// TestTimelineReplayMatchesLiveValues drives a hand-built run through every
// event and reading kind and checks that each value the live timeline
// returned is the value replay recomputes under the same profile.
func TestTimelineReplayMatchesLiveValues(t *testing.T) {
	dev := timelineTestDevice(t)
	tl := dev.Timeline()
	q0, q1 := timelineQueue(t, dev, 0), timelineQueue(t, dev, 1)
	prog := &kernels.Program{
		Name:      "timeline_test",
		LocalSize: kernels.D1(64),
		Bindings:  1,
		Fn: func(wg *kernels.Workgroup) {
			b := wg.Buffer(0)
			wg.ForEach(func(inv *kernels.Invocation) {
				b.StoreF32(inv, inv.GlobalX(), float32(inv.GlobalX()))
			})
		},
	}
	buf := make(kernels.Words, 16*64)
	kernel := func(q *Queue, extra Cost) int32 {
		ref, err := q.ExecuteKernel(prog, kernels.DispatchConfig{Groups: kernels.D1(16), Buffers: []kernels.Words{buf}}, extra)
		if err != nil {
			t.Fatal(err)
		}
		return ref
	}

	var start, k0, k1, x, o int32
	steps := []struct {
		name string
		// do performs the step and returns the value the live timeline
		// returned; reading reports whether the step appended a reading.
		do      func() time.Duration
		reading bool
	}{
		{"zero spend", func() time.Duration { return tl.Spend(Cost{}) }, false},
		{"negative spend", func() time.Duration { return tl.Spend(FixedCost(-time.Microsecond)) }, false},
		{"knob spend", func() time.Duration { return tl.Spend(KnobCostN(KnobKernelLaunch, 2)) }, false},
		{"wait on nothing", func() time.Duration { return tl.Wait(-1) }, false},
		{"stopwatch start", func() time.Duration { start = tl.Mark(); return 0 }, false},
		{"end diff before any work", func() time.Duration { return tl.ReadEndDiff(-1, tl.QueueMark(q0.Slot())) }, true},
		{"kernel on queue 0", func() time.Duration { k0 = kernel(q0, KnobCost(KnobPipelineBind)); return 0 }, false},
		{"transfer on queue 1", func() time.Duration { x = q1.ExecuteTransfer(1 << 20); return 0 }, false},
		{"occupy on queue 1", func() time.Duration { o = q1.Occupy(KnobCost(KnobBarrier).Plus(FixedCost(time.Microsecond))); return 0 }, false},
		{"kernel on queue 1", func() time.Duration { k1 = kernel(q1, Cost{}); return 0 }, false},
		{"span of the transfer", func() time.Duration { return tl.ReadSpan(x) }, true},
		{"span sum of both kernels", func() time.Duration { return tl.ReadSpanSum([]int32{k0, k1}) }, true},
		{"wait for queue 1", func() time.Duration { return tl.WaitQueue(q1.Slot()) }, false},
		{"sync spend", func() time.Duration { return tl.Spend(KnobCost(KnobSync)) }, false},
		{"end diff across queues", func() time.Duration { return tl.ReadEndDiff(k0, tl.QueueMark(q1.Slot())) }, true},
		{"end diff of the occupy", func() time.Duration { return tl.ReadEndDiff(x, o) }, true},
		{"stopwatch interval", func() time.Duration { return tl.ReadMarkDiff(start, tl.Mark()) }, true},
		{"host time", func() time.Duration { return tl.ReadHostMark(tl.Mark()) }, true},
	}
	var live []time.Duration
	var names []string
	returned := make(map[string]time.Duration)
	for _, s := range steps {
		v := s.do()
		returned[s.name] = v
		if s.reading {
			live = append(live, v)
			names = append(names, s.name)
		}
	}
	// Non-positive spends and a wait on nothing leave the host clock alone.
	if returned["zero spend"] != 0 || returned["negative spend"] != 0 ||
		returned["wait on nothing"] != returned["knob spend"] {
		t.Fatalf("host clock moved on a non-positive spend or an empty wait: %v", returned)
	}
	if live[len(live)-2] <= 0 || live[len(live)-1] <= live[len(live)-2] {
		t.Fatalf("implausible stopwatch/host readings %v", live)
	}

	tr := tl.Trace()
	if len(tr.Readings) != len(live) {
		t.Fatalf("timeline holds %d readings, the run returned %d", len(tr.Readings), len(live))
	}
	rp, err := tr.Replay(dev.Profile())
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range live {
		got, err := rp.Reading(i)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("%s: replayed %v, live run returned %v", names[i], got, want)
		}
		if tr.Readings[i].Value != want {
			t.Errorf("%s: recorded value %v, live run returned %v", names[i], tr.Readings[i].Value, want)
		}
	}
	if _, err := rp.Reading(len(live)); err == nil {
		t.Fatal("reading past the end did not fail")
	}
}

// TestTraceValidate: a well-formed trace validates and replays; each kind of
// malformation a stored trace could carry is rejected before Replay can
// index out of range or dereference a missing program.
func TestTraceValidate(t *testing.T) {
	prog := &kernels.Program{Name: "k", LocalSize: kernels.Dim3{X: 64, Y: 1, Z: 1}, Fn: func(*kernels.Workgroup) {}}
	valid := func() *Trace {
		return &Trace{
			API: APIVulkan,
			Events: []TraceEvent{
				{Kind: EvMark},
				{Kind: EvKernel, Queue: 1, Prog: prog, Counters: kernels.Counters{Invocations: 64, Workgroups: 1}},
				{Kind: EvWait, Ref: 1},
				{Kind: EvMark},
			},
			Readings: []Reading{
				{Kind: ReadHostMark, A: 3},
				{Kind: ReadMarkDiff, A: 0, B: 3},
				{Kind: ReadSpanSum, Refs: []int32{1}},
				{Kind: ReadEndDiff, A: -1, B: 1},
			},
		}
	}
	if err := valid().Validate(); err != nil {
		t.Fatalf("well-formed trace rejected: %v", err)
	}
	if _, err := valid().Replay(timelineTestProfile()); err != nil {
		t.Fatal(err)
	}
	for name, mutate := range map[string]func(*Trace){
		"event kind":    func(tr *Trace) { tr.Events[0].Kind = EvMark + 1 },
		"queue slot":    func(tr *Trace) { tr.Events[1].Queue = maxQueueSlots },
		"nil program":   func(tr *Trace) { tr.Events[1].Prog = nil },
		"wait ref":      func(tr *Trace) { tr.Events[2].Ref = 4 },
		"negative wait": func(tr *Trace) { tr.Events[2].Ref = -2 },
		"reading kind":  func(tr *Trace) { tr.Readings[0].Kind = ReadEndDiff + 1 },
		"host mark ref": func(tr *Trace) { tr.Readings[0].A = -1 },
		"mark diff ref": func(tr *Trace) { tr.Readings[1].B = 4 },
		"span sum ref":  func(tr *Trace) { tr.Readings[2].Refs = []int32{1, 9} },
		"end diff ref":  func(tr *Trace) { tr.Readings[3].A = -2 },
	} {
		tr := valid()
		mutate(tr)
		if err := tr.Validate(); err == nil {
			t.Errorf("%s: malformed trace validated", name)
		}
	}
}
