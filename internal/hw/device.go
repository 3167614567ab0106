package hw

import (
	"fmt"

	"vcomputebench/internal/kernels"
)

// Device is a simulated GPU serving one benchmark run: a validated profile,
// a memory system, a set of in-order queues, and the run's Timeline, whose
// host clock and queue availability every API front end steps.
type Device struct {
	profile Profile
	mem     *MemorySystem
	queues  map[QueueKind][]*Queue
	// dispatchParallelism caps the host worker goroutines each functional
	// dispatch fans out across (0 = GOMAXPROCS). The suite runner sets it to
	// its per-cell core budget so concurrent benchmark cells do not
	// oversubscribe the machine; counters are identical for any value.
	dispatchParallelism int
	// tl is the run's simulated clock (see trace.go): queue methods schedule
	// on it, and the API front ends spend host time and wait through it.
	tl *Timeline
	// faultHook, when non-nil, is consulted before every kernel dispatch; a
	// non-nil return aborts the dispatch with that error, exactly as a driver
	// failure would. The runner installs it to enforce per-cell deadlines and
	// to inject deterministic faults (internal/faults); nil costs nothing.
	faultHook func() error
}

// NewDevice constructs a simulated device from a profile for one run through
// the given API, whose driver profile values every cost on the device's
// timeline. The device exposes two compute queues and one transfer queue,
// matching the queue-family model described in §III-B.
func NewDevice(p Profile, api API) (*Device, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	hostVisible := p.HostVisibleMemBytes
	if hostVisible <= 0 {
		hostVisible = p.DeviceMemBytes
	}
	d := &Device{
		profile: p,
		mem:     NewMemorySystem(p.DeviceMemBytes, hostVisible),
		queues:  make(map[QueueKind][]*Queue),
	}
	tl, err := newTimeline(&d.profile, api)
	if err != nil {
		return nil, err
	}
	d.tl = tl
	d.addQueue(QueueCompute)
	d.addQueue(QueueCompute)
	d.addQueue(QueueTransfer)
	return d, nil
}

func (d *Device) addQueue(kind QueueKind) *Queue {
	idx := len(d.queues[kind])
	slot := 0
	for _, qs := range d.queues {
		slot += len(qs)
	}
	if slot >= maxQueueSlots {
		// The timeline indexes per-queue state by slot in fixed-size arrays;
		// failing here keeps a future many-queue profile from panicking deep
		// inside a run instead.
		panic(fmt.Sprintf("hw: device %q exceeds the %d trace queue slots", d.profile.Name, maxQueueSlots))
	}
	q := &Queue{dev: d, kind: kind, index: idx, slot: uint8(slot)}
	d.queues[kind] = append(d.queues[kind], q)
	return q
}

// Profile returns the device's hardware profile.
func (d *Device) Profile() *Profile { return &d.profile }

// SetDispatchParallelism sets the per-dispatch worker budget forwarded to
// kernels.DispatchConfig.Parallelism (0 restores the GOMAXPROCS default).
func (d *Device) SetDispatchParallelism(n int) {
	if n < 0 {
		n = 0
	}
	d.dispatchParallelism = n
}

// DispatchParallelism returns the per-dispatch worker budget (0 = GOMAXPROCS).
func (d *Device) DispatchParallelism() int { return d.dispatchParallelism }

// Timeline returns the run's simulated clock. API front ends fetch it once
// at context/device creation and spend, wait and read through it.
func (d *Device) Timeline() *Timeline { return d.tl }

// API returns the API the device's run goes through.
func (d *Device) API() API { return d.tl.api }

// Driver returns the driver profile of the run's API.
func (d *Device) Driver() DriverProfile { return d.tl.drv }

// SetFaultHook installs (or, with nil, removes) the pre-dispatch hook every
// ExecuteKernel consults. The hook runs on the dispatching goroutine before
// any functional work; returning an error fails the dispatch through the same
// path a real driver error takes, so all API front ends propagate it.
func (d *Device) SetFaultHook(h func() error) { d.faultHook = h }

// Memory returns the device's memory system.
func (d *Device) Memory() *MemorySystem { return d.mem }

// QueueCount reports how many queues of the given kind the device exposes.
func (d *Device) QueueCount(kind QueueKind) int { return len(d.queues[kind]) }

// Queue returns the index-th queue of the given kind.
func (d *Device) Queue(kind QueueKind, index int) (*Queue, error) {
	qs := d.queues[kind]
	if index < 0 || index >= len(qs) {
		return nil, fmt.Errorf("hw: device %q has no %s queue %d", d.profile.Name, kind, index)
	}
	return qs[index], nil
}

// Queue is an in-order execution engine of the device.
type Queue struct {
	dev   *Device
	kind  QueueKind
	index int
	slot  uint8
}

// Kind returns the queue's functionality class.
func (q *Queue) Kind() QueueKind { return q.kind }

// Index returns the queue index within its family.
func (q *Queue) Index() int { return q.index }

// Slot returns the queue's device-wide timeline slot (its position in device
// queue-creation order), used to key scheduled events and waits.
func (q *Queue) Slot() uint8 { return q.slot }

// Device returns the owning device.
func (q *Queue) Device() *Device { return q.dev }

// ExecuteKernel functionally executes the program on the device and schedules
// its simulated duration (plus extra, the symbolic cost of API-layer device
// work such as pipeline binds or barriers) on this queue, starting no earlier
// than the host's current time. It returns the event's timeline index; the
// event keeps the program, counters and extra cost, so replay can recompute
// its duration under any driver profile.
func (q *Queue) ExecuteKernel(prog *kernels.Program, cfg kernels.DispatchConfig, extra Cost) (int32, error) {
	if h := q.dev.faultHook; h != nil {
		if err := h(); err != nil {
			return -1, err
		}
	}
	if q.kind != QueueCompute && q.kind != QueueGraphics {
		return -1, fmt.Errorf("hw: queue %s%d cannot execute compute work", q.kind, q.index)
	}
	if cfg.WarpSize == 0 {
		cfg.WarpSize = q.dev.profile.WarpSize
	}
	if cfg.CacheLineBytes == 0 {
		cfg.CacheLineBytes = q.dev.profile.CacheLineBytes
	}
	if cfg.Parallelism == 0 {
		// Apply the suite runner's per-cell core budget (like the WarpSize /
		// CacheLineBytes profile defaults, every API front end funnels
		// through here).
		cfg.Parallelism = q.dev.dispatchParallelism
	}
	counters, err := kernels.Execute(prog, cfg)
	if err != nil {
		return -1, err
	}
	return q.dev.tl.push(TraceEvent{Kind: EvKernel, Queue: q.slot, Prog: prog, Counters: *counters, Cost: extra}), nil
}

// ExecuteTransfer schedules a host<->device copy of n bytes on this queue and
// returns the event's timeline index.
func (q *Queue) ExecuteTransfer(n int64) int32 {
	return q.dev.tl.push(TraceEvent{Kind: EvTransfer, Queue: q.slot, Bytes: n})
}

// Occupy schedules opaque device-side work (e.g. a barrier's drain time) of
// the given symbolic cost on the queue and returns the event's timeline index.
func (q *Queue) Occupy(c Cost) int32 {
	return q.dev.tl.push(TraceEvent{Kind: EvOccupy, Queue: q.slot, Cost: c})
}
