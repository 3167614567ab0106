package hw

import (
	"fmt"
	"time"

	"vcomputebench/internal/kernels"
	"vcomputebench/internal/sim"
)

// Device is a simulated GPU: a validated profile, a memory system, and a set
// of queues (execution engines).
type Device struct {
	profile Profile
	mem     *MemorySystem
	queues  map[QueueKind][]*Queue
	// dispatchParallelism caps the host worker goroutines each functional
	// dispatch fans out across (0 = GOMAXPROCS). The suite runner sets it to
	// its per-cell core budget so concurrent benchmark cells do not
	// oversubscribe the machine; counters are identical for any value.
	dispatchParallelism int
	// rec, when non-nil, captures every unit of device work as a symbolic
	// trace event for later replay (see trace.go). Queue methods record
	// through it; nil disables recording at zero cost.
	rec *Recorder
	// faultHook, when non-nil, is consulted before every kernel dispatch; a
	// non-nil return aborts the dispatch with that error, exactly as a driver
	// failure would. The runner installs it to enforce per-cell deadlines and
	// to inject deterministic faults (internal/faults); nil costs nothing.
	faultHook func() error
}

// NewDevice constructs a simulated device from a profile. The device exposes
// two compute queues and one transfer queue, matching the queue-family model
// described in §III-B.
func NewDevice(p Profile) (*Device, error) {
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
		// The trace recorder and replay index per-queue state by slot in
		// fixed-size arrays; failing here keeps a future many-queue profile
		// from panicking deep inside a recorded run instead.
		panic(fmt.Sprintf("hw: device %q exceeds the %d trace queue slots", d.profile.Name, maxQueueSlots))
	}
	q := &Queue{
		dev:    d,
		kind:   kind,
		index:  idx,
		slot:   uint8(slot),
		engine: sim.NewEngine(fmt.Sprintf("%s:%s%d", d.profile.Name, kind, idx)),
	}
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

// SetRecorder attaches a trace recorder: every kernel, transfer and occupy
// scheduled on the device's queues is captured for replay. nil detaches.
func (d *Device) SetRecorder(r *Recorder) { d.rec = r }

// Recorder returns the attached trace recorder (nil when not recording). API
// front ends fetch it once at context/device creation and record host-side
// events (knob-tagged spends, waits, readings) through it.
func (d *Device) Recorder() *Recorder { return d.rec }

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

// Driver returns the driver profile for the API or an error if the API is not
// supported on this device.
func (d *Device) Driver(api API) (DriverProfile, error) {
	drv, ok := d.profile.Driver(api)
	if !ok {
		return DriverProfile{}, fmt.Errorf("hw: device %q does not support %s", d.profile.Name, api)
	}
	return drv, nil
}

// Reset clears all queue occupancy. The benchmark runner uses it between
// repetitions so measurements start from an idle device.
func (d *Device) Reset() {
	for _, qs := range d.queues {
		for _, q := range qs {
			q.engine.Reset()
		}
	}
}

// KernelRun reports the outcome of executing one dispatch on a queue.
type KernelRun struct {
	Program  string
	Start    time.Duration
	End      time.Duration
	Exec     time.Duration
	Counters kernels.Counters
}

// Queue is an in-order execution engine of the device.
type Queue struct {
	dev    *Device
	kind   QueueKind
	index  int
	slot   uint8
	engine *sim.Engine
}

// Kind returns the queue's functionality class.
func (q *Queue) Kind() QueueKind { return q.kind }

// Index returns the queue index within its family.
func (q *Queue) Index() int { return q.index }

// Slot returns the queue's device-wide trace slot (its position in device
// queue-creation order), used to key recorded events and waits.
func (q *Queue) Slot() uint8 { return q.slot }

// Device returns the owning device.
func (q *Queue) Device() *Device { return q.dev }

// AvailableAt reports when the queue becomes idle.
func (q *Queue) AvailableAt() time.Duration { return q.engine.AvailableAt() }

// ExecuteKernel functionally executes the program on the device and schedules
// its simulated duration (plus extra, the symbolic cost of API-layer device
// work such as pipeline binds or barriers) on this queue, starting no earlier
// than earliest. It returns the run record. When a trace recorder is attached
// the dispatch is captured — program, counters and the symbolic extra cost —
// so replay can recompute its duration under any driver profile.
func (q *Queue) ExecuteKernel(earliest time.Duration, api API, prog *kernels.Program,
	cfg kernels.DispatchConfig, extra Cost) (KernelRun, error) {
	if h := q.dev.faultHook; h != nil {
		if err := h(); err != nil {
			return KernelRun{}, err
		}
	}
	if q.kind != QueueCompute && q.kind != QueueGraphics {
		return KernelRun{}, fmt.Errorf("hw: queue %s%d cannot execute compute work", q.kind, q.index)
	}
	drv, err := q.dev.Driver(api)
	if err != nil {
		return KernelRun{}, err
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
		return KernelRun{}, err
	}
	exec := KernelDuration(&q.dev.profile, &drv, prog, counters) + extra.Duration(&drv)
	q.dev.rec.Kernel(q.slot, prog, counters, extra)
	start, end := q.engine.Schedule(prog.Name, earliest, exec)
	return KernelRun{
		Program:  prog.Name,
		Start:    start,
		End:      end,
		Exec:     exec,
		Counters: *counters,
	}, nil
}

// ExecuteTransfer schedules a host<->device copy of n bytes on this queue and
// returns its start and end times.
func (q *Queue) ExecuteTransfer(earliest time.Duration, n int64) (start, end time.Duration) {
	d := TransferDuration(&q.dev.profile, n)
	q.dev.rec.Transfer(q.slot, n)
	return q.engine.Schedule("transfer", earliest, d)
}

// Occupy schedules opaque device-side work (e.g. a barrier's drain time) of
// the given symbolic cost on the queue and returns its start and end times.
func (q *Queue) Occupy(name string, earliest time.Duration, c Cost, api API) (start, end time.Duration) {
	d := c.Fixed
	if drv, ok := q.dev.profile.Driver(api); ok {
		d = c.Duration(&drv)
	}
	q.dev.rec.Occupy(q.slot, c)
	return q.engine.Schedule(name, earliest, d)
}
