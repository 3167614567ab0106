// Package cuda implements a CUDA-runtime-style API on top of the simulated
// GPU in internal/hw. It is the first baseline the paper compares Vulkan
// against: device memory management is a single call (cudaMalloc), kernels are
// launched one call at a time, and every launch pays the driver's kernel
// launch overhead — the cost that dominates iterative Rodinia workloads and
// that Vulkan's single-command-buffer recording avoids (§IV-C, §V-A2).
//
// Kernels are "compiled offline": a Module resolves entry points directly from
// the kernels registry, mirroring how cubin/PTX images ship with CUDA
// binaries, so no JIT cost is charged at run time.
package cuda

import (
	"errors"
	"fmt"
	"time"

	"vcomputebench/internal/hw"
	"vcomputebench/internal/kernels"
)

// Errors mirroring cudaError_t values.
var (
	ErrNoDevice              = errors.New("cuda: no CUDA-capable device is detected")
	ErrMemoryAllocation      = errors.New("cuda: out of memory")
	ErrInvalidValue          = errors.New("cuda: invalid value")
	ErrInvalidDevicePointer  = errors.New("cuda: invalid device pointer")
	ErrInvalidConfiguration  = errors.New("cuda: invalid configuration argument")
	ErrLaunchFailure         = errors.New("cuda: unspecified launch failure")
	ErrInvalidDeviceFunction = errors.New("cuda: invalid device function")
)

const hostCallOverhead = 150 * time.Nanosecond

// hostCall is the timeline cost of a cheap runtime call.
var hostCall = hw.FixedCost(hostCallOverhead)

// Context is the per-device runtime state (the implicit primary context of the
// CUDA runtime API).
type Context struct {
	dev *hw.Device
	tl  *hw.Timeline
	def *Stream
}

// NewContext initialises the CUDA runtime on the device (cudaSetDevice plus
// lazy context creation). It fails unless the device's run goes through the
// CUDA driver, which only the NVIDIA platforms of the paper ship.
func NewContext(dev *hw.Device) (*Context, error) {
	if dev == nil {
		return nil, ErrInvalidValue
	}
	if dev.API() != hw.APICUDA {
		return nil, fmt.Errorf("%w: %s", ErrNoDevice, dev.Profile().Name)
	}
	ctx := &Context{dev: dev, tl: dev.Timeline()}
	hq, err := dev.Queue(hw.QueueCompute, 0)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrNoDevice, err)
	}
	ctx.def = &Stream{ctx: ctx, hw: hq}
	ctx.tl.Spend(hw.FixedCost(30 * time.Microsecond))
	return ctx, nil
}

// Device returns the underlying simulated device.
func (c *Context) Device() *hw.Device { return c.dev }

// DevicePtr is device memory allocated with Malloc (the device pointer of
// cudaMalloc).
type DevicePtr struct {
	ctx   *Context
	alloc *hw.Allocation
	size  int64
}

// Size returns the allocation size in bytes.
func (p *DevicePtr) Size() int64 { return p.size }

// Words exposes the backing words; the kernels access device memory through
// this at launch time.
func (p *DevicePtr) Words() kernels.Words { return p.alloc.Words() }

// Malloc allocates device memory. In contrast to the ~40 lines of Vulkan code
// needed for the same result (§VI-A), this is a single call.
func (c *Context) Malloc(size int64) (*DevicePtr, error) {
	if size <= 0 {
		return nil, ErrInvalidValue
	}
	c.tl.Spend(hw.KnobCost(hw.KnobAlloc))
	alloc, err := c.dev.Memory().Allocate(hw.HeapDeviceLocal, size)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrMemoryAllocation, err)
	}
	return &DevicePtr{ctx: c, alloc: alloc, size: size}, nil
}

// Free releases device memory.
func (c *Context) Free(p *DevicePtr) error {
	if p == nil {
		return ErrInvalidDevicePointer
	}
	c.tl.Spend(hostCall)
	return c.dev.Memory().Free(p.alloc)
}

// MemcpyHtoD copies host words to device memory (synchronous, like the default
// cudaMemcpy).
func (c *Context) MemcpyHtoD(dst *DevicePtr, src kernels.Words) error {
	if dst == nil {
		return ErrInvalidDevicePointer
	}
	if len(src) > len(dst.alloc.Words()) {
		return fmt.Errorf("%w: copy of %d words into allocation of %d words", ErrInvalidValue, len(src), len(dst.alloc.Words()))
	}
	c.tl.Spend(hostCall)
	copy(dst.alloc.Words(), src)
	c.tl.Wait(c.def.hw.ExecuteTransfer(int64(len(src)) * 4))
	return nil
}

// MemcpyDtoH copies device memory to host words (synchronous).
func (c *Context) MemcpyDtoH(dst kernels.Words, src *DevicePtr) error {
	if src == nil {
		return ErrInvalidDevicePointer
	}
	c.tl.Spend(hostCall)
	copy(dst, src.alloc.Words())
	c.tl.Wait(c.def.hw.ExecuteTransfer(int64(len(dst)) * 4))
	return nil
}

// Module is a collection of compiled kernels (the equivalent of a cubin linked
// into the executable).
type Module struct {
	ctx *Context
}

// LoadModule returns the module of kernels linked into the application.
func (c *Context) LoadModule() *Module {
	c.tl.Spend(hw.FixedCost(40 * time.Microsecond))
	return &Module{ctx: c}
}

// Kernel is a device function handle.
type Kernel struct {
	ctx  *Context
	prog *kernels.Program
}

// GetKernel resolves a __global__ function by name.
func (m *Module) GetKernel(name string) (*Kernel, error) {
	m.ctx.tl.Spend(hostCall)
	prog, err := kernels.Lookup(name)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrInvalidDeviceFunction, err)
	}
	return &Kernel{ctx: m.ctx, prog: prog}, nil
}

// Program exposes the resolved kernel program (used by tests).
func (k *Kernel) Program() *kernels.Program { return k.prog }

// Args carries the kernel arguments of one launch: device pointers in binding
// order followed by 32-bit scalar values.
type Args struct {
	Buffers []*DevicePtr
	Values  kernels.Words
}

// Stream is an in-order execution stream.
type Stream struct {
	ctx *Context
	hw  *hw.Queue
}

// DefaultStream returns the legacy default stream.
func (c *Context) DefaultStream() *Stream { return c.def }

// Launch launches the kernel with the given grid of thread blocks
// (kernel<<<grid, block>>> where block is fixed by the kernel's declaration).
// Control returns to the host as soon as the launch is enqueued; every call
// pays the driver's kernel launch overhead.
func (s *Stream) Launch(k *Kernel, grid kernels.Dim3, block kernels.Dim3, args Args) error {
	if k == nil {
		return ErrInvalidDeviceFunction
	}
	if !grid.Valid() {
		return fmt.Errorf("%w: grid %v", ErrInvalidConfiguration, grid)
	}
	if block != (kernels.Dim3{}) && block != k.prog.LocalSize {
		return fmt.Errorf("%w: block %v does not match kernel %q block %v",
			ErrInvalidConfiguration, block, k.prog.Name, k.prog.LocalSize)
	}
	if len(args.Buffers) < k.prog.Bindings {
		return fmt.Errorf("%w: kernel %q expects %d buffer arguments, got %d",
			ErrInvalidValue, k.prog.Name, k.prog.Bindings, len(args.Buffers))
	}
	buffers := make([]kernels.Words, len(args.Buffers))
	for i, b := range args.Buffers {
		if b == nil {
			return fmt.Errorf("%w: buffer argument %d is nil", ErrInvalidDevicePointer, i)
		}
		buffers[i] = b.alloc.Words()
	}
	s.ctx.tl.Spend(hw.KnobCost(hw.KnobKernelLaunch))
	cfg := kernels.DispatchConfig{Groups: grid, Buffers: buffers, Push: args.Values}
	_, err := s.hw.ExecuteKernel(k.prog, cfg, hw.KnobCost(hw.KnobPipelineBind))
	if err != nil {
		// %w on the cause as well: fault classification must survive the
		// API-level error translation.
		return fmt.Errorf("%w: %w", ErrLaunchFailure, err)
	}
	return nil
}

// Synchronize blocks the host until the stream drains (cudaStreamSynchronize).
// Beyond waiting for the device it pays the driver's synchronisation latency
// (interrupt delivery, thread wake-up), which the multi-kernel method incurs
// once per iteration.
func (s *Stream) Synchronize() {
	s.ctx.tl.Spend(hostCall)
	s.ctx.tl.WaitQueue(s.hw.Slot())
	s.ctx.tl.Spend(hw.KnobCost(hw.KnobSync))
}

// Event marks a point in a stream, usable for device-side timing
// (cudaEventElapsedTime).
type Event struct {
	ctx  *Context
	mark int32
	set  bool
}

// EventCreate creates an event.
func (c *Context) EventCreate() *Event {
	c.tl.Spend(hostCall)
	return &Event{ctx: c}
}

// Record records the event at the current end of the stream.
func (e *Event) Record(s *Stream) {
	e.ctx.tl.Spend(hostCall)
	e.mark = e.ctx.tl.QueueMark(s.hw.Slot())
	e.set = true
}

// Elapsed returns the device time between two recorded events.
func (e *Event) Elapsed(since *Event) (time.Duration, error) {
	if !e.set || !since.set {
		return 0, fmt.Errorf("%w: elapsed time of unrecorded events", ErrInvalidValue)
	}
	return e.ctx.tl.ReadEndDiff(since.mark, e.mark), nil
}
