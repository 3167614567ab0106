// Package hw models the GPU hardware and driver stack that VComputeBench
// executes on: device profiles (compute units, clocks, memory system), per-API
// driver profiles (launch overheads, compiler maturity), memory heaps, queues
// and the analytical timing model that converts kernel execution counters into
// simulated time.
//
// The paper evaluates on real GPUs; this package is the documented substitute.
// The quantities it models — kernel launch and queue submission overheads,
// memory-coalescing efficiency, compiler maturity, peak bandwidth and FLOP
// throughput — are exactly the quantities the paper uses to explain its
// results, so the qualitative shape of every figure is preserved.
package hw

import (
	"fmt"
	"time"
)

// API identifies a GPGPU programming model front end.
type API string

// The three programming models compared by the paper.
const (
	APIVulkan API = "vulkan"
	APICUDA   API = "cuda"
	APIOpenCL API = "opencl"
)

// AllAPIs lists every front end in a stable order.
func AllAPIs() []API { return []API{APIOpenCL, APIVulkan, APICUDA} }

// Valid reports whether the API value is one of the known front ends.
func (a API) Valid() bool {
	switch a {
	case APIVulkan, APICUDA, APIOpenCL:
		return true
	}
	return false
}

// String returns the human-readable name used in reports ("Vulkan", "CUDA",
// "OpenCL").
func (a API) String() string {
	switch a {
	case APIVulkan:
		return "Vulkan"
	case APICUDA:
		return "CUDA"
	case APIOpenCL:
		return "OpenCL"
	default:
		return string(a)
	}
}

// Class distinguishes desktop from mobile/embedded GPUs.
type Class string

// Device classes.
const (
	ClassDesktop Class = "desktop"
	ClassMobile  Class = "mobile"
)

// QueueKind identifies the functionality of a device queue family, following
// the Vulkan queue family model (§III-B of the paper).
type QueueKind string

// Queue kinds exposed by simulated devices.
const (
	QueueCompute  QueueKind = "compute"
	QueueTransfer QueueKind = "transfer"
	QueueGraphics QueueKind = "graphics"
	QueueSparse   QueueKind = "sparse"
)

// DriverProfile captures the behaviour of one API's driver/runtime on a
// device. The fields correspond to the overheads and maturity effects the
// paper identifies. Each field's hw tag classifies it for replay (fields.go).
type DriverProfile struct {
	// Supported indicates whether the API is available at all on the device
	// (e.g. CUDA is only available on NVIDIA hardware).
	Supported bool `hw:"structural"`
	// Version is the reported API version string (Tables II and III).
	Version string `hw:"descriptive"`

	// KernelLaunchOverhead is the host-side cost of one kernel launch or
	// clEnqueueNDRangeKernel call (argument marshalling, validation, driver
	// submission). CUDA and OpenCL pay this per iteration of an iterative
	// algorithm; it is the overhead Vulkan's single-command-buffer recording
	// eliminates.
	KernelLaunchOverhead time.Duration `hw:"timing,kernel_launch_overhead_ns"`
	// SyncLatency is the host cost of a blocking wait for the device
	// (cudaDeviceSynchronize, clFinish, vkWaitForFences): interrupt delivery
	// and scheduler wake-up. The multi-kernel method pays it once per
	// iteration; Vulkan pays it once per submission.
	SyncLatency time.Duration `hw:"timing,sync_latency_ns"`
	// SubmitOverhead is the cost of one queue submission (vkQueueSubmit or the
	// implicit flush performed by a blocking CUDA/OpenCL call).
	SubmitOverhead time.Duration `hw:"timing,submit_overhead_ns"`
	// CommandRecordOverhead is the host cost of recording one command into a
	// command buffer (Vulkan only; zero for the other APIs).
	CommandRecordOverhead time.Duration `hw:"timing,command_record_overhead_ns"`
	// PipelineBindOverhead is the device-side cost of binding a compute
	// pipeline (Vulkan) or switching kernels within a stream (CUDA/OpenCL).
	PipelineBindOverhead time.Duration `hw:"timing,pipeline_bind_overhead_ns"`
	// BarrierOverhead is the device-side cost of a pipeline/memory barrier
	// recorded between dispatches in a command buffer.
	BarrierOverhead time.Duration `hw:"timing,barrier_overhead_ns"`
	// DescriptorUpdateOverhead is the host cost of a descriptor-set update or
	// clSetKernelArg/parameter setup for one binding.
	DescriptorUpdateOverhead time.Duration `hw:"timing,descriptor_update_overhead_ns"`
	// PushConstantOverhead is the cost of updating push constants (or kernel
	// value arguments) once.
	PushConstantOverhead time.Duration `hw:"timing,push_constant_overhead_ns"`
	// PushConstantsAsBuffers models the Snapdragon driver defect reported in
	// §V-B1: push constants are demoted to storage-buffer binds, costing a
	// descriptor update per dispatch instead of PushConstantOverhead. It is
	// structural: it selects which knob a recorded cost refers to.
	PushConstantsAsBuffers bool `hw:"structural,pcb"`

	// CompilerEfficiency scales the device's peak ALU throughput; it reflects
	// the maturity of the API's kernel compiler inside the driver.
	CompilerEfficiency float64 `hw:"timing,compiler_efficiency"`
	// MemoryEfficiency scales achievable bandwidth for well-coalesced access.
	MemoryEfficiency float64 `hw:"timing,memory_efficiency"`
	// ScatteredMemoryEfficiency scales achievable bandwidth for poorly
	// coalesced access; the effective efficiency is interpolated between the
	// two by the observed coalescing factor.
	ScatteredMemoryEfficiency float64 `hw:"timing,scattered_memory_efficiency"`
	// LocalMemoryAutoOpt indicates that the driver's kernel compiler stages
	// repeated global loads in workgroup-local memory for kernels marked as
	// candidates (the paper's CodeXL observation for the OpenCL bfs ISA).
	LocalMemoryAutoOpt bool `hw:"timing"`
	// LocalMemoryOptFactor is the fraction of global traffic remaining after
	// the optimisation applies (only meaningful with LocalMemoryAutoOpt).
	LocalMemoryOptFactor float64 `hw:"timing,local_memory_opt_factor"`

	// JITCompileTime is the cost of building one kernel from source at run
	// time (OpenCL clBuildProgram). Vulkan consumes pre-compiled SPIR-V and
	// CUDA consumes pre-compiled cubins/PTX, so theirs is small.
	JITCompileTime time.Duration `hw:"timing,jit_compile_time_ns"`
	// PipelineCreateTime is the cost of creating a compute pipeline /
	// loading a module.
	PipelineCreateTime time.Duration `hw:"timing,pipeline_create_time_ns"`
	// AllocOverhead is the host cost of a device memory allocation.
	AllocOverhead time.Duration `hw:"timing,alloc_overhead_ns"`
	// MaxPushConstantBytes is the push-constant budget exposed to applications
	// (256 B on GTX 1050 Ti, 128 B on RX 560 and both mobile parts, §VI-B).
	// It is structural: it gates validation branches.
	MaxPushConstantBytes int `hw:"structural,maxpush"`
}

// Validate checks the driver profile for obviously inconsistent values.
func (d *DriverProfile) Validate() error {
	if !d.Supported {
		return nil
	}
	for _, f := range knobFields {
		if v := f.Duration(d); v < 0 {
			return fmt.Errorf("hw: %s %v is negative", f.Name, v)
		}
	}
	if d.CompilerEfficiency <= 0 || d.CompilerEfficiency > 1 {
		return fmt.Errorf("hw: compiler efficiency %v out of (0,1]", d.CompilerEfficiency)
	}
	if d.MemoryEfficiency <= 0 || d.MemoryEfficiency > 1 {
		return fmt.Errorf("hw: memory efficiency %v out of (0,1]", d.MemoryEfficiency)
	}
	if d.ScatteredMemoryEfficiency < 0 || d.ScatteredMemoryEfficiency > 1 {
		return fmt.Errorf("hw: scattered memory efficiency %v out of [0,1]", d.ScatteredMemoryEfficiency)
	}
	if d.LocalMemoryAutoOpt && (d.LocalMemoryOptFactor <= 0 || d.LocalMemoryOptFactor > 1) {
		return fmt.Errorf("hw: local memory opt factor %v out of (0,1]", d.LocalMemoryOptFactor)
	}
	return nil
}

// Profile describes a simulated GPU and its host platform. Each field's hw
// tag classifies it for replay (fields.go).
type Profile struct {
	// Identity, as reported in Tables II and III.
	Name         string `hw:"descriptive"`
	Vendor       string `hw:"descriptive"`
	Architecture string `hw:"descriptive"`
	Class        Class  `hw:"structural,class"`

	// Host-side description (operating system, CPU, memory, installed GPU
	// driver) used only for the experimental-setup tables.
	OS         string `hw:"descriptive"`
	CPU        string `hw:"descriptive"`
	HostMemGB  int    `hw:"descriptive"`
	DriverName string `hw:"descriptive"`

	// Compute resources.
	ComputeUnits int `hw:"timing"`
	ALUsPerCU    int `hw:"timing"`
	CoreClockMHz int `hw:"timing"`
	WarpSize     int `hw:"structural,warp"`

	// Memory system.
	PeakBandwidthGBps   float64       `hw:"timing"`
	MemClockEffMHz      int           `hw:"descriptive"`
	MemBusWidthBits     int           `hw:"descriptive"`
	CacheLineBytes      int           `hw:"structural,line"`
	SharedMemPerCUBytes int           `hw:"descriptive"`
	DeviceMemBytes      int64         `hw:"structural,devmem"`
	HostVisibleMemBytes int64         `hw:"structural,hostmem"`
	UnifiedMemory       bool          `hw:"structural,unified"`
	TransferGBps        float64       `hw:"timing"`
	TransferLatency     time.Duration `hw:"timing"`

	// Limits.
	MaxWorkgroupInvocations int `hw:"structural,maxwg"`

	// DispatchLatency is the fixed device-side cost of scheduling one
	// dispatch (independent of API).
	DispatchLatency time.Duration `hw:"timing"`
	// WorkgroupLaunchOverhead is the device-side cost of scheduling one
	// workgroup onto a compute unit.
	WorkgroupLaunchOverhead time.Duration `hw:"timing"`

	// Drivers maps each API to its driver behaviour on this device.
	Drivers map[API]DriverProfile `hw:"structural"`
}

// Validate checks the profile for structural problems.
func (p *Profile) Validate() error {
	if p.Name == "" {
		return fmt.Errorf("hw: profile has no name")
	}
	if p.ComputeUnits <= 0 || p.ALUsPerCU <= 0 || p.CoreClockMHz <= 0 {
		return fmt.Errorf("hw: profile %q has non-positive compute resources", p.Name)
	}
	if p.PeakBandwidthGBps <= 0 {
		return fmt.Errorf("hw: profile %q has non-positive peak bandwidth", p.Name)
	}
	if p.WarpSize <= 0 {
		return fmt.Errorf("hw: profile %q has non-positive warp size", p.Name)
	}
	if p.CacheLineBytes <= 0 {
		return fmt.Errorf("hw: profile %q has non-positive cache line", p.Name)
	}
	if p.DeviceMemBytes <= 0 {
		return fmt.Errorf("hw: profile %q has non-positive device memory", p.Name)
	}
	if len(p.Drivers) == 0 {
		return fmt.Errorf("hw: profile %q exposes no drivers", p.Name)
	}
	for api, d := range p.Drivers {
		if !api.Valid() {
			return fmt.Errorf("hw: profile %q has driver for unknown API %q", p.Name, api)
		}
		if err := d.Validate(); err != nil {
			return fmt.Errorf("hw: profile %q, api %s: %w", p.Name, api, err)
		}
	}
	return nil
}

// Driver returns the driver profile for the API, and whether the API is
// supported on this device.
func (p *Profile) Driver(api API) (DriverProfile, bool) {
	d, ok := p.Drivers[api]
	if !ok || !d.Supported {
		return DriverProfile{}, false
	}
	return d, true
}

// Supports reports whether the API has a usable driver on this device.
func (p *Profile) Supports(api API) bool {
	_, ok := p.Driver(api)
	return ok
}

// SupportedAPIs returns the APIs with usable drivers in AllAPIs order.
func (p *Profile) SupportedAPIs() []API {
	var out []API
	for _, a := range AllAPIs() {
		if p.Supports(a) {
			out = append(out, a)
		}
	}
	return out
}

// PeakGFLOPS returns the theoretical single-precision throughput in GFLOP/s
// (one FMA counted as two operations is not assumed; this is raw lane ops).
func (p *Profile) PeakGFLOPS() float64 {
	return float64(p.ComputeUnits) * float64(p.ALUsPerCU) * float64(p.CoreClockMHz) / 1000.0
}

// TheoreticalBandwidthGBps computes bandwidth from the memory clock and bus
// width using the formula quoted in §V-A1 of the paper. It returns zero when
// the clock or bus width are unknown.
func (p *Profile) TheoreticalBandwidthGBps() float64 {
	if p.MemClockEffMHz <= 0 || p.MemBusWidthBits <= 0 {
		return 0
	}
	return float64(p.MemClockEffMHz) * 1e6 * float64(p.MemBusWidthBits) / 8 * 1e-9
}

func (p *Profile) String() string {
	return fmt.Sprintf("%s (%s %s, %d CUs @ %d MHz, %.1f GB/s)",
		p.Name, p.Vendor, p.Architecture, p.ComputeUnits, p.CoreClockMHz, p.PeakBandwidthGBps)
}
