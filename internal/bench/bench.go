// Package bench contains the small helpers shared by every benchmark's host
// code: OpenCL and CUDA environment setup, OpenCL C source synthesis for the
// JIT path, and deterministic input generation.
package bench

import (
	"fmt"
	"math/rand"
	"strings"

	"vcomputebench/internal/cuda"
	"vcomputebench/internal/hw"
	"vcomputebench/internal/kernels"
	"vcomputebench/internal/opencl"
)

// CLSource synthesises an OpenCL C translation-unit skeleton declaring the
// given kernels. The executable bodies live in the kernels registry (the
// simulated driver resolves them by name at clBuildProgram time); the source
// text exists so the OpenCL path exercises the real create-program/build/
// create-kernel flow with its JIT cost.
func CLSource(names ...string) string {
	var b strings.Builder
	b.WriteString("// Auto-generated OpenCL C skeleton for VComputeBench.\n")
	for _, n := range names {
		p, err := kernels.Lookup(n)
		if err != nil {
			fmt.Fprintf(&b, "__kernel void %s() {}\n", n)
			continue
		}
		var params []string
		for i := 0; i < p.Bindings; i++ {
			params = append(params, fmt.Sprintf("__global float* buf%d", i))
		}
		for i := 0; i < p.PushConstantWords; i++ {
			params = append(params, fmt.Sprintf("int arg%d", i))
		}
		fmt.Fprintf(&b, "__attribute__((reqd_work_group_size(%d,%d,%d)))\n",
			p.LocalSize.X, p.LocalSize.Y, p.LocalSize.Z)
		fmt.Fprintf(&b, "__kernel void %s(%s) { /* body resolved by the device compiler */ }\n",
			n, strings.Join(params, ", "))
	}
	return b.String()
}

// CLEnv is a ready-to-use OpenCL context/queue/program on one device.
type CLEnv struct {
	Context *opencl.Context
	Queue   *opencl.CommandQueue
	Program *opencl.Program
}

// SetupOpenCL creates the OpenCL context, a profiling command queue and a
// built program containing the named kernels.
func SetupOpenCL(dev *hw.Device, kernelNames ...string) (*CLEnv, error) {
	plats, err := opencl.GetPlatforms(dev)
	if err != nil {
		return nil, err
	}
	devices, err := plats[0].GetDevices()
	if err != nil {
		return nil, err
	}
	ctx, err := opencl.CreateContext(devices[0])
	if err != nil {
		return nil, err
	}
	queue, err := ctx.CreateCommandQueue(opencl.CommandQueueProperties{Profiling: true})
	if err != nil {
		return nil, err
	}
	prog, err := ctx.CreateProgramWithSource(CLSource(kernelNames...))
	if err != nil {
		return nil, err
	}
	if err := prog.Build("-cl-mad-enable"); err != nil {
		return nil, err
	}
	return &CLEnv{Context: ctx, Queue: queue, Program: prog}, nil
}

// CUDAEnv is a ready-to-use CUDA context/module/stream on one device.
type CUDAEnv struct {
	Context *cuda.Context
	Module  *cuda.Module
	Stream  *cuda.Stream
}

// SetupCUDA initialises the CUDA runtime on the device.
func SetupCUDA(dev *hw.Device) (*CUDAEnv, error) {
	ctx, err := cuda.NewContext(dev)
	if err != nil {
		return nil, err
	}
	return &CUDAEnv{Context: ctx, Module: ctx.LoadModule(), Stream: ctx.DefaultStream()}, nil
}

// RandomF32 returns n pseudo-random floats in [lo, hi) from the given seed.
func RandomF32(seed int64, n int, lo, hi float32) []float32 {
	//lint:allow(the seed is deterministic workload input; every caller passes a fixed per-workload constant)
	rng := rand.New(rand.NewSource(seed))
	out := make([]float32, n)
	span := hi - lo
	for i := range out {
		out[i] = lo + span*rng.Float32()
	}
	return out
}

// RandomI32 returns n pseudo-random int32 values in [lo, hi). A degenerate
// range (hi <= lo) yields lo for every element instead of the rand.Int63n
// panic an empty interval would otherwise trigger.
func RandomI32(seed int64, n int, lo, hi int32) []int32 {
	out := make([]int32, n)
	span := int64(hi) - int64(lo)
	if span <= 0 {
		for i := range out {
			out[i] = lo
		}
		return out
	}
	//lint:allow(the seed is deterministic workload input; every caller passes a fixed per-workload constant)
	rng := rand.New(rand.NewSource(seed))
	for i := range out {
		out[i] = lo + int32(rng.Int63n(span))
	}
	return out
}

// DivUp returns ceil(a/b).
func DivUp(a, b int) int {
	if b <= 0 {
		return 0
	}
	return (a + b - 1) / b
}

// AbsDiff returns |a-b| for float32 values as float64.
func AbsDiff(a, b float32) float64 {
	d := float64(a) - float64(b)
	if d < 0 {
		return -d
	}
	return d
}
