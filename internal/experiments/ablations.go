package experiments

import (
	"fmt"
	"time"

	"vcomputebench/internal/core"
	"vcomputebench/internal/hw"
	"vcomputebench/internal/kernels"
	"vcomputebench/internal/micro"
	"vcomputebench/internal/platforms"
	"vcomputebench/internal/report"
	"vcomputebench/internal/rodinia"
)

// iterativeAdd is a small iterative workload (repeated vector additions with a
// dependency between iterations) used to ablate the single-command-buffer
// optimisation in isolation from any particular Rodinia benchmark.
type iterativeAdd struct {
	n        int
	iters    int
	separate bool
	x, y     []float32
}

func (a *iterativeAdd) Buffers() []rodinia.BufferSpec {
	return []rodinia.BufferSpec{
		{Name: "x", Init: kernels.F32ToWords(a.x)},
		{Name: "y", Init: kernels.F32ToWords(a.y)},
		{Name: "z", Words: a.n},
	}
}

func (a *iterativeAdd) Kernels() []string { return []string{micro.KernelVectorAdd} }

func (a *iterativeAdd) SeparateSubmits() bool { return a.separate }

func (a *iterativeAdd) NextPhase(phase int, io rodinia.IO) ([]rodinia.Step, error) {
	if phase > 0 {
		return nil, nil
	}
	var steps []rodinia.Step
	groups := kernels.D1((a.n + 255) / 256)
	for it := 0; it < a.iters; it++ {
		// Alternate z = x + y and x = z + y so every iteration depends on the
		// previous one.
		bufs := []int{0, 1, 2}
		if it%2 == 1 {
			bufs = []int{2, 1, 0}
		}
		steps = append(steps, rodinia.Step{
			Kernel:    micro.KernelVectorAdd,
			Groups:    groups,
			Buffers:   bufs,
			Push:      kernels.Words{uint32(a.n)},
			SyncAfter: true,
		})
	}
	return steps, nil
}

// runIterativeAdd executes the ablation workload under Vulkan on a fresh
// device of the platform and returns the measured kernel-phase time.
func runIterativeAdd(p *platforms.Platform, seed int64, n, iters int, separate bool) (time.Duration, error) {
	ctx, err := core.NewRunContext(p, hw.APIVulkan, core.Workload{Label: "ablation"}, seed)
	if err != nil {
		return 0, err
	}
	alg := &iterativeAdd{
		n:        n,
		iters:    iters,
		separate: separate,
		x:        make([]float32, n),
		y:        make([]float32, n),
	}
	for i := range alg.x {
		alg.x[i] = float32(i%17) * 0.25
		alg.y[i] = float32(i%13) * 0.5
	}
	out, err := rodinia.Run(ctx, alg, nil)
	if err != nil {
		return 0, err
	}
	return out.KernelTime, nil
}

// runAblationCmdBuf quantifies §VI-B recommendation 1: recording an iterative
// workload into one command buffer with memory barriers versus naively
// submitting one command buffer per iteration.
func runAblationCmdBuf(opts Options) (*report.Document, error) {
	opts = opts.defaults()
	t := &report.Table{
		Title:   "Single command buffer + barriers vs per-iteration submissions (Vulkan)",
		Columns: []string{"Platform", "Iterations", "Single cmdbuf", "Per-iteration submits", "Benefit"},
	}
	const n = 64 << 10
	for _, p := range []*platforms.Platform{platforms.GTX1050Ti(), platforms.Adreno506()} {
		for _, iters := range []int{16, 64, 256} {
			single, err := runIterativeAdd(p, opts.Seed, n, iters, false)
			if err != nil {
				return nil, err
			}
			multi, err := runIterativeAdd(p, opts.Seed, n, iters, true)
			if err != nil {
				return nil, err
			}
			t.AddRow(p.Profile.Name, fmt.Sprintf("%d", iters),
				single.String(), multi.String(),
				fmt.Sprintf("%.2fx", float64(multi)/float64(single)))
		}
	}
	return &report.Document{ID: "ablation-cmdbuf", Title: t.Title, Tables: []*report.Table{t}}, nil
}

// runAblationPush quantifies the Snapdragon push-constant quirk of §V-B1 by
// running the bandwidth microbenchmark on the stock Adreno 506 profile and on
// a hypothetical fixed driver that honours push constants.
func runAblationPush(opts Options) (*report.Document, error) {
	opts = opts.defaults()
	b, err := core.Get("membandwidth")
	if err != nil {
		return nil, err
	}
	stock := platforms.Adreno506()
	fixed := platforms.Adreno506()
	fixed.ID = "adreno506-fixed-push"
	drv := fixed.Profile.Drivers[hw.APIVulkan]
	drv.PushConstantsAsBuffers = false
	fixed.Profile.Drivers[hw.APIVulkan] = drv

	runner := opts.Runner()
	t := &report.Table{
		Title:   "Push constants demoted to buffer binds (Adreno 506, Vulkan strided bandwidth)",
		Columns: []string{"Stride", "Stock driver GB/s", "Push constants honoured GB/s"},
	}
	for _, w := range b.Workloads(hw.ClassMobile) {
		r1, err := runner.Run(stock, b, hw.APIVulkan, w)
		if err != nil {
			return nil, err
		}
		r2, err := runner.Run(fixed, b, hw.APIVulkan, w)
		if err != nil {
			return nil, err
		}
		t.AddRow(w.Label,
			fmt.Sprintf("%.3f", r1.ExtraValue(micro.ExtraBandwidthGBps)),
			fmt.Sprintf("%.3f", r2.ExtraValue(micro.ExtraBandwidthGBps)))
	}
	doc := &report.Document{ID: "ablation-push", Title: t.Title, Tables: []*report.Table{t}}
	doc.Notes = append(doc.Notes, "the gap is largest at small strides, where kernels are short and the per-iteration descriptor bind is not amortised (§V-B1)")
	return doc, nil
}
