package kernels_test

import (
	"testing"

	"vcomputebench/internal/kernels"
)

func sampleCounters() kernels.Counters {
	return kernels.Counters{
		Invocations:             1024,
		Workgroups:              16,
		ALUOps:                  2048,
		GlobalLoads:             512,
		GlobalStores:            256,
		GlobalLoadBytes:         2048,
		GlobalStoreBytes:        1024,
		LocalOps:                128,
		SharedBytesPerGroup:     96,
		Barriers:                32,
		SampledUsefulBytes:      640,
		SampledTransactionBytes: 1280,
	}
}

func TestScaleExtensiveCountersOnly(t *testing.T) {
	c := sampleCounters()
	c.Scale(4)
	if c.Invocations != 4096 || c.Workgroups != 64 || c.ALUOps != 8192 ||
		c.GlobalLoads != 2048 || c.GlobalStores != 1024 ||
		c.GlobalLoadBytes != 8192 || c.GlobalStoreBytes != 4096 ||
		c.LocalOps != 512 || c.Barriers != 128 {
		t.Fatalf("extensive counters not scaled by 4: %+v", c)
	}
	// Intensive quantities must not scale: coalescing statistics feed a
	// ratio and SharedBytesPerGroup is a per-workgroup maximum.
	if c.SharedBytesPerGroup != 96 || c.SampledUsefulBytes != 640 || c.SampledTransactionBytes != 1280 {
		t.Fatalf("intensive quantities were scaled: %+v", c)
	}
}

func TestScaleRoundTrip(t *testing.T) {
	c := sampleCounters()
	// Down-scaling by factors in (0, 1) is part of the contract: Scale(4)
	// followed by Scale(0.25) must restore the original counters exactly
	// (both factors are powers of two, so float64 arithmetic is exact).
	c.Scale(4)
	c.Scale(0.25)
	if want := sampleCounters(); c != want {
		t.Fatalf("Scale(4) then Scale(0.25) did not round-trip:\n  got  %+v\n  want %+v", c, want)
	}
}

func TestScaleRejectsNonPositiveFactors(t *testing.T) {
	for _, f := range []float64{0, -1, -0.5} {
		c := sampleCounters()
		c.Scale(f)
		if want := sampleCounters(); c != want {
			t.Fatalf("Scale(%v) modified the counters: %+v", f, c)
		}
	}
}

func TestAddSumsAndMaxes(t *testing.T) {
	a := sampleCounters()
	b := sampleCounters()
	b.SharedBytesPerGroup = 64 // smaller than a's 96: the max must win
	sum := a
	sum.Add(&b)
	if sum.Invocations != 2048 || sum.GlobalLoads != 1024 || sum.Barriers != 64 ||
		sum.SampledUsefulBytes != 1280 || sum.SampledTransactionBytes != 2560 {
		t.Fatalf("Add did not sum: %+v", sum)
	}
	if sum.SharedBytesPerGroup != 96 {
		t.Fatalf("SharedBytesPerGroup = %v after Add, want max semantics (96)", sum.SharedBytesPerGroup)
	}
	larger := sampleCounters()
	larger.SharedBytesPerGroup = 1024
	sum.Add(&larger)
	if sum.SharedBytesPerGroup != 1024 {
		t.Fatalf("SharedBytesPerGroup = %v, want 1024 after adding a larger group", sum.SharedBytesPerGroup)
	}
}

func TestCoalescingEfficiencyBounds(t *testing.T) {
	c := kernels.Counters{}
	if got := c.CoalescingEfficiency(); got != 1 {
		t.Fatalf("efficiency with no sample = %v, want 1", got)
	}
	c = kernels.Counters{SampledUsefulBytes: 256, SampledTransactionBytes: 1024}
	if got := c.CoalescingEfficiency(); got != 0.25 {
		t.Fatalf("efficiency = %v, want 0.25", got)
	}
	// Useful bytes can exceed transaction bytes when sampled accesses hit the
	// same line repeatedly; the ratio is clamped to 1.
	c = kernels.Counters{SampledUsefulBytes: 4096, SampledTransactionBytes: 64}
	if got := c.CoalescingEfficiency(); got != 1 {
		t.Fatalf("efficiency = %v, want clamp to 1", got)
	}
}

// TestCounterFieldsInSync fails when a Counters field has a missing or
// unknown counter tag: Add, Scale and the snapshot codec would all skip it.
func TestCounterFieldsInSync(t *testing.T) {
	for _, f := range kernels.CounterFields() {
		if f.Kind == 0 {
			t.Errorf("Counters.%s has no known counter tag; tag it extensive, max, sample or derived", f.Name)
		}
	}
}
