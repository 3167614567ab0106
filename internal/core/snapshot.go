// Snapshot is the execute/replay boundary of a measurement: everything one
// (platform, benchmark, workload, API, seed, reps) cell produced that does
// not depend on the driver's timing knobs — the functional outcome (checksum,
// dispatch count, timing-independent extras) plus the per-repetition timing
// trace — and the bindings that tie the Result's measured fields to readings
// of that trace. Replaying a snapshot under any DriverProfile recomputes
// durations, bandwidths and statistics bit-identically to a fresh execution.
//
// Invalidation rules: a snapshot is valid only for platforms whose
// hw.Profile.ExecutionFingerprint matches the one it was recorded under. Any
// change to internal/kernels or to a benchmark's workloads invalidates
// snapshots. For the in-memory cache that is automatic (it dies with the
// process); for the persistent DiskStore it is enforced by folding the
// build's code-version fingerprint (internal/codeversion, a digest over the
// kernel and workload sources embedded at build time) into every entry's
// content address, so entries written by a build with different
// execution-relevant code are never even opened. Changes to DriverProfile
// knob values or other timing-only profile fields never invalidate — replay
// revalues them — which is why those sources are deliberately excluded from
// the code-version fingerprint.
package core

import (
	"errors"
	"fmt"
	"time"

	"vcomputebench/internal/hw"
	"vcomputebench/internal/platforms"
	"vcomputebench/internal/stats"
)

// Snapshot is an immutable executed cell, replayable under any driver
// profile with a matching execution fingerprint.
type Snapshot struct {
	trace       *hw.Trace
	fingerprint string

	benchmark string
	workload  string
	reps      int

	kernelReading int
	totalReading  int

	dispatches      int
	checksum        float64
	extras          map[string]float64 // timing-independent extras, copied verbatim
	throughputBytes map[string]float64 // bytes-over-kernel-time extras, recomputed
}

// newSnapshot binds an executed run's Result fields to its recorded trace.
// kernelTime and totalTime are the recorded repetition's raw per-rep values
// (not the averaged statistics). It fails loudly when a Result field cannot
// be tied to a trace reading — that means a benchmark derived a measurement
// in a way the trace instrumentation does not capture, which would make
// replay silently wrong.
func newSnapshot(p *platforms.Platform, b Benchmark, api hw.API, w Workload,
	tr *hw.Trace, res *Result, kernelTime, totalTime time.Duration, reps int) (*Snapshot, error) {
	if tr == nil {
		return nil, fmt.Errorf("core: snapshot of %s/%s without a recorded trace", b.Name(), api)
	}
	kIdx, err := bindDurationReading(tr, kernelTime)
	if err != nil {
		return nil, fmt.Errorf("core: %s/%s on %s (%s): cannot bind kernel time %v (%w); "+
			"measure through ctx.Stopwatch / API profiling events so the cell can be replayed",
			b.Name(), api, p.ID, w.Label, kernelTime, err)
	}
	tIdx, ok := bindHostMarkReading(tr, totalTime)
	if !ok {
		return nil, fmt.Errorf("core: %s/%s on %s (%s): total time %v matches no host-time reading; "+
			"use ctx.Now() for Result.TotalTime so the cell can be replayed",
			b.Name(), api, p.ID, w.Label, totalTime)
	}
	s := &Snapshot{
		trace:         tr,
		fingerprint:   p.Profile.ExecutionFingerprint(),
		benchmark:     b.Name(),
		workload:      w.Label,
		reps:          reps,
		kernelReading: kIdx,
		totalReading:  tIdx,
		dispatches:    res.Dispatches,
		checksum:      res.Checksum,
	}
	if len(res.Extra) > 0 {
		s.extras = make(map[string]float64, len(res.Extra))
		for k, v := range res.Extra {
			s.extras[k] = v
		}
	}
	if len(res.throughputBytes) > 0 {
		s.throughputBytes = make(map[string]float64, len(res.throughputBytes))
		for k, v := range res.throughputBytes {
			s.throughputBytes[k] = v
			delete(s.extras, k) // recomputed from the replayed kernel time
		}
	}
	return s, nil
}

// errAmbiguousReading reports a duration that matches several readings with
// different replay semantics, so binding cannot be trusted.
var errAmbiguousReading = errors.New("observed duration matches multiple distinct trace readings")

// bindDurationReading finds the trace reading that produced an observed
// duration: the interval-valued reading with the exact value, falling back to
// the sum of every single-span reading (the pattern of a benchmark loop
// accumulating per-enqueue profiling-event durations).
//
// Binding is by value, so a coincidental collision between two readings that
// replay differently would silently bind the wrong one; to keep that failure
// loud instead, a value matched by readings that are not semantically
// identical is rejected as ambiguous (deterministically — the same cell would
// fail every run and every CI, not just under some swept profile).
func bindDurationReading(tr *hw.Trace, want time.Duration) (int, error) {
	match := -1
	for i := len(tr.Readings) - 1; i >= 0; i-- {
		r := &tr.Readings[i]
		if r.Kind == hw.ReadHostMark {
			continue // absolute times never produce a duration field
		}
		if r.Value != want {
			continue
		}
		if match < 0 {
			match = i
			continue
		}
		if !sameReadingSemantics(&tr.Readings[match], r) {
			return 0, errAmbiguousReading
		}
	}
	if match >= 0 {
		return match, nil
	}
	var sum time.Duration
	var refs []int32
	for i := range tr.Readings {
		if r := &tr.Readings[i]; r.Kind == hw.ReadSpanSum && len(r.Refs) == 1 {
			sum += r.Value
			refs = append(refs, r.Refs[0])
		}
	}
	if len(refs) > 0 && sum == want {
		return tr.AddSpanSumReading(refs, sum), nil
	}
	return 0, fmt.Errorf("no trace reading matches")
}

// sameReadingSemantics reports whether two readings replay to the same value
// under every profile (same kind and same event/mark references), i.e. they
// are interchangeable as a binding target.
func sameReadingSemantics(a, b *hw.Reading) bool {
	if a.Kind != b.Kind || a.A != b.A || a.B != b.B || len(a.Refs) != len(b.Refs) {
		return false
	}
	for i := range a.Refs {
		if a.Refs[i] != b.Refs[i] {
			return false
		}
	}
	return true
}

// bindHostMarkReading finds the latest absolute host-time reading with the
// observed value.
func bindHostMarkReading(tr *hw.Trace, want time.Duration) (int, bool) {
	for i := len(tr.Readings) - 1; i >= 0; i-- {
		if r := &tr.Readings[i]; r.Kind == hw.ReadHostMark && r.Value == want {
			return i, true
		}
	}
	return 0, false
}

// Replay recomputes the cell's Result under the platform's current profile —
// typically a clone of the recorded platform with different DriverProfile
// knob values. It is a pure function: safe for concurrent use on a shared
// snapshot, and bit-identical to executing the cell afresh on the same
// platform (the determinism tests pin this equivalence).
func (s *Snapshot) Replay(p *platforms.Platform) (*Result, error) {
	if fp := p.Profile.ExecutionFingerprint(); fp != s.fingerprint {
		return nil, fmt.Errorf("core: snapshot of %s/%s was recorded under a different execution fingerprint\n  have %s\n  want %s",
			s.benchmark, s.trace.API, fp, s.fingerprint)
	}
	rp, err := s.trace.Replay(&p.Profile)
	if err != nil {
		return nil, err
	}
	kernelTime, err := rp.Reading(s.kernelReading)
	if err != nil {
		return nil, err
	}
	totalTime, err := rp.Reading(s.totalReading)
	if err != nil {
		return nil, err
	}

	// The simulator is deterministic: every measured repetition of a cell is
	// identical, so the statistics are those of reps equal samples, computed
	// through the same stats code path as a fresh run.
	kernelTimes := make([]time.Duration, s.reps)
	totalTimes := make([]time.Duration, s.reps)
	for i := 0; i < s.reps; i++ {
		kernelTimes[i] = kernelTime
		totalTimes[i] = totalTime
	}
	kernelStats, err := stats.SummarizeDurations(kernelTimes)
	if err != nil {
		return nil, err
	}
	totalStats, err := stats.SummarizeDurations(totalTimes)
	if err != nil {
		return nil, err
	}
	res := &Result{
		Benchmark:   s.benchmark,
		API:         s.trace.API,
		Platform:    p.ID,
		Workload:    s.workload,
		KernelTime:  kernelStats.Mean,
		TotalTime:   totalStats.Mean,
		Dispatches:  s.dispatches,
		Checksum:    s.checksum,
		KernelStats: kernelStats,
		TotalStats:  totalStats,
	}
	//lint:allow(SetExtra inserts into a map keyed by name; iteration order cannot reach output)
	for name, v := range s.extras {
		res.SetExtra(name, v)
	}
	//lint:allow(SetExtraThroughput inserts into a map keyed by name; iteration order cannot reach output)
	for name, bytes := range s.throughputBytes {
		res.SetExtraThroughput(name, bytes, kernelTime)
	}
	return res, nil
}
