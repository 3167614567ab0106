package calibrate

import (
	"math"
	"strings"
	"testing"
	"time"

	"vcomputebench/internal/expected"
	"vcomputebench/internal/hw"
	"vcomputebench/internal/platforms"
	"vcomputebench/internal/report"
)

// TestScoreTargets drives score with synthetic documents and checks target
// classification, relative errors, the geomean residual and the missing-metric
// penalty.
func TestScoreTargets(t *testing.T) {
	fig, err := figureFor(platforms.IDGTX1050Ti)
	if err != nil {
		t.Fatal(err)
	}
	speedup := &report.Document{ID: fig.speedupID}
	bandwidth := &report.Document{ID: fig.bandwidthID}
	// Populate every pinned metric at exactly its paper value except one bar
	// at +20% and one geomean at -5%.
	offBar := report.MetricBenchmarkSpeedup("bfs", "Vulkan", "OpenCL")
	offGeo := report.MetricGeomeanSpeedup("Vulkan", "OpenCL")
	for _, m := range expected.Metrics() {
		v := m.Paper
		switch {
		case m.Experiment == fig.speedupID && m.Name == offBar:
			v *= 1.20
		case m.Experiment == fig.speedupID && m.Name == offGeo:
			v *= 0.95
		}
		switch m.Experiment {
		case fig.speedupID:
			speedup.AddMetric(m.Name, m.Unit, v)
		case fig.bandwidthID:
			bandwidth.AddMetric(m.Name, m.Unit, v)
		}
	}

	r := score(platforms.IDGTX1050Ti, fig, speedup, bandwidth)
	if len(r.Targets) == 0 {
		t.Fatal("no targets scored")
	}
	var sawBar, sawGeo bool
	for _, tg := range r.Targets {
		switch tg.Name {
		case offBar:
			sawBar = true
			if tg.Kind != KindBar || math.Abs(tg.RelErr-0.20) > 1e-9 {
				t.Fatalf("off bar scored as %+v", tg)
			}
		case offGeo:
			sawGeo = true
			if tg.Kind != KindGeomean || math.Abs(tg.RelErr+0.05) > 1e-9 {
				t.Fatalf("off geomean scored as %+v", tg)
			}
		default:
			if !tg.Pass {
				t.Fatalf("exact target failed: %+v", tg)
			}
		}
	}
	if !sawBar || !sawGeo {
		t.Fatalf("perturbed targets missing (bar %v, geomean %v)", sawBar, sawGeo)
	}
	if math.Abs(r.GeomeanResidual-0.05) > 1e-9 {
		t.Fatalf("geomean residual = %g, want 0.05", r.GeomeanResidual)
	}
	if r.Score <= 0 {
		t.Fatalf("score = %g, want > 0", r.Score)
	}

	// A missing metric must be penalised far beyond any log error.
	empty := score(platforms.IDGTX1050Ti, fig, &report.Document{ID: fig.speedupID}, bandwidth)
	if empty.Score < missingPenalty {
		t.Fatalf("missing metrics scored %g, want >= %g", empty.Score, missingPenalty)
	}
	if !strings.Contains(empty.String(), "missing from document") {
		t.Fatal("report does not show missing metrics")
	}
}

// TestSweepConvergesDeterministically runs the coordinate descent against a
// cheap analytic objective: the score is minimised when the OpenCL kernel
// launch overhead reaches a hidden optimum. The sweep must find a strictly
// better value, propose it as a change, leave the canonical platform
// untouched, and produce the identical result when run twice.
func TestSweepConvergesDeterministically(t *testing.T) {
	target := 20 * time.Microsecond
	objective := func(p *platforms.Platform) (*Report, error) {
		drv := p.Profile.Drivers[hw.APIOpenCL]
		d := drv.KernelLaunchOverhead.Seconds() - target.Seconds()
		return &Report{Platform: p.ID, Score: d * d}, nil
	}
	run := func() *SweepResult {
		p := platforms.GTX1050Ti()
		before := p.Profile.Drivers[hw.APIOpenCL].KernelLaunchOverhead
		res, err := Sweep(p, Options{
			Passes:   3,
			Knobs:    []Knob{{API: hw.APIOpenCL, Field: FieldKernelLaunchOverhead}},
			evaluate: objective,
		})
		if err != nil {
			t.Fatal(err)
		}
		if got := p.Profile.Drivers[hw.APIOpenCL].KernelLaunchOverhead; got != before {
			t.Fatalf("sweep mutated the canonical platform: %v -> %v", before, got)
		}
		return res
	}

	res := run()
	if res.Final.Score >= res.Initial.Score {
		t.Fatalf("sweep did not improve: %g -> %g", res.Initial.Score, res.Final.Score)
	}
	if len(res.Changes) == 0 {
		t.Fatal("sweep improved but proposed no change")
	}
	got := res.Proposed.Profile.Drivers[hw.APIOpenCL].KernelLaunchOverhead
	// Seeded at 13 µs with multiplicative steps, the descent must move toward
	// the 20 µs optimum.
	if got <= 13*time.Microsecond || got > 25*time.Microsecond {
		t.Fatalf("proposed launch overhead %v, want in (13µs, 25µs]", got)
	}

	again := run()
	if again.Final.Score != res.Final.Score || len(again.Changes) != len(res.Changes) {
		t.Fatalf("sweep not deterministic: %+v vs %+v", res.Changes, again.Changes)
	}
	for i := range res.Changes {
		if res.Changes[i] != again.Changes[i] {
			t.Fatalf("change %d differs between runs: %v vs %v", i, res.Changes[i], again.Changes[i])
		}
	}
}

// TestDefaultKnobs checks the knob set is deterministic, covers only
// supported APIs, and gates LocalMemoryOptFactor on LocalMemoryAutoOpt.
func TestDefaultKnobs(t *testing.T) {
	p := platforms.GTX1050Ti()
	knobs := DefaultKnobs(p)
	if len(knobs) == 0 {
		t.Fatal("no knobs for GTX 1050 Ti")
	}
	seen := map[Knob]bool{}
	for _, k := range knobs {
		if seen[k] {
			t.Fatalf("duplicate knob %+v", k)
		}
		seen[k] = true
		drv := p.Profile.Drivers[k.API]
		if !drv.Supported {
			t.Fatalf("knob for unsupported API %s", k.API)
		}
		if k.Field == FieldLocalMemoryOptFactor && !drv.LocalMemoryAutoOpt {
			t.Fatalf("LocalMemoryOptFactor knob for %s which has no auto-opt", k.API)
		}
	}
	// Vulkan on the GTX has no local-memory promotion; its factor knob must
	// be absent.
	if seen[Knob{API: hw.APIVulkan, Field: FieldLocalMemoryOptFactor}] {
		t.Fatal("Vulkan LocalMemoryOptFactor knob present despite LocalMemoryAutoOpt=false")
	}
}

// mustKnobField resolves a sweepable field or fails the test.
func mustKnobField(t *testing.T, name string) hw.Field {
	t.Helper()
	f, err := knobField(name)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// TestKnobRoundTrip checks every field reads back what was set, in both the
// duration and efficiency representations, and that only the declared
// sweepable (timing, overridable) fields resolve.
func TestKnobRoundTrip(t *testing.T) {
	fields := []string{
		FieldKernelLaunchOverhead, FieldSyncLatency, FieldCompilerEfficiency,
		FieldMemoryEfficiency, FieldScatteredMemoryEfficiency, FieldLocalMemoryOptFactor,
	}
	var d hw.DriverProfile
	for i, name := range fields {
		f := mustKnobField(t, name)
		want := 0.1 * float64(i+1)
		setFieldValue(f, &d, want)
		if got := fieldValue(f, &d); math.Abs(got-want) > 1e-12 {
			t.Fatalf("%s round trip: set %g got %g", name, want, got)
		}
	}
	for _, name := range []string{"NoSuchField", "MaxPushConstantBytes", "PushConstantsAsBuffers", "LocalMemoryAutoOpt", "Version"} {
		if _, err := knobField(name); err == nil {
			t.Errorf("knobField accepted %s", name)
		}
	}
}

// TestCandidateValues checks the grid is deterministic, excludes the
// incumbent and clamps efficiencies into (0, 1].
func TestCandidateValues(t *testing.T) {
	vals := candidateValues(mustKnobField(t, FieldSyncLatency), 10e-6)
	if len(vals) != 4 {
		t.Fatalf("duration grid has %d candidates, want 4", len(vals))
	}
	for i := 1; i < len(vals); i++ {
		if vals[i] <= vals[i-1] {
			t.Fatalf("grid not ascending: %v", vals)
		}
	}
	for _, v := range candidateValues(mustKnobField(t, FieldMemoryEfficiency), 0.95) {
		if v <= 0 || v > 1 {
			t.Fatalf("efficiency candidate %g out of (0,1]", v)
		}
		if v == 0.95 {
			t.Fatal("incumbent value in candidate grid")
		}
	}
	if vals := candidateValues(mustKnobField(t, FieldSyncLatency), 0); vals != nil {
		t.Fatalf("zero-valued knob produced candidates %v", vals)
	}
	// High efficiencies clamp several multiplicative steps to 1; the grid
	// must dedupe them, since each candidate costs a full figure run.
	high := candidateValues(mustKnobField(t, FieldCompilerEfficiency), 0.92)
	ones := 0
	for _, v := range high {
		if v == 1 {
			ones++
		}
	}
	if ones > 1 {
		t.Fatalf("clamped grid contains %d duplicate 1.0 candidates: %v", ones, high)
	}
}

// TestSweepResultStringCollapsesChainedChanges: a knob accepted twice must be
// printed once with its original and final values, so the listed move is safe
// to paste as-is.
func TestSweepResultStringCollapsesChainedChanges(t *testing.T) {
	r := &SweepResult{
		Platform: "gtx1050ti",
		Initial:  &Report{Score: 1},
		Final:    &Report{Score: 0.5},
		Changes: []Change{
			{API: hw.APIOpenCL, Field: FieldCompilerEfficiency, From: 0.88, To: 0.792},
			{API: hw.APIOpenCL, Field: FieldSyncLatency, From: 18e-6, To: 23.4e-6},
			{API: hw.APIOpenCL, Field: FieldCompilerEfficiency, From: 0.792, To: 0.871},
		},
	}
	out := r.String()
	if strings.Count(out, FieldCompilerEfficiency) != 1 {
		t.Fatalf("chained change printed more than once:\n%s", out)
	}
	if !strings.Contains(out, "0.880 -> 0.871") {
		t.Fatalf("collapsed change does not show original -> final values:\n%s", out)
	}
	if !strings.Contains(out, FieldSyncLatency) {
		t.Fatalf("independent change lost in collapse:\n%s", out)
	}
}
