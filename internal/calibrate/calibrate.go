// Package calibrate closes the gap between the simulator's measured figures
// and the paper's published values, per benchmark instead of per headline
// knob.
//
// Measure runs a platform's speedup figure (Fig. 2 on desktop, Fig. 4 on
// mobile) together with its bandwidth figure (Fig. 1/3) and compares every
// pinned metric — the per-benchmark speedup bars, the figure geomeans and the
// stride-1 bandwidth plateaus — against internal/expected, reporting each
// target's relative error and the geomean residual. Sweep then performs a
// deterministic coordinate-descent parameter sweep over the hw.DriverProfile
// knobs (kernel-launch overhead, sync latency, compiler efficiency,
// scattered/coalesced memory efficiency, local-memory promotion factor) and
// proposes calibrated internal/platforms values that minimise the weighted
// error. Both are exposed through `vcbench -calibrate` and `make calibrate`.
//
// The objective is built from the registry's rodinia family only (via
// experiments.SpeedupDocument, which runs suite.Rodinia): extension-family
// workloads never enter the paper-fidelity objective, so growing the zoo
// cannot move the calibration.
package calibrate

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"vcomputebench/internal/expected"
	"vcomputebench/internal/experiments"
	"vcomputebench/internal/hw"
	"vcomputebench/internal/platforms"
	"vcomputebench/internal/report"
)

// figure names the experiments that measure one platform's calibration
// targets and the API sets they run (mirroring experiments.All).
type figure struct {
	speedupID     string
	bandwidthID   string
	speedupAPIs   []hw.API
	bandwidthAPIs []hw.API
}

func figureFor(platformID string) (figure, error) {
	cl, vk, cu := hw.APIOpenCL, hw.APIVulkan, hw.APICUDA
	switch platformID {
	case platforms.IDGTX1050Ti:
		return figure{"fig2a", "fig1a", []hw.API{cl, vk, cu}, []hw.API{vk, cu}}, nil
	case platforms.IDRX560:
		return figure{"fig2b", "fig1b", []hw.API{cl, vk}, []hw.API{vk, cl}}, nil
	case platforms.IDPowerVR:
		return figure{"fig4a", "fig3a", []hw.API{cl, vk}, []hw.API{vk, cl}}, nil
	case platforms.IDAdreno506:
		return figure{"fig4b", "fig3b", []hw.API{cl, vk}, []hw.API{vk, cl}}, nil
	default:
		return figure{}, fmt.Errorf("calibrate: no figure mapping for platform %q", platformID)
	}
}

// Target kinds, in report order.
const (
	KindBar       = "bar"       // one per-benchmark Fig. 2 speedup bar
	KindGeomean   = "geomean"   // a figure geometric mean
	KindBandwidth = "bandwidth" // a pinned Fig. 1/3 bandwidth plateau
)

// Target is one pinned value the calibration is scored against.
type Target struct {
	// Kind is KindBar, KindGeomean or KindBandwidth.
	Kind string
	// Name is the metric name in the experiment document.
	Name string
	// Paper and Measured are the pinned and the simulated values.
	Paper    float64
	Measured float64
	// RelErr is (Measured-Paper)/Paper; NaN when the metric is missing.
	RelErr float64
	// RelTol is the tolerance the fidelity check applies to this metric.
	RelTol float64
	// Pass reports whether |RelErr| <= RelTol.
	Pass bool
}

// Report is the outcome of measuring one platform against its targets.
type Report struct {
	Platform    string
	SpeedupID   string
	BandwidthID string
	Targets     []Target
	// GeomeanResidual is the largest |RelErr| among the geomean targets —
	// the single number the ROADMAP's calibration-gap item tracks.
	GeomeanResidual float64
	// Score is the weighted sum of squared log errors the sweep minimises.
	Score float64
}

// scoreWeights: the headline geomeans and the pinned bandwidth plateaus
// dominate the objective so the sweep can never trade them for bar accuracy.
func weightFor(kind string) float64 {
	switch kind {
	case KindGeomean, KindBandwidth:
		return 4
	default:
		return 1
	}
}

// missingPenalty is charged for a target whose metric is absent from the
// measured document, far above any plausible log error.
const missingPenalty = 100.0

// Measure runs the platform's speedup and bandwidth figures with the given
// experiment options and scores the measured metrics against every
// expectation pinned for those experiments.
func Measure(p *platforms.Platform, opts experiments.Options) (*Report, error) {
	fig, err := figureFor(p.ID)
	if err != nil {
		return nil, err
	}
	speedupDoc, err := experiments.SpeedupDocument(fig.speedupID, p, fig.speedupAPIs, opts)
	if err != nil {
		return nil, err
	}
	bandwidthDoc, err := experiments.BandwidthDocument(fig.bandwidthID, p, fig.bandwidthAPIs, opts)
	if err != nil {
		return nil, err
	}
	return score(p.ID, fig, speedupDoc, bandwidthDoc), nil
}

func score(platformID string, fig figure, speedupDoc, bandwidthDoc *report.Document) *Report {
	r := &Report{Platform: platformID, SpeedupID: fig.speedupID, BandwidthID: fig.bandwidthID}
	add := func(kind string, m expected.Metric, doc *report.Document) {
		t := Target{Kind: kind, Name: m.Name, Paper: m.Paper, RelTol: m.RelTol, RelErr: math.NaN()}
		if got, ok := doc.Metric(m.Name); ok {
			t.Measured = got
			if m.Paper != 0 {
				t.RelErr = (got - m.Paper) / m.Paper
			}
			t.Pass = !math.IsNaN(t.RelErr) && math.Abs(t.RelErr) <= m.RelTol+1e-9
		}
		r.Targets = append(r.Targets, t)

		w := weightFor(kind)
		if t.Measured > 0 && m.Paper > 0 {
			le := math.Log(t.Measured / m.Paper)
			r.Score += w * le * le
		} else {
			r.Score += w * missingPenalty
		}
		if kind == KindGeomean && !math.IsNaN(t.RelErr) && math.Abs(t.RelErr) > r.GeomeanResidual {
			r.GeomeanResidual = math.Abs(t.RelErr)
		}
	}
	for _, m := range expected.Metrics() {
		switch {
		case m.Experiment == fig.speedupID && strings.HasPrefix(m.Name, "speedup/"):
			add(KindBar, m, speedupDoc)
		case m.Experiment == fig.speedupID:
			add(KindGeomean, m, speedupDoc)
		case m.Experiment == fig.bandwidthID:
			add(KindBandwidth, m, bandwidthDoc)
		}
	}
	return r
}

// String renders the report as the deterministic per-benchmark error table
// `vcbench -calibrate` prints.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "calibration report for %s (%s + %s)\n", r.Platform, r.SpeedupID, r.BandwidthID)
	kindOrder := []string{KindBar, KindGeomean, KindBandwidth}
	for _, kind := range kindOrder {
		for _, t := range r.Targets {
			if t.Kind != kind {
				continue
			}
			status := "PASS"
			if !t.Pass {
				status = "FAIL"
			}
			if math.IsNaN(t.RelErr) {
				fmt.Fprintf(&b, "  %s %-9s %-46s missing from document\n", status, t.Kind, t.Name)
				continue
			}
			fmt.Fprintf(&b, "  %s %-9s %-46s want %8.4g  got %8.4g  err %+6.1f%% (tol ±%.0f%%)\n",
				status, t.Kind, t.Name, t.Paper, t.Measured, t.RelErr*100, t.RelTol*100)
		}
	}
	fmt.Fprintf(&b, "  geomean residual %.1f%%, score %.4f\n", r.GeomeanResidual*100, r.Score)
	return b.String()
}

// Knob names one swept hw.DriverProfile field of one API. Duration fields are
// handled in seconds.
type Knob struct {
	API   hw.API
	Field string
}

// The sweepable DriverProfile fields (the knobs the paper's bottom-up
// explanation of Fig. 2 turns on).
const (
	FieldKernelLaunchOverhead      = "KernelLaunchOverhead"
	FieldSyncLatency               = "SyncLatency"
	FieldCompilerEfficiency        = "CompilerEfficiency"
	FieldMemoryEfficiency          = "MemoryEfficiency"
	FieldScatteredMemoryEfficiency = "ScatteredMemoryEfficiency"
	FieldLocalMemoryOptFactor      = "LocalMemoryOptFactor"
)

// knobField resolves a swept field name to its internal/hw declaration. Only
// the timing fields with a wire name (durations and efficiencies) can be
// swept: every candidate replays the snapshots the baseline recorded, which
// a structural change would invalidate.
func knobField(name string) (hw.Field, error) {
	f, ok := hw.LookupDriverField(name)
	if !ok || f.Kind != hw.Timing || f.Key == "" {
		return hw.Field{}, fmt.Errorf("calibrate: unknown knob field %q", name)
	}
	return f, nil
}

// fieldValue reads the field from a driver profile, as a float64 (seconds
// for durations).
func fieldValue(f hw.Field, d *hw.DriverProfile) float64 {
	if f.IsDuration() {
		return f.Duration(d).Seconds()
	}
	return f.Float(d)
}

// setFieldValue writes a fieldValue-scaled value into a driver profile.
func setFieldValue(f hw.Field, d *hw.DriverProfile, v float64) {
	if f.IsDuration() {
		f.SetDuration(d, time.Duration(v*float64(time.Second)))
		return
	}
	f.SetFloat(d, v)
}

// acceptanceEpsilon is the sweep's strict-improvement margin (see betterThan
// in Sweep) applied as a value-equality tolerance: two knob values closer
// than this are indistinguishable to the sweep, so evaluating both wastes an
// evaluation.
func acceptanceEpsilon(x float64) float64 { return 1e-12 + 1e-9*math.Abs(x) }

// candidateValues builds the deterministic candidate grid for one knob from
// its current value: multiplicative steps, clamped into (0, 1] for
// efficiencies. Values within the sweep's acceptance epsilon of the incumbent
// are excluded — a clamped step that lands (numerically) back on the current
// value would re-measure the incumbent profile and can never be accepted —
// and the surviving candidates are deduplicated with the same epsilon.
func candidateValues(f hw.Field, current float64) []float64 {
	if current <= 0 {
		return nil
	}
	muls := []float64{0.75, 0.9, 1.1, 1.3}
	var out []float64
	for _, m := range muls {
		v := current * m
		if !f.IsDuration() { // (0, 1]-bounded efficiency
			if v > 1 {
				v = 1 // several steps can clamp here; deduped below
			}
			if v <= 0 {
				continue
			}
		}
		if math.Abs(v-current) <= acceptanceEpsilon(current) {
			continue
		}
		out = append(out, v)
	}
	sort.Float64s(out)
	// Dedupe clamped candidates: evaluating the same value twice costs an
	// evaluation (a full figure run without the snapshot cache, a replay pass
	// with it) for a result the sweep has already seen.
	uniq := out[:0]
	for i, v := range out {
		if i == 0 || math.Abs(v-uniq[len(uniq)-1]) > acceptanceEpsilon(v) {
			uniq = append(uniq, v)
		}
	}
	return uniq
}

// DefaultKnobs returns the sweep's knob set for a platform: every sweepable
// field of every supported API, in deterministic (API, field) order.
// MemoryEfficiency is included — the Fig. 1/3 plateau targets in the
// objective keep the sweep from trading it away — and LocalMemoryOptFactor
// only where the driver implements the promotion.
func DefaultKnobs(p *platforms.Platform) []Knob {
	fields := []string{
		FieldKernelLaunchOverhead,
		FieldSyncLatency,
		FieldCompilerEfficiency,
		FieldMemoryEfficiency,
		FieldScatteredMemoryEfficiency,
		FieldLocalMemoryOptFactor,
	}
	apis := make([]hw.API, 0, len(p.Profile.Drivers))
	for api := range p.Profile.Drivers {
		apis = append(apis, api)
	}
	sort.Slice(apis, func(i, j int) bool { return apis[i] < apis[j] })
	var knobs []Knob
	for _, api := range apis {
		drv := p.Profile.Drivers[api]
		if !drv.Supported {
			continue
		}
		for _, f := range fields {
			if f == FieldLocalMemoryOptFactor && !drv.LocalMemoryAutoOpt {
				continue
			}
			knobs = append(knobs, Knob{API: api, Field: f})
		}
	}
	return knobs
}
