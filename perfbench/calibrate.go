package main

import (
	"time"

	"vcomputebench/internal/calibrate"
	"vcomputebench/internal/core"
	"vcomputebench/internal/experiments"
	"vcomputebench/internal/platforms"
)

// calibratePlatform is the platform the calibrate-sweep workload sweeps.
const calibratePlatform = platforms.IDNexus

// stampWriter is a calibrate.Options.Progress writer that timestamps every
// line: the sweep writes one line after its baseline evaluation and one
// after each candidate evaluation, all from the goroutine that called Sweep.
type stampWriter struct{ stamps []time.Time }

func (w *stampWriter) Write(p []byte) (int, error) {
	w.stamps = append(w.stamps, time.Now())
	return len(p), nil
}

// sweepRun is one timed sweep.
type sweepRun struct {
	start, end time.Time
	evals      []time.Duration // baseline first
	res        *calibrate.SweepResult
	store      *timedStore // traced sweeps only
	stats      core.CacheStats
}

func (s *sweepRun) wall() time.Duration { return s.end.Sub(s.start) }

type calibrateRun struct {
	e    *env
	p    *platforms.Platform
	res  *result
	opts experiments.Options
}

func runCalibrate(e *env) (*result, error) {
	c := &calibrateRun{e: e, res: newResult(), opts: experiments.Options{Repetitions: 1, Seed: 42, Parallelism: e.workers}}
	var setups []float64
	for i := 0; i < cheapSetupReps; i++ {
		start := time.Now()
		if err := c.setup(); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	c.res.e2e["setup_s"] = median(setups)
	if e.tr != nil {
		return c.traced()
	}

	var sweeps []*sweepRun
	before := readUsage()
	start := time.Now()
	for len(sweeps) < 2 || time.Since(start) < e.seconds {
		s, err := c.sweep(nil)
		if err != nil {
			return nil, err
		}
		sweeps = append(sweeps, s)
	}
	after := readUsage()
	c.check(sweeps)

	// Throughput is the median over sweeps, so one sweep slowed by the host
	// does not move it.
	r := c.res
	var lat, walls, rates []float64
	evals := 0
	for _, s := range sweeps {
		evals += s.res.Evaluations
		lat = append(lat, durationsIn(s.evals, time.Millisecond)...)
		walls = append(walls, s.wall().Seconds())
		rates = append(rates, float64(s.res.Evaluations)/s.wall().Seconds())
	}
	r.attempted += evals
	r.e2e["ops_per_s"] = median(rates)
	p99, q := tail(lat, 0.99)
	r.perOp(before, after, evals)
	final := sweeps[0].res.Final
	r.headlineMetric("sweeps", "count", float64(len(sweeps)))
	r.headlineMetric("sweep_s_p50", "s", median(walls))
	r.headlineMetric("evals_per_s", "1/s", r.e2e["ops_per_s"])
	r.headlineMetric("evaluations", "count", float64(len(lat)))
	r.headlineMetric("eval_ms_p50", "ms", median(lat))
	r.headlineMetric("eval_ms_"+pctName(q), "ms", p99)
	r.headlineMetric("sweep_residual_pct", "%", 100*final.GeomeanResidual)
	r.headlineMetric("sweep_score", "score", final.Score)
	return r, nil
}

// setup resolves the platform and warms the process up.
func (c *calibrateRun) setup() error {
	p, err := platforms.ByID(calibratePlatform)
	if err != nil {
		return err
	}
	c.p = p
	return warmUpCell()
}

// sweep runs one single-pass sweep with default knobs into a fresh in-memory
// store; tr non-nil traces it.
func (c *calibrateRun) sweep(tr *Tracer) (*sweepRun, error) {
	inner := core.NewSnapshotCache(0)
	opts := calibrate.Options{Experiments: c.opts, Passes: 1}
	opts.Experiments.Cache = inner
	s := &sweepRun{}
	if tr != nil {
		s.store = newTimedStore(inner, tr)
		opts.Experiments.Cache = s.store
	}
	w := &stampWriter{}
	opts.Progress = w
	span := tr.Begin("sweep", -1)
	prev := tr.SetScope(span)
	s.start = time.Now()
	res, err := calibrate.Sweep(c.p, opts)
	s.end = time.Now()
	tr.SetScope(prev)
	tr.End(span)
	if err != nil {
		return nil, err
	}
	s.res, s.stats = res, inner.Stats()
	last := s.start
	for _, t := range w.stamps {
		s.evals = append(s.evals, t.Sub(last))
		if tr != nil {
			tr.addSpan(Span{Parent: span, Name: "evaluation", Start: last.Sub(tr.epoch), End: t.Sub(tr.epoch)})
		}
		last = t
	}
	if len(s.evals) != res.Evaluations {
		c.res.fail(res.Evaluations, "sweep reported %d evaluations but wrote %d progress lines", res.Evaluations, len(s.evals))
	}
	return s, nil
}

// check holds every sweep to the first one and the first one to an uncached
// calibrate.Measure of its proposed platform, outside the timed window.
func (c *calibrateRun) check(sweeps []*sweepRun) {
	first := sweeps[0].res
	for _, s := range sweeps[1:] {
		if s.res.Final.Score != first.Final.Score || s.res.Evaluations != first.Evaluations {
			c.res.fail(s.res.Evaluations, "sweep not deterministic: score %v over %d evaluations, first sweep %v over %d",
				s.res.Final.Score, s.res.Evaluations, first.Final.Score, first.Evaluations)
		}
	}
	ref, err := calibrate.Measure(first.Proposed, c.opts)
	if err != nil {
		c.res.fail(first.Evaluations, "uncached measure of the proposed platform: %v", err)
		return
	}
	if ref.Score != first.Final.Score {
		c.res.fail(first.Evaluations, "final score %v differs from an uncached measure of the proposed platform (%v)", first.Final.Score, ref.Score)
	}
}

// traced runs one warm-up sweep, then alternates untraced and traced sweeps
// (at least one of each), and derives the per-layer metrics from the traced ones.
func (c *calibrateRun) traced() (*result, error) {
	tr, l := c.e.tr, c.res.layers
	// The process's first sweep pays for heap growth; keep it out of the
	// comparison.
	if _, err := c.sweep(nil); err != nil {
		return nil, err
	}
	var plain, traced []*sweepRun
	start := time.Now()
	for len(traced) < 1 || time.Since(start) < c.e.seconds {
		s, err := c.sweep(nil)
		if err != nil {
			return nil, err
		}
		plain = append(plain, s)
		if s, err = c.sweep(tr); err != nil {
			return nil, err
		}
		traced = append(traced, s)
	}
	c.check(append(plain, traced...))
	units := len(traced)
	var wall, plainWall, baseline, evalMS, resid []float64
	var stats []core.CacheStats
	for _, s := range traced {
		c.res.attempted += s.res.Evaluations
		wall = append(wall, s.wall().Seconds())
		stats = append(stats, s.stats)
		baseline = append(baseline, s.evals[0].Seconds())
		evalMS = append(evalMS, durationsIn(s.evals[1:], time.Millisecond)...)
		var covered time.Duration
		for _, d := range s.evals {
			covered += d
		}
		resid = append(resid, 100*(s.wall()-covered).Seconds()/s.wall().Seconds())
	}
	for _, s := range plain {
		c.res.attempted += s.res.Evaluations
		plainWall = append(plainWall, s.wall().Seconds())
	}
	ix := indexSpans(tr.Spans())
	last := traced[len(traced)-1]
	executeLayers(l, ix, last.store, units, sum(wall), c.e.workers)
	storeLayers(l, ix, units)
	tierLayers(l, stats)
	keys, snaps := last.store.seen()
	snapshotLayers(l, keys, snaps)
	l["calibrate.evals"] = float64(last.res.Evaluations)
	l["calibrate.baseline_s"] = median(baseline)
	l["calibrate.eval_ms_p50"] = median(evalMS)
	l["resid.calibrate_pct"] = median(resid)
	l["trace.overhead_pct"] = 100 * (median(wall)/median(plainWall) - 1)
	l["trace.spans"] = float64(len(tr.Spans())) / float64(units)
	c.res.headlineMetric("traced_sweeps", "count", float64(units))
	c.res.headlineMetric("untraced_sweeps", "count", float64(len(plain)))
	return c.res, nil
}
