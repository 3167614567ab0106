package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"vcomputebench/internal/codeversion"
	"vcomputebench/internal/core"
	"vcomputebench/internal/expected"
	"vcomputebench/internal/experiments"
	"vcomputebench/internal/report"
)

// goldenDir holds the committed documents every figure pass must reproduce
// byte for byte (read only).
var goldenDir = filepath.Join("testdata", "golden")

// figurePass is one run of a figure workload's experiments into a fresh store.
type figurePass struct {
	wall   time.Duration
	cells  int
	docLat []time.Duration
	docs   []*report.Document
	stats  core.CacheStats
	store  *timedStore // traced passes only
}

// figures drives cold-figures and warm-figures: one pass runs every
// experiment of the workload, in a seeded order, into a fresh snapshot store
// (in memory when cold, a new tiered store over the warm directory when
// warm), and checks each document against its golden.
type figures struct {
	e      *env
	exps   []experiments.Experiment
	golden map[string][]byte
	opts   experiments.Options
	warm   bool
	dir    string // warm: the populated disk store
	cv     string
	rng    *rand.Rand
	res    *result
}

func runFigures(e *env, ids []string, warm bool) (*result, error) {
	f := &figures{
		e:    e,
		warm: warm,
		cv:   codeversion.Fingerprint(),
		rng:  rand.New(rand.NewSource(e.seed)),
		res:  newResult(),
		opts: experiments.Options{Repetitions: 1, Seed: 42, Parallelism: e.workers},
	}
	for _, id := range ids {
		exp, err := experiments.ByID(id)
		if err != nil {
			return nil, err
		}
		f.exps = append(f.exps, exp)
	}

	// Set-up: read the goldens and prepare the store. Cold set-up takes
	// milliseconds and is repeated (the median is reported); warm set-up
	// executes every distinct cell into a disk store, once.
	var setups []float64
	reps := cheapSetupReps
	if warm {
		reps = 1
	}
	for i := 0; i < reps; i++ {
		start := time.Now()
		if err := f.setup(); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	f.res.e2e["setup_s"] = median(setups)

	if e.tr != nil {
		return f.traced()
	}
	var passes []*figurePass
	before := readUsage()
	start := time.Now()
	for len(passes) < 1 || time.Since(start) < e.seconds {
		p, err := f.pass(nil)
		if err != nil {
			return nil, err
		}
		passes = append(passes, p)
	}
	after := readUsage()

	// Throughput is the median over passes, so one pass slowed by the host
	// does not move it.
	cells := 0
	var lat, walls, rates []float64
	for _, p := range passes {
		cells += p.cells
		lat = append(lat, durationsIn(p.docLat, time.Millisecond)...)
		walls = append(walls, p.wall.Seconds())
		rates = append(rates, float64(p.cells)/p.wall.Seconds())
	}
	f.res.attempted += cells
	r := f.res
	r.e2e["ops_per_s"] = median(rates)
	p99, q := tail(lat, 0.99)
	r.perOp(before, after, cells)

	r.headlineMetric("passes", "count", float64(len(passes)))
	r.headlineMetric("pass_s_p50", "s", median(walls))
	r.headlineMetric("cells_per_s", "1/s", r.e2e["ops_per_s"])
	r.headlineMetric("documents", "count", float64(len(lat)))
	r.headlineMetric("doc_ms_p50", "ms", median(lat))
	r.headlineMetric("doc_ms_"+pctName(q), "ms", p99)
	if errPct, n := paperError(passes[0].docs); n > 0 {
		r.headlineMetric("paper_err_pct", "%", errPct)
		r.headlineMetric("paper_checks", "count", float64(n))
	}
	return r, nil
}

func (f *figures) setup() error {
	f.golden = map[string][]byte{}
	for _, exp := range f.exps {
		data, err := os.ReadFile(filepath.Join(goldenDir, exp.ID+".json"))
		if err != nil {
			return fmt.Errorf("reading golden: %w", err)
		}
		f.golden[exp.ID] = data
	}
	if !f.warm {
		return warmUpCell()
	}
	dir, err := os.MkdirTemp(f.e.work, "store-")
	if err != nil {
		return err
	}
	f.dir = dir
	disk, err := core.OpenDiskStore(dir, f.cv, nil)
	if err != nil {
		return err
	}
	opts := f.opts
	opts.Cache = core.NewTieredStore(nil, disk)
	for _, exp := range f.exps {
		doc, err := exp.Run(opts)
		if err != nil {
			return fmt.Errorf("warming the store: %s: %w", exp.ID, err)
		}
		f.check(exp.ID, doc, 1)
	}
	return nil
}

// newStore is the store one pass starts from.
func (f *figures) newStore() (core.SnapshotStore, error) {
	if !f.warm {
		return core.NewSnapshotCache(0), nil
	}
	disk, err := core.OpenDiskStore(f.dir, f.cv, nil)
	if err != nil {
		return nil, err
	}
	return core.NewTieredStore(nil, disk), nil
}

// pass runs every experiment once; tr non-nil traces it.
func (f *figures) pass(tr *Tracer) (*figurePass, error) {
	p := &figurePass{}
	start := time.Now()
	span := tr.Begin("pass", -1)
	inner, err := f.newStore()
	if err != nil {
		return nil, err
	}
	opts := f.opts
	opts.Cache = inner
	if tr != nil {
		p.store = newTimedStore(inner, tr)
		opts.Cache = p.store
	}
	for _, i := range f.rng.Perm(len(f.exps)) {
		exp := f.exps[i]
		before := inner.Stats()
		id := tr.Begin("experiment", span, "id", exp.ID)
		prev := tr.SetScope(id)
		t := time.Now()
		doc, err := exp.Run(opts)
		p.docLat = append(p.docLat, time.Since(t))
		tr.SetScope(prev)
		tr.End(id)
		after := inner.Stats()
		cells := int((after.Hits + after.Misses) - (before.Hits + before.Misses))
		p.cells += cells
		if err != nil {
			f.res.fail(cells, "%s: %v", exp.ID, err)
			continue
		}
		p.docs = append(p.docs, doc)
		f.check(exp.ID, doc, cells)
	}
	tr.End(span)
	p.wall = time.Since(start)
	p.stats = inner.Stats()
	if f.warm && p.stats.Executions != 0 {
		f.res.fail(int(p.stats.Executions), "warm pass executed %d cells, want 0", p.stats.Executions)
	}
	return p, nil
}

// check compares a document with its golden; a mismatch fails the cells that
// produced it.
func (f *figures) check(id string, doc *report.Document, cells int) {
	data, err := report.EncodeJSON([]*report.Document{doc})
	if err != nil {
		f.res.fail(cells, "%s: encoding: %v", id, err)
		return
	}
	if !bytes.Equal(data, f.golden[id]) {
		f.res.fail(cells, "%s: document differs from %s", id, filepath.Join(goldenDir, id+".json"))
	}
}

// traced alternates untraced and traced passes (at least one of each) for
// the run's duration and derives the per-layer metrics from the traced ones.
func (f *figures) traced() (*result, error) {
	tr := f.e.tr
	var plain, traced []*figurePass
	start := time.Now()
	for len(traced) < 1 || time.Since(start) < f.e.seconds {
		p, err := f.pass(nil)
		if err != nil {
			return nil, err
		}
		plain = append(plain, p)
		if p, err = f.pass(tr); err != nil {
			return nil, err
		}
		traced = append(traced, p)
	}
	for _, p := range append(plain, traced...) {
		f.res.attempted += p.cells
	}

	l := f.res.layers
	ix := indexSpans(tr.Spans())
	units := len(traced)
	var wall, plainWall []float64
	var stats []core.CacheStats
	for _, p := range traced {
		wall = append(wall, p.wall.Seconds())
		stats = append(stats, p.stats)
	}
	for _, p := range plain {
		plainWall = append(plainWall, p.wall.Seconds())
	}
	last := traced[len(traced)-1]
	executeLayers(l, ix, last.store, units, sum(wall), f.e.workers)
	storeLayers(l, ix, units)
	tierLayers(l, stats)
	keys, snaps := last.store.seen()
	snapshotLayers(l, keys, snaps)
	if f.warm {
		if err := diskGetLayer(l, f.dir, f.cv, keys); err != nil {
			return nil, err
		}
	}

	// Experiment spans: per-experiment time, self time (minus store, execute
	// and the estimated replay of every store hit) and the residual against
	// pass wall time.
	var expTotal, self float64
	hits := 0.0
	for _, s := range ix.byName["store.get"] {
		if s.Attrs["hit"] == "true" {
			hits++
		}
	}
	for _, s := range ix.byName["experiment"] {
		l["experiments."+s.Attrs["id"]+"_s"] += s.Dur().Seconds() / float64(units)
		expTotal += s.Dur().Seconds()
		self += selfTime(s, ix.children[s.ID]).Seconds()
	}
	self -= hits * l["replay.us_p50"] / 1e6
	l["experiments.self_s"] = self / float64(units)
	l["resid.experiments_pct"] = 100 * (sum(wall) - expTotal) / sum(wall)

	jsonMS := make([]float64, 0, 5)
	for i := 0; i < 5; i++ {
		t := time.Now()
		if _, err := report.EncodeJSON(last.docs); err != nil {
			return nil, err
		}
		jsonMS = append(jsonMS, float64(time.Since(t))/float64(time.Millisecond))
	}
	l["report.encode_json_ms"] = median(jsonMS)
	l["trace.overhead_pct"] = 100 * (median(wall)/median(plainWall) - 1)
	l["trace.spans"] = float64(len(tr.Spans())) / float64(units)
	f.res.headlineMetric("traced_passes", "count", float64(units))
	f.res.headlineMetric("untraced_passes", "count", float64(len(plain)))
	return f.res, nil
}

// paperError is the mean |relative error| over the pinned paper checks of
// the documents, in percent, and the number of numeric checks.
func paperError(docs []*report.Document) (float64, int) {
	total, n := 0.0, 0
	for _, d := range docs {
		if !expected.HasExpectations(d.ID) {
			continue
		}
		for _, c := range expected.CompareDocument(d.ID, d) {
			if delta := c.Delta(); delta == delta { // skip NaN (presence-only checks)
				if delta < 0 {
					delta = -delta
				}
				total += delta
				n++
			}
		}
	}
	if n == 0 {
		return 0, 0
	}
	return 100 * total / float64(n), n
}
