package vcomputebench_test

import (
	"encoding/json"
	"reflect"
	"testing"
	"time"

	"vcomputebench/internal/core"
	"vcomputebench/internal/experiments"
	"vcomputebench/internal/hw"
	"vcomputebench/internal/platforms"
	_ "vcomputebench/internal/rodinia/suite"
)

// replayBenchmarks are the benchmarks the replay-determinism tests cover:
// vectoradd measures with a host stopwatch, membandwidth derives its kernel
// time from device-side observables (a Vulkan submission's dispatch-time sum,
// CUDA event timers, a loop summing OpenCL profiling events) plus a
// throughput extra, and bfs is the iterative worst case — a data-dependent
// phase loop with mid-measurement device readbacks. Between them every
// reading kind and binding path of the snapshot layer is exercised.
var replayBenchmarks = []string{"vectoradd", "membandwidth", "bfs"}

func smallestWorkload(t *testing.T, b core.Benchmark, class hw.Class) core.Workload {
	t.Helper()
	ws := b.Workloads(class)
	if len(ws) == 0 {
		t.Fatalf("%s has no workloads for class %s", b.Name(), class)
	}
	return ws[0]
}

// runCell runs one cell with the given runner, skipping excluded combinations.
func runCell(t *testing.T, r *core.Runner, p *platforms.Platform, name string, api hw.API) (*core.Result, bool) {
	t.Helper()
	b, err := core.Get(name)
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.Run(p, b, api, smallestWorkload(t, b, p.Profile.Class))
	if err != nil {
		var excl *core.ExclusionError
		if asExclusion(err, &excl) {
			return nil, false
		}
		t.Fatalf("%s/%s on %s: %v", name, api, p.ID, err)
	}
	return res, true
}

func asExclusion(err error, target **core.ExclusionError) bool {
	for err != nil {
		if e, ok := err.(*core.ExclusionError); ok {
			*target = e
			return true
		}
		u, ok := err.(interface{ Unwrap() error })
		if !ok {
			return false
		}
		err = u.Unwrap()
	}
	return false
}

// requireSameResult asserts two results are identical in every field,
// including the JSON encoding the versioned results schema would emit.
func requireSameResult(t *testing.T, label string, want, got *core.Result) {
	t.Helper()
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("%s: results differ\n  executed: %+v\n  replayed: %+v", label, want, got)
	}
	wj, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	gj, err := json.Marshal(got)
	if err != nil {
		t.Fatal(err)
	}
	if string(wj) != string(gj) {
		t.Fatalf("%s: JSON encodings differ\n  executed: %s\n  replayed: %s", label, wj, gj)
	}
}

// TestReplayMatchesExecution pins the execute/replay contract on every
// platform and API: a cell served from the snapshot cache (analytic replay)
// is byte-identical to the same cell executed fresh — durations, repetition
// statistics and achieved-bandwidth extras included.
func TestReplayMatchesExecution(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("single-threaded determinism matrix; executing every cell three times under the race detector adds minutes, not coverage")
	}
	for _, p := range platforms.All() {
		for _, api := range p.Profile.SupportedAPIs() {
			for _, name := range replayBenchmarks {
				p, api, name := p, api, name
				t.Run(p.ID+"/"+string(api)+"/"+name, func(t *testing.T) {
					plain := &core.Runner{Repetitions: 2, Seed: 42}
					executed, ok := runCell(t, plain, p, name, api)
					if !ok {
						t.Skipf("%s/%s excluded on %s", name, api, p.ID)
					}

					cached := &core.Runner{Repetitions: 2, Seed: 42, Cache: core.NewSnapshotCache(0)}
					miss, _ := runCell(t, cached, p, name, api) // executes + snapshots
					hit, _ := runCell(t, cached, p, name, api)  // replays the snapshot

					st := cached.Cache.Stats()
					if st.Misses != 1 || st.Hits != 1 {
						t.Fatalf("cache stats = %+v, want exactly 1 miss then 1 hit", st)
					}
					requireSameResult(t, "execute vs cached-execute", executed, miss)
					requireSameResult(t, "execute vs replay", executed, hit)
				})
			}
		}
	}
}

// moveTiming moves every timing field of the hw declaration in v (a Profile
// or DriverProfile), as a calibration sweep or a serve what-if would:
// durations and counts grow (zero durations become non-zero), floats shrink
// by 10% so efficiencies stay inside their Validate ranges, and switches flip
// when flipSwitches is set.
func moveTiming(v reflect.Value, fields []hw.Field, flipSwitches bool) {
	for _, f := range fields {
		if f.Kind != hw.Timing {
			continue
		}
		fv := v.FieldByName(f.Name)
		switch fv.Kind() {
		case reflect.Int64: // time.Duration
			fv.SetInt(fv.Int()*13/10 + int64(time.Microsecond))
		case reflect.Int:
			fv.SetInt(fv.Int() + fv.Int()/10 + 1)
		case reflect.Float64:
			fv.SetFloat(fv.Float() * 0.9)
		case reflect.Bool:
			if flipSwitches {
				fv.SetBool(!fv.Bool())
			}
		default:
			panic("moveTiming: no rule for a " + fv.Type().String() + " field")
		}
	}
}

// changedTiming lists the timing fields whose values differ between a and b.
func changedTiming(a, b reflect.Value, fields []hw.Field) []string {
	var out []string
	for _, f := range fields {
		if f.Kind == hw.Timing && a.FieldByName(f.Name).Interface() != b.FieldByName(f.Name).Interface() {
			out = append(out, f.Name)
		}
	}
	return out
}

// perturbTiming returns a clone of the platform with every timing field
// moved, profile-level and per-driver, and the names of the fields whose
// value changed. Switches (LocalMemoryAutoOpt) flip only when flipSwitches is
// set, so the fields they gate (LocalMemoryOptFactor) can be moved live on
// other platforms; a flip that would leave the driver invalid (promotion on
// without a factor) is undone. The execution fingerprint is unchanged, so a
// snapshot recorded on the original platform replays under the clone.
func perturbTiming(t *testing.T, p *platforms.Platform, flipSwitches bool) (*platforms.Platform, []string) {
	t.Helper()
	cand := p.Clone()
	moveTiming(reflect.ValueOf(&cand.Profile).Elem(), hw.ProfileFields(), false)
	moved := changedTiming(reflect.ValueOf(p.Profile), reflect.ValueOf(cand.Profile), hw.ProfileFields())
	for api, drv := range cand.Profile.Drivers {
		if !drv.Supported {
			continue
		}
		orig := drv
		moveTiming(reflect.ValueOf(&drv).Elem(), hw.DriverFields(), flipSwitches)
		if drv.Validate() != nil {
			drv.LocalMemoryAutoOpt = orig.LocalMemoryAutoOpt
		}
		moved = append(moved, changedTiming(reflect.ValueOf(orig), reflect.ValueOf(drv), hw.DriverFields())...)
		cand.Profile.Drivers[api] = drv
	}
	if err := cand.Profile.Validate(); err != nil {
		t.Fatalf("perturbed %s profile is invalid: %v", p.ID, err)
	}
	return cand, moved
}

// TestReplayUnderModifiedProfile pins the property the calibration sweep and
// serve's driver_knobs rest on: replaying a snapshot under a candidate
// profile with every timing field moved is bit-identical to executing the
// full benchmark afresh under that candidate. Every timing field of the hw
// declaration must be moved on at least one platform.
func TestReplayUnderModifiedProfile(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("single-threaded determinism matrix; see TestReplayMatchesExecution")
	}
	unmoved := map[string]bool{}
	for _, f := range append(hw.ProfileFields(), hw.DriverFields()...) {
		if f.Kind == hw.Timing {
			unmoved[f.Name] = true
		}
	}
	for i, p := range platforms.All() {
		// Switches flip on every other platform.
		perturbed, moved := perturbTiming(t, p, i%2 == 1)
		for _, name := range moved {
			delete(unmoved, name)
		}
		if fp, want := perturbed.Profile.ExecutionFingerprint(), p.Profile.ExecutionFingerprint(); fp != want {
			t.Fatalf("perturbing timing fields changed the execution fingerprint:\n  %s\n  %s", fp, want)
		}
		cached := &core.Runner{Repetitions: 2, Seed: 42, Cache: core.NewSnapshotCache(0)}
		fresh := &core.Runner{Repetitions: 2, Seed: 42}
		for _, api := range p.Profile.SupportedAPIs() {
			for _, name := range replayBenchmarks {
				p, perturbed, api, name := p, perturbed, api, name
				t.Run(p.ID+"/"+string(api)+"/"+name, func(t *testing.T) {
					if _, ok := runCell(t, cached, p, name, api); !ok { // execute + snapshot on the base profile
						t.Skipf("%s/%s excluded on %s", name, api, p.ID)
					}
					replayed, _ := runCell(t, cached, perturbed, name, api) // cache hit: replay under moved fields
					executed, _ := runCell(t, fresh, perturbed, name, api)  // ground truth: fresh run under moved fields
					requireSameResult(t, "fresh-on-candidate vs replay-on-candidate", executed, replayed)
				})
			}
		}
	}
	for name := range unmoved {
		t.Errorf("timing field %s was never moved", name)
	}
}

// TestSuiteCacheParallelDeterminism runs a full figure twice — serial without
// a cache, parallel with a shared cache primed by a previous run — and
// requires byte-identical JSON documents: the cache must not perturb results
// for any -parallel value.
func TestSuiteCacheParallelDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a full figure; skipped with -short")
	}
	p, err := platforms.ByID(platforms.IDRX560)
	if err != nil {
		t.Fatal(err)
	}
	apis := []hw.API{hw.APIVulkan, hw.APIOpenCL}

	serial, err := experiments.BandwidthDocument("fig1b", p, apis, experiments.Options{Repetitions: 1, Seed: 42, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}

	cache := core.NewSnapshotCache(0)
	if _, err := experiments.BandwidthDocument("fig1b", p, apis, experiments.Options{Repetitions: 1, Seed: 42, Parallelism: 1, Cache: cache}); err != nil {
		t.Fatal(err)
	}
	parallel, err := experiments.BandwidthDocument("fig1b", p, apis, experiments.Options{Repetitions: 1, Seed: 42, Parallelism: 8, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	if st := cache.Stats(); st.Hits == 0 || st.Misses == 0 {
		t.Fatalf("cache stats = %+v, want the second run to be served entirely from the first", st)
	}

	sj, err := json.Marshal(serial)
	if err != nil {
		t.Fatal(err)
	}
	pj, err := json.Marshal(parallel)
	if err != nil {
		t.Fatal(err)
	}
	if string(sj) != string(pj) {
		t.Fatalf("cached parallel run differs from serial uncached run:\n%s\n%s", sj, pj)
	}
}

// TestReplayIsFast is a sanity bound, not a benchmark: replaying a recorded
// cell must be orders of magnitude cheaper than executing it. It guards
// against a regression that silently reintroduces execution on the replay
// path (e.g. a cache miss caused by an unstable fingerprint).
func TestReplayIsFast(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("wall-clock bound is meaningless under the race detector's slowdown")
	}
	p, err := platforms.ByID(platforms.IDGTX1050Ti)
	if err != nil {
		t.Fatal(err)
	}
	b, err := core.Get("vectoradd")
	if err != nil {
		t.Fatal(err)
	}
	w := b.Workloads(p.Profile.Class)[0]
	r := &core.Runner{Repetitions: 1, Seed: 42, Cache: core.NewSnapshotCache(0)}
	if _, err := r.Run(p, b, hw.APIVulkan, w); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	const replays = 50
	for i := 0; i < replays; i++ {
		if _, err := r.Run(p, b, hw.APIVulkan, w); err != nil {
			t.Fatal(err)
		}
	}
	if st := r.Cache.Stats(); st.Misses != 1 || st.Hits != replays {
		t.Fatalf("cache stats = %+v, want 1 miss and %d hits", st, replays)
	}
	if avg := time.Since(start) / replays; avg > 50*time.Millisecond {
		t.Fatalf("average replay took %v, want well under the cost of an execution", avg)
	}
}
