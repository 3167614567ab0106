// Command vcbench is the VComputeBench harness: it lists and runs the
// experiments that reproduce every table and figure of the paper, checks the
// results against the published numbers, and can run individual benchmarks on
// individual simulated platforms.
//
// Usage:
//
//	vcbench -list                         list experiments, benchmarks and platforms
//	vcbench -run fig2a                    run one experiment (or "all")
//	vcbench -run all -format json -o out/ write every experiment as versioned JSON
//	vcbench -run all -warmup 1 -parallel 8  discard a warm-up run, fan the grid across 8 workers
//	vcbench -check all                    compare results against the paper's published values
//	vcbench -check all -baseline out/     additionally diff against a previous JSON run
//	vcbench -bench bfs -platform rx560    run one benchmark across its workloads and APIs
//	vcbench -calibrate gtx1050ti          per-benchmark Fig. 2 calibration errors for a platform
//	vcbench -calibrate rx560 -sweep       additionally sweep the driver knobs and propose values
//	vcbench -run all -cache-stats         report how many cells executed vs replayed
//	vcbench -run all -faults 'driver-fault:0.05' -retries 2 -keep-going
//	                                      chaos-test the harness: inject deterministic faults,
//	                                      retry transients, degrade the rest into the reports
//
// Exit codes: 0 clean, 1 hard failure (including SIGINT/SIGTERM), 2 fidelity
// drift (-check found failing checks), 3 degraded-but-complete (-keep-going
// absorbed cell failures; every document still produced).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"

	"vcomputebench/internal/calibrate"
	"vcomputebench/internal/codeversion"
	"vcomputebench/internal/core"
	"vcomputebench/internal/expected"
	"vcomputebench/internal/experiments"
	"vcomputebench/internal/faults"
	"vcomputebench/internal/hw"
	"vcomputebench/internal/platforms"
	"vcomputebench/internal/report"
	_ "vcomputebench/internal/rodinia/suite"
)

func main() {
	var (
		list        = flag.Bool("list", false, "list experiments, benchmarks and platforms")
		run         = flag.String("run", "", "experiment id to run, or 'all'")
		check       = flag.String("check", "", "experiment id to check against the paper's published values, or 'all'")
		baseline    = flag.String("baseline", "", "baseline results JSON (a file from -format json, or a directory of <id>.json files) to diff against; used with -check")
		baselineTol = flag.Float64("baseline-tol", 0, "relative tolerance for -baseline diffs (0 = exact; the simulator is deterministic)")
		benchName   = flag.String("bench", "", "run a single benchmark by name")
		calibrateID = flag.String("calibrate", "", "platform id (or 'all') to report per-benchmark calibration errors for")
		doSweep     = flag.Bool("sweep", false, "with -calibrate: run the deterministic driver-knob sweep and print proposed platform values (one suite execution per platform; candidates scored by replay)")
		sweepPasses = flag.Int("sweep-passes", 1, "coordinate-descent passes of the -sweep")
		platformID  = flag.String("platform", platforms.IDGTX1050Ti, "platform id for -bench")
		reps        = flag.Int("reps", core.DefaultRepetitions, "repetitions per measurement")
		warmup      = flag.Int("warmup", 0, "warm-up runs per measurement, excluded from statistics")
		parallel    = flag.Int("parallel", runtime.NumCPU(), "suite worker goroutines (1 = serial; output is identical)")
		dispatchN   = flag.Int("dispatch-parallel", 0, "worker goroutines per simulated dispatch (0 = budget cores across the suite pool; output is identical)")
		seed        = flag.Int64("seed", 42, "input generation seed")
		format      = flag.String("format", "text", "output format: text, csv, markdown or json")
		outDir      = flag.String("o", "", "directory to write per-experiment output files (default: stdout)")
		useCache    = flag.Bool("cache", true, "share a counter-replay snapshot cache across experiments: each distinct (platform, benchmark, workload, API) cell executes once and is replayed elsewhere (output is byte-identical either way)")
		storeDir    = flag.String("store", "", "directory of the persistent snapshot store; entries are keyed by cell identity and the build's code-version fingerprint, so a warm store makes every run pure replay (implies -cache; output is byte-identical either way)")
		storeGC     = flag.Bool("store-gc", false, "with -store: remove entries written by builds whose execution-relevant code differs from this one, plus undecodable entries and orphaned temp files")
		codeVer     = flag.Bool("code-version", false, "print the build's code-version fingerprint (the hash persistent store entries are keyed by) and exit")
		cacheStats  = flag.Bool("cache-stats", false, "print snapshot-store hit/miss statistics, per tier, to stderr when done")
		faultSpec   = flag.String("faults", "", "deterministic fault-injection spec: 'class:rate[@k=v,...][;...]' with classes driver-fault, hang, device-lost, oom and filters platform=, benchmark=, api= (lowercase, e.g. 'driver-fault:0.05;oom:0.01@api=vulkan')")
		faultSeed   = flag.Int64("fault-seed", 0, "seed for the fault schedule (defaults to the -seed value when the flag is not given; an explicit -fault-seed 0 is honoured as seed 0); the same seed and spec give a bit-identical schedule at any -parallel")
		cellTimeout = flag.Duration("cell-timeout", 0, "per-cell deadline, 0 = none (expiry is a transient failure, eligible for -retries)")
		retries     = flag.Int("retries", 0, "retry budget per cell for transient failures (deterministic exponential backoff)")
		retryBack   = flag.Duration("retry-backoff", core.DefaultRetryBackoff, "base delay of the retry backoff (doubles per attempt)")
		keepGoing   = flag.Bool("keep-going", false, "degrade failed cells into structured report entries instead of aborting; a degraded-but-complete run exits 3")
	)
	// `vcbench serve ...` is a subcommand with its own FlagSet (serving
	// shares the runner knobs but none of the experiment selection), so it is
	// dispatched before the batch-mode flag.Parse sees the arguments.
	if len(os.Args) > 1 && os.Args[1] == "serve" {
		if err := serveCmd(os.Args[2:]); err != nil {
			fatal(err)
		}
		return
	}
	flag.Parse()

	if *codeVer {
		fmt.Println(codeversion.Fingerprint())
		return
	}

	// Cancel the suite on SIGINT/SIGTERM: in-flight cells finish, unlaunched
	// cells are skipped, and -run flushes whatever documents completed.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	opts := experiments.Options{
		Repetitions:         *reps,
		Warmup:              *warmup,
		Parallelism:         *parallel,
		DispatchParallelism: *dispatchN,
		Seed:                *seed,
		Context:             ctx,
		CellTimeout:         *cellTimeout,
		Retries:             *retries,
		RetryBackoff:        *retryBack,
		KeepGoing:           *keepGoing,
	}
	if *faultSpec != "" {
		// The fault seed defaults to -seed, detected by flag presence rather
		// than a 0 sentinel: 0 is a legitimate schedule seed, and a sentinel
		// would make it unselectable.
		fseed := *seed
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "fault-seed" {
				fseed = *faultSeed
			}
		})
		inj, err := faults.Parse(*faultSpec, fseed)
		if err != nil {
			fatal(err)
		}
		opts.Faults = inj
	}
	switch {
	case *storeDir != "":
		disk, err := openStore("vcbench", *storeDir, *storeGC)
		if err != nil {
			fatal(err)
		}
		opts.Cache = core.NewTieredStore(core.NewSnapshotCache(0), disk)
	case *useCache:
		opts.Cache = core.NewSnapshotCache(0)
	}
	if *cacheStats {
		// fatal() exits through os.Exit, which skips deferred calls; route
		// the stats through the exit hook so a failing -check/-run still
		// reports whether its cells were executed or replayed.
		beforeExit = func() { printCacheStats(opts.Cache) }
		defer beforeExit()
	}
	modes := 0
	for _, set := range []bool{*list, *run != "", *check != "", *benchName != "", *calibrateID != ""} {
		if set {
			modes++
		}
	}
	if modes > 1 {
		// Silently picking one mode would let e.g. `-run all -check all`
		// skip the fidelity check the user asked for.
		fatal(errors.New("choose exactly one of -list, -run, -check, -bench or -calibrate"))
	}
	switch {
	case *list:
		listAll()
	case *run != "":
		if err := runExperiments(*run, opts, *format, *outDir); err != nil {
			fatal(err)
		}
	case *check != "":
		if err := runCheck(*check, opts, *baseline, *baselineTol); err != nil {
			fatal(err)
		}
	case *benchName != "":
		if err := runBenchmark(*benchName, *platformID, opts); err != nil {
			fatal(err)
		}
	case *calibrateID != "":
		if err := runCalibrate(*calibrateID, opts, *doSweep, *sweepPasses); err != nil {
			fatal(err)
		}
	default:
		if *storeDir != "" && *storeGC {
			return // standalone `vcbench -store DIR -store-gc` maintenance run
		}
		flag.Usage()
		os.Exit(exitHard)
	}
}

// Exit codes. 0 remains a clean run; CI keys off the distinctions below.
const (
	// exitHard: the run did not complete (errors, panics that escaped a cell,
	// SIGINT/SIGTERM).
	exitHard = 1
	// exitDrift: the run completed but -check found results drifting from the
	// paper's published values or the baseline.
	exitDrift = 2
	// exitDegraded: every experiment produced a document, but -keep-going
	// absorbed failed cells, so aggregates cover survivors only.
	exitDegraded = 3
)

// exitError carries a specific process exit code up through the error path.
type exitError struct {
	code int
	err  error
}

func (e *exitError) Error() string { return e.err.Error() }
func (e *exitError) Unwrap() error { return e.err }

func exitCode(err error) int {
	var ee *exitError
	if errors.As(err, &ee) {
		return ee.code
	}
	return exitHard
}

// beforeExit, when set, runs before any fatal exit (and, via defer, on
// success) so end-of-run reporting like -cache-stats survives error paths.
var beforeExit func()

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "vcbench:", err)
	if beforeExit != nil {
		beforeExit()
	}
	os.Exit(exitCode(err))
}

// openStore opens the persistent snapshot store under dir for this build's
// code version, first garbage-collecting it when gc is set. prog prefixes
// the GC report on stderr.
func openStore(prog, dir string, gc bool) (*core.DiskStore, error) {
	disk, err := core.OpenDiskStore(dir, codeversion.Fingerprint(), nil)
	if err != nil {
		return nil, err
	}
	if gc {
		removed, reclaimed, err := disk.GC()
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(os.Stderr, "%s: store GC: removed %d stale files, reclaimed %d bytes\n", prog, removed, reclaimed)
	}
	return disk, nil
}

// printCacheStats reports the snapshot store's traffic: misses are cells that
// executed, hits are cells served by analytic replay. Composed stores get a
// per-tier breakdown.
func printCacheStats(c core.SnapshotStore) {
	if c == nil {
		fmt.Fprintln(os.Stderr, "vcbench: snapshot cache disabled (-cache=false)")
		return
	}
	s := c.Stats()
	fmt.Fprintf(os.Stderr, "vcbench: snapshot store: %d executed (misses), %d replayed (hits), %d entries, %d evictions\n",
		s.Executions, s.Hits, s.Entries, s.Evictions)
	for _, t := range s.Tiers {
		fmt.Fprintf(os.Stderr, "vcbench:   %s tier: %d hits, %d misses, %d evictions, %d entries, %d bytes, %d decode failures, %d dropped puts\n",
			t.Tier, t.Hits, t.Misses, t.Evictions, t.Entries, t.Bytes, t.DecodeFailures, t.DroppedPuts)
	}
}

func listAll() {
	fmt.Println("Experiments:")
	for _, e := range experiments.All() {
		fmt.Printf("  %-16s %s\n", e.ID, e.Title)
	}
	fmt.Println("\nBenchmarks (registry descriptors, per family in figure order):")
	for _, fam := range core.Families() {
		ds := core.ByFamily(fam)
		if len(ds) == 0 {
			continue
		}
		fmt.Printf("  %s:\n", fam)
		for _, d := range ds {
			apis := make([]string, len(d.APIs))
			for i, api := range d.APIs {
				apis[i] = api.String()
			}
			fmt.Printf("    %-12s rank %d  %-24s %-22s %-18s %s\n",
				d.Name, d.Rank, strings.Join(apis, "/"), d.Dwarf, d.Domain, d.Application)
			for _, e := range d.Exclusions {
				scope := "all APIs"
				if e.API != "" {
					scope = e.API.String()
				}
				fmt.Printf("    %-12s         excluded on %s (%s): %s\n", "", e.Platform, scope, e.Reason)
			}
		}
	}
	fmt.Println("\nPlatforms:")
	for _, p := range platforms.All() {
		fmt.Printf("  %-16s %s\n", p.ID, p.Profile.String())
	}
}

func selectExperiments(id string) ([]experiments.Experiment, error) {
	if id == "all" {
		return experiments.All(), nil
	}
	e, err := experiments.ByID(id)
	if err != nil {
		return nil, err
	}
	return []experiments.Experiment{e}, nil
}

func runExperiments(id string, opts experiments.Options, format, outDir string) error {
	selected, err := selectExperiments(id)
	if err != nil {
		return err
	}
	var jsonDocs []*report.Document // collected for a combined stdout document
	flushJSON := func() error {
		if format != "json" || outDir != "" {
			return nil
		}
		// One valid JSON value on stdout, however many experiments ran.
		data, err := report.EncodeJSON(jsonDocs)
		if err != nil {
			return err
		}
		os.Stdout.Write(data)
		return nil
	}
	degraded := 0
	for i, e := range selected {
		doc, err := e.Run(opts)
		if err != nil {
			if errors.Is(err, context.Canceled) {
				// Interrupted: everything that completed is already on disk or
				// in jsonDocs; flush it so the partial run is still usable.
				if ferr := flushJSON(); ferr != nil {
					return ferr
				}
				return &exitError{exitHard, fmt.Errorf(
					"interrupted after %d of %d experiments; partial results flushed", i, len(selected))}
			}
			return fmt.Errorf("%s: %w", e.ID, err)
		}
		if doc.Degraded() {
			degraded++
		}
		var body string
		switch format {
		case "csv":
			body = doc.CSV()
		case "markdown":
			body = doc.Markdown()
		case "json":
			if outDir == "" {
				jsonDocs = append(jsonDocs, doc)
				continue
			}
			data, err := report.EncodeJSON([]*report.Document{doc})
			if err != nil {
				return err
			}
			body = string(data)
		default:
			body = doc.Render()
		}
		if outDir == "" {
			fmt.Println(body)
			continue
		}
		if err := os.MkdirAll(outDir, 0o755); err != nil {
			return err
		}
		ext := map[string]string{"csv": "csv", "markdown": "md", "json": "json"}[format]
		if ext == "" {
			ext = "txt"
		}
		path := filepath.Join(outDir, e.ID+"."+ext)
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", path)
	}
	if err := flushJSON(); err != nil {
		return err
	}
	if degraded > 0 {
		return &exitError{exitDegraded, fmt.Errorf(
			"%d of %d experiments degraded (failed cells recorded in their documents)", degraded, len(selected))}
	}
	return nil
}

// baselineSource resolves per-experiment baseline documents from either a
// directory of <id>.json files (the -run all -format json -o layout) or a
// single combined file. Decoded files are cached so -check all does not
// re-read and re-decode the combined baseline once per experiment.
type baselineSource struct {
	path  string
	isDir bool
	cache map[string]*report.Document // experiment id -> document, per decoded file
}

func newBaselineSource(path string) (*baselineSource, error) {
	info, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	return &baselineSource{path: path, isDir: info.IsDir(), cache: map[string]*report.Document{}}, nil
}

func (b *baselineSource) doc(id string) (*report.Document, error) {
	if d, ok := b.cache[id]; ok {
		return d, nil
	}
	path := b.path
	if b.isDir {
		path = filepath.Join(b.path, id+".json")
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	docs, err := report.DecodeJSON(data)
	if err != nil {
		return nil, err
	}
	for _, d := range docs {
		b.cache[d.ID] = d
	}
	if d, ok := b.cache[id]; ok {
		return d, nil
	}
	return nil, fmt.Errorf("baseline %s has no document for experiment %q", path, id)
}

// runCheck runs the selected experiments and compares each against the
// paper's published values (internal/expected) and, when -baseline is given,
// against a previous JSON run. Any failed check — including a degraded cell
// under -keep-going — makes the command exit with the fidelity-drift code.
func runCheck(id string, opts experiments.Options, baselinePath string, baselineTol float64) error {
	// Fail fast if the pinned expectations reference benchmarks or experiments
	// that no longer exist, before spending any time running experiments.
	if err := expected.Validate(experiments.IDs()); err != nil {
		return err
	}
	selected, err := selectExperiments(id)
	if err != nil {
		return err
	}
	var baselines *baselineSource
	if baselinePath != "" {
		if baselines, err = newBaselineSource(baselinePath); err != nil {
			return fmt.Errorf("loading baseline: %w", err)
		}
	}
	passed, failed := 0, 0
	for _, e := range selected {
		hasExp := expected.HasExpectations(e.ID)
		if !hasExp && baselines == nil {
			fmt.Printf("== check %s: skipped (no published values recorded)\n\n", e.ID)
			continue
		}
		doc, err := e.Run(opts)
		if err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
		var checks []expected.Check
		if hasExp {
			checks = expected.CompareDocument(e.ID, doc)
		}
		if baselines != nil {
			base, err := baselines.doc(e.ID)
			if err != nil {
				return fmt.Errorf("%s: loading baseline: %w", e.ID, err)
			}
			checks = append(checks, expected.DiffDocuments(e.ID, base, doc, baselineTol)...)
		}
		fmt.Printf("== check %s: %s ==\n", e.ID, e.Title)
		for _, c := range checks {
			fmt.Printf("  %s\n", c)
			if c.Pass {
				passed++
			} else {
				failed++
			}
		}
		fmt.Println()
	}
	fmt.Printf("check: %d passed, %d failed\n", passed, failed)
	if failed > 0 {
		return &exitError{exitDrift, fmt.Errorf("%d of %d checks failed", failed, passed+failed)}
	}
	return nil
}

// runCalibrate prints the per-benchmark calibration error report for the
// selected platform(s) and, with sweep, the deterministic driver-knob sweep's
// proposed platform values. Any target outside its tolerance makes the
// command exit 1 (after the full report), like -check.
func runCalibrate(id string, opts experiments.Options, sweep bool, passes int) error {
	var selected []*platforms.Platform
	if id == "all" {
		selected = platforms.All()
	} else {
		p, err := platforms.ByID(id)
		if err != nil {
			return err
		}
		selected = []*platforms.Platform{p}
	}
	failed := 0
	for _, p := range selected {
		if sweep {
			res, err := calibrate.Sweep(p, calibrate.Options{
				Experiments: opts,
				Passes:      passes,
				Progress:    os.Stderr,
			})
			if err != nil {
				return err
			}
			fmt.Print(res.Final)
			fmt.Print(res)
			for _, t := range res.Final.Targets {
				if !t.Pass {
					failed++
				}
			}
			continue
		}
		rep, err := calibrate.Measure(p, opts)
		if err != nil {
			return err
		}
		fmt.Print(rep)
		for _, t := range rep.Targets {
			if !t.Pass {
				failed++
			}
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d calibration targets outside tolerance", failed)
	}
	return nil
}

func runBenchmark(name, platformID string, opts experiments.Options) error {
	b, err := core.Get(name)
	if err != nil {
		return err
	}
	p, err := platforms.ByID(platformID)
	if err != nil {
		return err
	}
	runner := opts.Runner()
	fmt.Printf("%s on %s\n", b.Name(), p.Profile.Name)
	fmt.Printf("%-10s %-9s %28s %28s %10s\n", "workload", "api", "kernel", "total", "dispatches")
	for _, w := range b.Workloads(p.Profile.Class) {
		for _, api := range hw.AllAPIs() {
			res, err := runner.Run(p, b, api, w)
			if err != nil {
				// Exclusions are expected (Table IV driver quirks); anything
				// else is a genuine benchmark failure and must not be hidden.
				var excl *core.ExclusionError
				if errors.As(err, &excl) {
					fmt.Printf("%-10s %-9s skipped: %s\n", w.Label, api, excl.Reason)
					continue
				}
				return err
			}
			fmt.Printf("%-10s %-9s %28s %28s %10d\n", w.Label, api,
				report.FormatDurationStats(res.KernelStats),
				report.FormatDurationStats(res.TotalStats), res.Dispatches)
		}
	}
	return nil
}
