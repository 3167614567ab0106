// Command perfbench is the repository's benchmark. It runs one named
// workload in this process, checks every output it produces, and prints the
// workload's metrics; the last line of standard output is one JSON object
// with the keys correct, attempted, failed and metrics.
//
//	perfbench --workload warm-figures --seed 42 --seconds 15 --trace 0
//
// With --trace 0 the metrics are the end-to-end metrics, measured with
// tracing off. With --trace 1 the same workload runs with spans around every
// layer call and the metrics are the per-layer ones; the spans are written to
// the results directory. See README.md for every metric and workload.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"vcomputebench/internal/codeversion"
	"vcomputebench/internal/core"
	"vcomputebench/internal/experiments"
	"vcomputebench/internal/hw"
	"vcomputebench/internal/platforms"
)

// workloads maps each workload name to its driver.
var workloads = map[string]func(*env) (*result, error){
	"cold-figures":    func(e *env) (*result, error) { return runFigures(e, coldExperiments, false) },
	"warm-figures":    func(e *env) (*result, error) { return runFigures(e, warmExperiments(), true) },
	"serve-replay":    runServe,
	"calibrate-sweep": runCalibrate,
}

// cheapSetupReps is how often a set-up of a few milliseconds is repeated;
// setup_s is the median.
const cheapSetupReps = 7

// env is what a workload driver gets: the run's settings and a scratch
// directory that is removed when the run ends.
type env struct {
	seed    int64
	seconds time.Duration
	tr      *Tracer // nil when tracing is off
	work    string
	// workers bounds suite parallelism and client connections: the
	// benchmark is sized for two CPUs and never uses more.
	workers int
}

// result is a workload's outcome.
type result struct {
	attempted, failed int
	problems          []string
	e2e               map[string]float64
	layers            map[string]float64
	// headline are the workload's own numbers under their workflow's names
	// (cells_per_s, req_p99_ms, paper_err_pct, ...), printed for people.
	headline []headlineMetric
}

type headlineMetric struct {
	name, unit string
	value      float64
}

func newResult() *result {
	return &result{e2e: map[string]float64{}, layers: map[string]float64{}}
}

// fail records a failed check covering ops operations.
func (r *result) fail(ops int, format string, args ...any) {
	if ops < 1 {
		ops = 1
	}
	r.failed += ops
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

func (r *result) headlineMetric(name, unit string, v float64) {
	r.headline = append(r.headline, headlineMetric{name, unit, v})
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload name: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 42, "workload seed")
	seconds := fs.Float64("seconds", 15, "measured seconds per run")
	trace := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	out := fs.String("out", filepath.Join(".bench_build", "perfbench"), "directory for scratch stores, spans and result files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	drive, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (%s), --seconds > 0 and --trace 0|1\n", strings.Join(workloadNames(), ", "))
		return 2
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	work, err := os.MkdirTemp(*out, "work-")
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(work)

	e := &env{
		seed:    *seed,
		seconds: time.Duration(*seconds * float64(time.Second)),
		work:    work,
		workers: min(2, runtime.NumCPU()),
	}
	if *trace == 1 {
		e.tr = NewTracer()
	}
	res, err := drive(e)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *workload, err)
		return 1
	}
	res.headlineMetric("fail_frac", "ratio", float64(res.failed)/float64(max(res.attempted, 1)))
	res.headlineMetric("rss_peak_mb", "MB", peakRSSMB())

	tag := fmt.Sprintf("%s-seed%d-trace%d", *workload, *seed, *trace)
	prov := provenance(*workload, *seed, *trace)
	var defs []metricDef
	values := res.e2e
	if e.tr != nil {
		defs, values = perLayer(warmExperiments()), res.layers
		spanFile := filepath.Join(*out, "spans-"+tag+".json")
		if err := e.tr.WriteFile(spanFile); err != nil {
			fmt.Fprintf(stderr, "perfbench: writing spans: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "spans: %s (%d)\n", spanFile, len(e.tr.Spans()))
	} else {
		defs = endToEnd
	}

	metrics := map[string]any{}
	for _, d := range defs {
		metrics[d.name] = map[string]any{"value": finite(values[d.name]), "unit": d.unit}
	}
	for _, h := range res.headline {
		fmt.Fprintf(stdout, "%-24s %14.6g %s\n", h.name, h.value, h.unit)
	}
	for _, p := range res.problems {
		fmt.Fprintf(stdout, "FAILED CHECK: %s\n", p)
	}
	provJSON, _ := json.Marshal(prov) // a map of strings always encodes
	fmt.Fprintf(stdout, "provenance: %s\n", provJSON)

	correct := res.failed == 0
	final := map[string]any{
		"correct":   correct,
		"attempted": max(res.attempted, 1),
		"failed":    res.failed,
		"metrics":   metrics,
	}
	line, err := json.Marshal(final)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: encoding result: %v\n", err)
		return 1
	}
	// Every value is finite and every key a string, so encoding cannot fail.
	record, _ := json.MarshalIndent(map[string]any{"provenance": prov, "result": final, "headline": headlineMap(res.headline), "problems": res.problems}, "", "  ")
	if err := os.WriteFile(filepath.Join(*out, "result-"+tag+".json"), append(record, '\n'), 0o644); err != nil {
		fmt.Fprintf(stderr, "perfbench: writing result: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !correct {
		return 1
	}
	return 0
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func headlineMap(hs []headlineMetric) map[string]any {
	m := map[string]any{}
	for _, h := range hs {
		m[h.name] = map[string]any{"value": finite(h.value), "unit": h.unit}
	}
	return m
}

// finite maps NaN and ±Inf (an empty sample set) to 0: JSON has no NaN.
func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

func warmExperiments() []string {
	var ids []string
	for _, id := range experiments.IDs() {
		if !warmSkip[id] {
			ids = append(ids, id)
		}
	}
	return ids
}

// provenance identifies the host, build and inputs of a result.
func provenance(workload string, seed int64, trace int) map[string]string {
	commit := os.Getenv("PERFBENCH_COMMIT")
	if commit == "" {
		commit = "unknown"
	}
	return map[string]string{
		"workload":     workload,
		"seed":         fmt.Sprint(seed),
		"trace":        fmt.Sprint(trace),
		"cpu_model":    cpuModel(),
		"nproc":        fmt.Sprint(runtime.NumCPU()),
		"gomaxprocs":   fmt.Sprint(runtime.GOMAXPROCS(0)),
		"go_version":   runtime.Version(),
		"code_version": codeversion.Fingerprint(),
		"commit":       commit,
	}
}

// cpuModel reads the first "model name" of /proc/cpuinfo ("unknown" where
// there is none).
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if name, value, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(name) == "model name" {
			return strings.TrimSpace(value)
		}
	}
	return "unknown"
}

// usage is the process's cumulative allocation count and CPU time.
type usage struct {
	mallocs uint64
	cpu     time.Duration
}

func readUsage() usage {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return usage{mallocs: ms.Mallocs, cpu: time.Duration(ru.Utime.Nano() + ru.Stime.Nano())}
}

// perOp sets allocs_per_op and cpu_ms_per_op for ops operations run between
// two readings.
func (r *result) perOp(before, after usage, ops int) {
	n := float64(max(ops, 1))
	r.e2e["allocs_per_op"] = float64(after.mallocs-before.mallocs) / n
	r.e2e["cpu_ms_per_op"] = float64(after.cpu-before.cpu) / float64(time.Millisecond) / n
}

// warmUpCell executes one small cell uncached, so the process's lazy set-up
// (kernel registry, pools) happens outside the timed window.
func warmUpCell() error {
	b, err := core.Get("bfs")
	if err != nil {
		return err
	}
	p := platforms.PowerVRG6430()
	runner := &core.Runner{Repetitions: 1, Seed: 42}
	_, err = runner.Run(p, b, hw.APIVulkan, b.Workloads(p.Profile.Class)[0])
	return err
}

// peakRSSMB is the process's peak resident set (getrusage), in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
