package main

import (
	"strings"

	"vcomputebench/internal/core"
	"vcomputebench/internal/experiments"
	"vcomputebench/internal/hw"
)

// metricDef is one metric of BENCHMARK.json: name and unit.
type metricDef struct{ name, unit string }

// endToEnd are the untraced metrics every workload reports (BENCHMARK.json
// "end_to_end", same order). An op is a cell (figure workloads), a request
// (serve-replay) or a sweep evaluation (calibrate-sweep); see README.md.
// Latencies and peak RSS are printed with each run but not gated: their
// run-to-run spread on a shared 2-CPU host exceeds any usable bound.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"cpu_ms_per_op", "ms"},
	{"allocs_per_op", "count"},
}

// Experiments per figure workload. Warm-figures is every experiment except
// fig2a, fig2b (the desktop grids cold-figures already executes) and summary
// (which reruns the whole suite).
var (
	coldExperiments = []string{"fig2a", "fig4b", "extensions"}
	warmSkip        = map[string]bool{"fig2a": true, "fig2b": true, "summary": true}
)

var apis = []hw.API{hw.APIVulkan, hw.APICUDA, hw.APIOpenCL}

// perLayer lists the traced metrics (BENCHMARK.json "per_layer", same
// order). A layer a workload does not exercise reports 0.
func perLayer(warmExperiments []string) []metricDef {
	var m []metricDef
	add := func(name, unit string) { m = append(m, metricDef{name, unit}) }
	add("execute.cells", "count")
	add("execute.busy_s", "s")
	for _, b := range core.Names() {
		add("execute.bench."+b+"_s", "s")
	}
	for _, a := range apis {
		add("execute.api."+apiName(a)+"_s", "s")
	}
	add("execute.dispatches", "count")
	add("execute.ms_per_dispatch", "ms")
	add("runner.pool_util", "ratio")
	add("store.gets", "count")
	add("store.hit_ratio", "ratio")
	add("store.get_us_p50", "us")
	add("store.get_us_p99", "us")
	add("store.puts", "count")
	add("store.put_us_p50", "us")
	add("store.mem_hits", "count")
	add("store.disk_hits", "count")
	add("store.disk_bytes", "bytes")
	add("store.disk_get_us_p50", "us")
	add("codec.encode_us_p50", "us")
	add("codec.decode_us_p50", "us")
	add("codec.bytes_p50", "bytes")
	add("replay.us_p50", "us")
	add("replay.us_p99", "us")
	add("replay.allocs_per_call", "count")
	add("hw.fingerprint_us", "us")
	add("platforms.by_id_us", "us")
	for _, id := range figureExperiments(warmExperiments) {
		add("experiments."+id+"_s", "s")
	}
	add("experiments.self_s", "s")
	add("report.encode_json_ms", "ms")
	add("report.encode_wire_us", "us")
	add("serve.handler_us_p50", "us")
	add("serve.handler_us_p99", "us")
	add("serve.net_us_p50", "us")
	add("serve.req_ms_p99", "ms")
	add("serve.gen_late_ms_p99", "ms")
	add("serve.replays", "count")
	add("serve.executions", "count")
	add("serve.shed", "count")
	add("calibrate.evals", "count")
	add("calibrate.baseline_s", "s")
	add("calibrate.eval_ms_p50", "ms")
	add("resid.experiments_pct", "%")
	add("resid.serve_pct", "%")
	add("resid.calibrate_pct", "%")
	add("trace.overhead_pct", "%")
	add("trace.spans", "count")
	return m
}

// figureExperiments is the union of both figure workloads' experiments, in
// paper order.
func figureExperiments(warm []string) []string {
	seen := map[string]bool{}
	for _, id := range coldExperiments {
		seen[id] = true
	}
	for _, id := range warm {
		seen[id] = true
	}
	var out []string
	for _, id := range experiments.IDs() {
		if seen[id] {
			out = append(out, id)
		}
	}
	return out
}

func apiName(a hw.API) string { return strings.ToLower(string(a)) }
