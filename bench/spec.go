package main

// This file is the benchmark's contract with BENCHMARK.json: the
// workloads, the end-to-end metrics with their regression bounds, and the
// per-layer metrics. bench_test.go fails when the two disagree, so the
// JSON and the code cannot drift apart.

// runSeconds is how long one run measures unless -seconds says otherwise
// (BENCHMARK.json "run_seconds").
const runSeconds = 20

// workloadSpec names one workload and why the benchmark runs it.
type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

var workloadSpecs = []workloadSpec{
	{"paper-eval", "the offline evaluation: Table 3, the five Fig. 6 panels and Fig. 7 on a fresh runner per pass; compiler, sim and pipeline do all the work"},
	{"serve-cold", "the paper's 111 evaluation points as requests, each a new instance and key, via router and two daemons: compiler and sim under the serving stack, a store write each"},
	{"serve-hot", "the 111 points compiled in set-up, drawn Zipf(1.1), an assumed skew: no compiles, so fleet and service HTTP, LRU hits and store reads for the tail"},
	{"edit-async", "assumed editing sessions (a deep QAOA base, 9 one-gate tail edits) as QASM via async jobs and SSE: qasm parsing, the job queue, prefix resumption"},
	{"verify-large", "cold ?verify=1 compiles of the Fig. 6 families at 16-20 qubits under the Table-3 schemes: the state-vector oracle dominates, used nowhere else"},
}

// metricSpec is one metric of BENCHMARK.json. Bound is the share of the
// parent's median by which an end-to-end metric may worsen; per-layer
// metrics have none.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics a user of the compiler or the service sees,
// measured with tracing off. Every workload reports all of them. The two
// quality metrics are outputs of the hardware model, not measured times:
// texe's unit, sim-ms, is milliseconds of modelled execution.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "ops/s", "higher", 0.25},
	{"cpu_ms_per_op", "ms", "lower", 0.25},
	{"lat_ms_p50", "ms", "lower", 0.25},
	{"lat_ms_p90", "ms", "lower", 0.25},
	{"peak_rss_mb", "MiB", "lower", 0.25},
	{"fidelity_geomean", "fraction", "higher", 0.05},
	{"texe_ms_geomean", "sim-ms", "lower", 0.05},
}

// zonedPasses and enolaPasses are the pass names of the two compiler
// pipelines, in execution order (compiler.Zoned, compiler.Enola).
var (
	zonedPasses = []string{"validate", "place", "lower", "stage-partition", "stage-order", "route", "group", "collsched-order", "batch", "emit"}
	enolaPasses = []string{"validate", "place", "lower", "mis-stage", "route-home", "group", "batch", "emit"}
)

// perLayer are the traced run's metrics, one or more per layer. README.md
// maps each to the end-to-end metric and workload it should move.
var perLayer = buildPerLayer()

func buildPerLayer() []metricSpec {
	var ms []metricSpec
	add := func(name, unit, better string) { ms = append(ms, metricSpec{Name: name, Unit: unit, Better: better}) }
	for _, p := range zonedPasses {
		add("compiler.zoned."+p+".self_ms", "ms", "lower")
	}
	add("compiler.zoned.total_ms", "ms", "lower")
	for _, c := range []string{"stages", "moves", "coll_moves", "batches"} {
		add("compiler."+c, "count", "lower")
	}
	for _, p := range enolaPasses {
		add("compiler.enola."+p+".self_ms", "ms", "lower")
	}
	add("compiler.enola.total_ms", "ms", "lower")
	add("pipeline.slowest_job_ms", "ms", "lower")
	add("pipeline.cache_hit_ratio", "fraction", "higher")
	add("pipeline.compiles", "count", "lower")
	add("sim.execute_ms_p50", "ms", "lower")
	add("sim.execute_ms_total", "ms", "lower")
	add("verify.physical_ms_p50", "ms", "lower")
	add("verify.equivalence_ms_p50", "ms", "lower")
	add("verify.oracle_amps", "count", "lower")
	add("verify.violations", "count", "lower")
	add("store.put_ms_p50", "ms", "lower")
	add("store.get_ms_p50", "ms", "lower")
	add("store.hit_ratio", "fraction", "higher")
	add("store.corrupt", "count", "lower")
	add("service.deduped", "count", "higher")
	add("service.http_self_ms_p50", "ms", "lower")
	add("service.http_self_ms_p99", "ms", "lower")
	add("service.encode_ms_p50", "ms", "lower")
	add("incremental.prefix_hit_ratio", "fraction", "higher")
	add("incremental.warm_starts", "count", "higher")
	add("qasm.parse_ms_p50", "ms", "lower")
	add("workload.gen_ms_p50", "ms", "lower")
	add("jobs.queue_wait_ms_p50", "ms", "lower")
	add("jobs.queue_wait_ms_p99", "ms", "lower")
	add("jobs.events_ms_p50", "ms", "lower")
	add("jobs.attached", "count", "higher")
	add("jobs.shed", "count", "lower")
	add("fleet.self_ms_p50", "ms", "lower")
	add("fleet.self_ms_p99", "ms", "lower")
	add("fleet.forward_self_ms_p50", "ms", "lower")
	add("fleet.retried", "count", "lower")
	add("fleet.failovers", "count", "lower")
	add("runtime.alloc_kb_per_op", "KiB", "lower")
	add("runtime.gc_cycles", "count", "lower")
	add("runtime.gc_pause_ms", "ms", "lower")
	add("trace.overhead_pct", "%", "lower")
	return ms
}
