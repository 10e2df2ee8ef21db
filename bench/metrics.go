package main

import (
	"fmt"
	"io"
)

// metricDef names one metric. BENCHMARK.json repeats these tables for
// the driver; TestBenchmarkJSONMatches keeps the two in step.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only: allowed worsening, as a share of the baseline median
	// moves is the end-to-end metric@workload a layer metric should move.
	moves string
}

// endToEnd is what a user of the system sees; every workload reports all
// of them from the untraced run. A fifth number, fail_share (failed /
// attempted, any rise is a regression), is derived from the run's
// attempted and failed counts rather than listed here, because the
// contract wants metrics that are never 0.
var endToEnd = []metricDef{
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "op_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "alloc_kb_per_op", Unit: "KiB", Better: "lower", Bound: 0.10},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
}

// perLayer is reported by the traced run. A layer is a package of the
// product; the prefix names it.
var perLayer = []metricDef{
	{Name: "topogen.generate_ms", Unit: "ms", Better: "lower", moves: "op_p50_ms@start_cold"},
	{Name: "simulate.converge_ms", Unit: "ms", Better: "lower", moves: "op_p50_ms@start_cold"},
	{Name: "simulate.converge_activations", Unit: "count", Better: "lower", moves: "op_p50_ms@start_cold"},
	{Name: "simulate.new_engine_ms", Unit: "ms", Better: "lower", moves: "op_p50_ms@start_cached, setup_s@serve_*, setup_s@sweep_*"},
	{Name: "simulate.clone_ms", Unit: "ms", Better: "lower", moves: "op_p50_ms@serve_whatif, ops_per_s@sweep_policy"},
	{Name: "simulate.apply_link_ms", Unit: "ms", Better: "lower", moves: "ops_per_s@sweep_links"},
	{Name: "simulate.rollback_ms", Unit: "ms", Better: "lower", moves: "ops_per_s@sweep_links"},
	{Name: "simulate.apply_policy_ms", Unit: "ms", Better: "lower", moves: "ops_per_s@sweep_policy"},
	{Name: "simulate.rollback_refused_share", Unit: "ratio", Better: "lower", moves: "ops_per_s@sweep_policy"},
	{Name: "routeviews.collect_ms", Unit: "ms", Better: "lower", moves: "op_p50_ms@start_cold"},
	{Name: "studyfmt.encode_ms", Unit: "ms", Better: "lower", moves: "op_p50_ms@start_cold"},
	{Name: "studyfmt.decode_ms", Unit: "ms", Better: "lower", moves: "op_p50_ms@start_cached"},
	{Name: "studyfmt.blob_bytes", Unit: "bytes", Better: "lower", moves: "op_p50_ms@start_cached"},
	{Name: "dataset.load_miss_ms", Unit: "ms", Better: "lower", moves: "op_p50_ms@start_cold"},
	{Name: "dataset.load_hit_ms", Unit: "ms", Better: "lower", moves: "op_p50_ms@start_cached"},
	{Name: "dataset.pool_session_hit_us", Unit: "us", Better: "lower", moves: "op_p50_ms@serve_query"},
	{Name: "dataset.session_heap_mb", Unit: "MiB", Better: "lower", moves: "alloc_kb_per_op@start_cached"},
	{Name: "session.run_ms", Unit: "ms", Better: "lower", moves: "op_p50_ms@serve_query"},
	{Name: "session.whatif_ms", Unit: "ms", Better: "lower", moves: "op_p50_ms@serve_whatif"},
	{Name: "session.whatif_report_ms", Unit: "ms", Better: "lower", moves: "op_p50_ms@serve_whatif"},
	{Name: "session.warm_ms", Unit: "ms", Better: "lower", moves: "op_p50_ms@start_cold, op_p50_ms@start_cached"},
	{Name: "experiment.render_json_ms", Unit: "ms", Better: "lower", moves: "op_p50_ms@serve_query"},
	{Name: "experiment.response_bytes", Unit: "bytes", Better: "lower", moves: "op_p50_ms@serve_query"},
	{Name: "sweep.expand_ms", Unit: "ms", Better: "lower", moves: "setup_s@sweep_links, setup_s@sweep_policy"},
	{Name: "sweep.impact_ms", Unit: "ms", Better: "lower", moves: "ops_per_s@sweep_links"},
	{Name: "sweep.aggregate_us", Unit: "us", Better: "lower", moves: "ops_per_s@sweep_links"},
	{Name: "sweep.executor_overhead_ms", Unit: "ms", Better: "lower", moves: "ops_per_s@sweep_links"},
	{Name: "sweep.worker_utilization", Unit: "ratio", Better: "higher", moves: "ops_per_s@sweep_links"},
	{Name: "sweep.j2_vs_j1", Unit: "ratio", Better: "higher", moves: "none: what a second worker on a second core would buy"},
	{Name: "sweep.records_per_s", Unit: "1/s", Better: "higher", moves: "ops_per_s@sweep_links"},
	{Name: "sweep.reclone_share", Unit: "ratio", Better: "lower", moves: "ops_per_s@sweep_policy"},
	{Name: "server.inproc_ms", Unit: "ms", Better: "lower", moves: "op_p50_ms@serve_query, op_p50_ms@serve_whatif"},
	{Name: "server.self_ms", Unit: "ms", Better: "lower", moves: "op_p50_ms@serve_query, op_p50_ms@serve_whatif"},
	{Name: "server.wire_ms", Unit: "ms", Better: "lower", moves: "op_p50_ms@serve_query"},
	{Name: "server.shed_share", Unit: "ratio", Better: "lower", moves: "ops_per_s@serve_query, ops_per_s@serve_whatif"},
	{Name: "server.op_tail_ms", Unit: "ms", Better: "lower", moves: "op_p50_ms of the traced workload"},
	{Name: "server.op_tail_pct", Unit: "%", Better: "higher", moves: "which percentile op_tail_ms is"},
	{Name: "process.peak_rss_mb", Unit: "MiB", Better: "lower", moves: "alloc_kb_per_op of the traced workload"},
	{Name: "process.gc_cpu_share", Unit: "ratio", Better: "lower", moves: "ops_per_s of the traced workload"},
	{Name: "trace.overhead_pct", Unit: "%", Better: "lower", moves: "none: the cost of a root span per operation"},
	{Name: "trace.coverage", Unit: "ratio", Better: "higher", moves: "none: share of the operation the layer spans explain"},
}

// list prints every workload and metric name with unit and bound.
func list(w io.Writer) {
	fmt.Fprintln(w, "workloads:")
	for _, wl := range workloads {
		fmt.Fprintf(w, "  %-14s %s\n", wl.name, wl.why)
	}
	fmt.Fprintln(w, "end-to-end metrics (untraced run, every workload):")
	for _, m := range endToEnd {
		fmt.Fprintf(w, "  %-32s %-6s %-6s may worsen by %.0f %%\n", m.Name, m.Unit, m.Better, m.Bound*100)
	}
	fmt.Fprintf(w, "  %-32s %-6s %-6s any rise is a regression\n", "fail_share", "ratio", "lower")
	fmt.Fprintln(w, "per-layer metrics (traced run):")
	for _, m := range perLayer {
		fmt.Fprintf(w, "  %-32s %-6s %-6s -> %s\n", m.Name, m.Unit, m.Better, m.moves)
	}
}
