package main

// metricSpec names one metric. BENCHMARK.json repeats these tables (a
// test keeps the two in step); compare reads direction and bound here.
type metricSpec struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the baseline median an end-to-end metric may
	// worsen by before it counts as a regression. Per-layer metrics have
	// none.
	Bound float64
}

// endToEnd is what a user of the engine sees, measured with tracing off.
// The same names are reported on every workload.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"lat_p50_ms", "ms", "lower", 0.25},
	{"cpu_ms_per_stmt", "ms", "lower", 0.25},
	{"allocs_per_stmt", "count", "lower", 0.03},
	{"alloc_kb_per_stmt", "KB", "lower", 0.03},
	{"data_heap_mb", "MB", "lower", 0.05},
}

// perLayer attributes the end-to-end numbers to the repository's
// packages; the prefix before the first dot is the package. Time metrics
// are per statement, mean over the traced passes, unless the README says
// otherwise. A metric that does not apply to a workload reads 0 there.
var perLayer = []metricSpec{
	{"sql.parse_us", "us", "lower", 0},
	{"binder.bind_us", "us", "lower", 0},
	{"hep.run_us", "us", "lower", 0},
	{"volcano.optimize_us", "us", "lower", 0},
	{"volcano.allocs", "count", "lower", 0},
	{"volcano.tickets", "count", "lower", 0},
	{"plancache.hit_us", "us", "lower", 0},
	{"physical.clone_us", "us", "lower", 0},
	{"fragment.split_us", "us", "lower", 0},
	{"fragment.fragments", "count", "lower", 0},
	{"cluster.run_us", "us", "lower", 0},
	{"cluster.run_allocs", "count", "lower", 0},
	{"cluster.sched_us", "us", "lower", 0},
	{"cluster.parallelism", "ratio", "higher", 0},
	{"cluster.instances", "count", "lower", 0},
	{"cluster.waves", "count", "lower", 0},
	{"exec.scan_us", "us", "lower", 0},
	{"exec.filter_us", "us", "lower", 0},
	{"exec.project_us", "us", "lower", 0},
	{"exec.hashagg_us", "us", "lower", 0},
	{"exec.sort_us", "us", "lower", 0},
	{"exec.hashjoin_us", "us", "lower", 0},
	{"exec.mergejoin_us", "us", "lower", 0},
	{"exec.nljoin_us", "us", "lower", 0},
	{"exec.send_us", "us", "lower", 0},
	{"exec.recv_us", "us", "lower", 0},
	{"exec.other_us", "us", "lower", 0},
	{"exec.ns_per_row", "ns", "lower", 0},
	{"exec.rows_in", "count", "lower", 0},
	{"exec.rows_shipped", "count", "lower", 0},
	{"exec.work_units", "count", "lower", 0},
	{"engine.modeled_ms_per_pass", "ms", "lower", 0},
	{"engine.shipped_kb_per_pass", "KB", "lower", 0},
	{"tpch.gen_ms", "ms", "lower", 0},
	{"ssb.gen_ms", "ms", "lower", 0},
	{"storage.load_ms", "ms", "lower", 0},
	{"storage.index_ms", "ms", "lower", 0},
	{"storage.stats_ms", "ms", "lower", 0},
	{"storage.heap_bytes_per_row", "B", "lower", 0},
	{"wire.encode_us", "us", "lower", 0},
	{"wire.decode_us", "us", "lower", 0},
	{"wire.bytes", "B", "lower", 0},
	{"server.overhead_us", "us", "lower", 0},
	{"server.pipelining_rejects", "count", "lower", 0},
	{"driver.overhead_us", "us", "lower", 0},
	{"driver.retried_share", "ratio", "lower", 0},
	{"runtime.gc_cpu_share", "ratio", "lower", 0},
	{"runtime.gc_cycles_per_kstmt", "count", "lower", 0},
	{"runtime.gc_pause_max_us", "us", "lower", 0},
	{"runtime.peak_rss_mb", "MB", "lower", 0},
	{"client.lat_p90_ms", "ms", "lower", 0},
	{"client.lat_p99_ms", "ms", "lower", 0},
	{"client.lat_max_ms", "ms", "lower", 0},
	{"client.passes", "count", "higher", 0},
	{"client.stmt_per_s", "1/s", "higher", 0},
	{"client.stmt_p50_ms.s1", "ms", "lower", 0},
	{"client.stmt_p50_ms.s2", "ms", "lower", 0},
	{"client.stmt_p50_ms.s3", "ms", "lower", 0},
	{"client.stmt_p50_ms.s4", "ms", "lower", 0},
	{"client.stmt_p50_ms.s5", "ms", "lower", 0},
	{"trace.coverage", "ratio", "higher", 0},
}

// maxStatements is how many per-statement client metrics exist.
const maxStatements = 5

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report fills every metric of specs from got. A metric the run did not
// produce reads 0 (it does not apply to the workload).
func report(specs []metricSpec, got map[string]float64) map[string]metricValue {
	out := make(map[string]metricValue, len(specs))
	for _, s := range specs {
		out[s.Name] = metricValue{Value: got[s.Name], Unit: s.Unit}
	}
	return out
}
