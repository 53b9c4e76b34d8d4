package main

// metricDef names one metric of BENCHMARK.json.
type metricDef struct {
	name, unit string
}

// endToEndMetrics are reported with tracing off, on every workload. Their
// per-workload meaning is documented in README.md.
var endToEndMetrics = []metricDef{
	{"setup_s", "s"},
	{"legalize_s", "s"},
	{"legalize_serial_s", "s"},
	{"disp_total_sites", "sites"},
	{"disp_max_sites", "sites"},
	{"delta_hpwl_pct", "%"},
	{"latency_p50_ms", "ms"},
	{"goodput_rps", "1/s"},
	{"peak_rss_mb", "MiB"},
}

// perLayerMetrics are reported by the traced run. A layer a workload does
// not exercise reports 0 with 0 samples.
var perLayerMetrics = []metricDef{
	{"core.pre_iterate_ms", "ms"},
	{"core.assign_ms", "ms"},
	{"core.build_ms", "ms"},
	{"core.post_iterate_ms", "ms"},
	{"core.alloc_mb_per_job", "MiB"},
	{"tetris.ms", "ms"},
	{"tetris.illegal_cells", "count"},
	{"lcp.iterations", "count"},
	{"lcp.iter_us", "us"},
	{"lcp.iter_us_serial", "us"},
	{"lcp.speedup_vs_serial", "ratio"},
	{"lcp.nnz", "count"},
	{"lcp.gbytes_per_s_computed", "GB/s"},
	{"window.count", "count"},
	{"window.partition_ms", "ms"},
	{"window.stitch_ms", "ms"},
	{"window.solve_sum_s", "s"},
	{"window.solve_max_s", "s"},
	{"window.iterations_sum", "count"},
	{"window.speedup_vs_serial", "ratio"},
	{"window.disp_ratio_vs_mono", "ratio"},
	{"window.maxdisp_ratio_vs_mono", "ratio"},
	{"window.retries", "count"},
	{"window.degraded", "count"},
	{"serve.latency_tail_ms", "ms"},
	{"serve.latency_tail_pct", "%"},
	{"serve.cold_p50_ms", "ms"},
	{"serve.hit_p50_ms", "ms"},
	{"serve.warm_p50_ms", "ms"},
	{"serve.hit_frac", "ratio"},
	{"serve.warm_frac", "ratio"},
	{"serve.warm_iter_ratio", "ratio"},
	{"serve.overhead_ms", "ms"},
	{"serve.pool_busy_frac", "ratio"},
	{"serve.status_4xx", "count"},
	{"serve.status_429", "count"},
	{"serve.status_5xx", "count"},
	{"eco.apply_p50_ms", "ms"},
	{"eco.bands_per_apply", "count"},
	{"eco.apply_vs_cold", "ratio"},
	{"loadgen.late_p99_ms", "ms"},
	{"trace.coverage", "ratio"},
	{"trace.overhead_frac", "ratio"},
}
