package main

// layerMetric is one per-layer metric of the traced run's ledger: the
// end-to-end metric (and workload) it should move, and where no change
// is predicted. Later performance changes cite these names.
type layerMetric struct {
	name, unit string
	moves      string
	steady     string
}

// ledger lists every per-layer metric in BENCHMARK.json order. Layers
// are the internal/ packages; "runtime" is the Go runtime.
var ledger = []layerMetric{
	{"serve.submit_ms", "ms", "job_p50_s, job_tail_s on repeat-service", "clips, layout-cold (one client)"},
	{"serve.queue_wait_s", "s", "job_p50_s, job_tail_s on repeat-service", "clips, layout-cold (one client)"},
	{"serve.run_s", "s", "job_p50_s, job_tail_s on repeat-service", "clips, layout-cold (one client)"},
	{"serve.refused", "count", "job_p50_s, job_tail_s on repeat-service", "clips, layout-cold (one client)"},

	{"tile.windows_per_job", "count", "job_p50_s, um2_per_s on layout-cold", "clips"},
	{"tile.plan_ms", "ms", "job_p50_s, um2_per_s on layout-cold", "clips"},
	{"tile.compute_s", "s", "job_p50_s, um2_per_s on layout-cold", "clips"},
	{"tile.inflight_mean", "count", "job_p50_s, um2_per_s on layout-cold", "clips"},
	{"tile.stitch_ms", "ms", "job_p50_s, um2_per_s on layout-cold", "clips"},
	{"tile.evaluate_s", "s", "job_p50_s on layout-cold and repeat-service", "clips"},

	{"ilt.iters_per_window", "count", "suite_s on clips; job_p50_s, cpu_s_per_um2 on layout-cold", "repeat-service (mostly)"},
	{"ilt.iter_ms", "ms", "suite_s on clips; job_p50_s, cpu_s_per_um2 on layout-cold", "repeat-service (mostly)"},
	{"ilt.useful_iter_ratio", "ratio", "suite_s on clips; job_p50_s, cpu_s_per_um2 on layout-cold", "repeat-service (mostly)"},
	{"ilt.forward_ms", "ms", "suite_s on clips; job_p50_s, cpu_s_per_um2 on layout-cold", "repeat-service (mostly)"},

	{"sim.aerial_ms", "ms", "suite_s on clips (exact more than fast); job_p50_s on layout-cold", "repeat-service (mostly)"},
	{"sim.aerial_combined_ms", "ms", "suite_s on clips (exact more than fast); job_p50_s on layout-cold", "repeat-service (mostly)"},
	{"fft.forward_per_iter", "count", "suite_s on clips; job_p50_s on layout-cold", "repeat-service (mostly)"},
	{"fft.inverse_per_iter", "count", "suite_s on clips; job_p50_s on layout-cold", "repeat-service (mostly)"},
	{"fft.fallback", "count", "suite_s on clips; job_p50_s on layout-cold", "repeat-service (mostly)"},

	{"optics.kernel_build_s", "s", "setup_s on all workloads", "-"},
	{"optics.kernel_cache_hit_ratio", "ratio", "setup_s on all workloads", "-"},

	{"metrics.evaluate_ms", "ms", "suite_s on clips (small share); job_p50_s on repeat-service", "-"},
	{"metrics.quality_per_um2", "pts/um2", "pvb_nm2_per_um2 on all workloads", "all workloads, for a pure speed change"},
	{"metrics.epe_viol_per_um2", "1/um2", "metrics.quality_per_um2 on all workloads (a check keeps it 0 on clips)", "all workloads, for a pure speed change"},
	{"metrics.shape_viol_per_um2", "1/um2", "metrics.quality_per_um2 on all workloads (a check keeps it 0)", "all workloads"},

	{"cache.hit_ratio", "ratio", "job_p50_s, um2_per_s on repeat-service", "layout-cold (miss path only), clips"},
	{"cache.key_ms", "ms", "job_p50_s, um2_per_s on repeat-service", "layout-cold (miss path only), clips"},
	{"cache.hit_ms", "ms", "job_p50_s, um2_per_s on repeat-service", "layout-cold (miss path only), clips"},
	{"cache.entries", "count", "job_p50_s, um2_per_s on repeat-service", "layout-cold (miss path only), clips"},
	{"cache.evictions", "count", "job_p50_s, um2_per_s on repeat-service", "layout-cold (miss path only), clips"},

	{"warmstart.hit_ratio", "ratio", "job_p50_s on repeat-service", "clips, layout-cold"},
	{"warmstart.accept_ratio", "ratio", "job_p50_s on repeat-service", "clips, layout-cold"},
	{"warmstart.seeded_iters", "count", "job_p50_s on repeat-service", "clips, layout-cold"},
	{"warmstart.cold_iters", "count", "job_p50_s on repeat-service", "clips, layout-cold"},
	{"warmstart.prepare_ms", "ms", "job_p50_s on repeat-service", "clips, layout-cold"},

	{"artifact.commit_ms", "ms", "job_tail_s on repeat-service", "small on clips, layout-cold"},
	{"artifact.dedup_ratio", "ratio", "job_tail_s on repeat-service", "small on clips, layout-cold"},
	{"artifact.records_per_batch", "ratio", "job_tail_s on repeat-service", "small on clips, layout-cold"},
	{"artifact.kb_per_job", "KiB", "job_tail_s on repeat-service", "small on clips, layout-cold"},

	{"par.cpu_util", "ratio", "um2_per_s, cpu_s_per_um2 on layout-cold", "-"},
	{"par.inline_ratio", "ratio", "um2_per_s, cpu_s_per_um2 on layout-cold", "-"},
	{"par.speedup_vs_1core", "x", "um2_per_s, cpu_s_per_um2 on layout-cold", "-"},

	{"grid.pool_hit_ratio", "ratio", "peak_rss_mb, cpu_s_per_um2 on all workloads", "-"},
	{"runtime.alloc_mb_per_um2", "MB/um2", "peak_rss_mb, cpu_s_per_um2 on all workloads", "-"},
	{"runtime.gc_cycles_per_um2", "1/um2", "peak_rss_mb, cpu_s_per_um2 on all workloads", "-"},
}
