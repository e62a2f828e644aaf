package main

// metricDef describes one reported metric. The end-to-end tier is what
// a user of the system sees and carries the regression bound the
// benchmark fixes for itself; the per-layer tier explains where an
// end-to-end figure comes from and carries no bound. BENCHMARK.json at
// the repository root lists the same names, units, directions and
// bounds (TestBenchmarkJSONMatches keeps the two in step).
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the parent's median it may worsen by
}

// workloadNames are the four workloads, in the order they run.
var workloadNames = []string{"lookup-direct", "lookup-routed", "ingest-fresh", "solve-cold"}

// endToEnd is reported by every workload with --trace 0. Every metric
// here is measured on all four workloads: the lookup figures come from
// the request mix (the measured phase on lookup-*, the canary beside
// the delta stream on ingest-fresh, a short closed-loop probe of the
// refreshed snapshot on solve-cold); boot, recovery and refresh are
// timed on each workload's own topology.
//
// Every bound is the contract's maximum. The two-vCPU box this was
// written on drifts between a fast and a slow state over minutes (the
// same seed reads lookup_p50_us 72 or 103 µs): ten seeds in a calm
// stretch spread by 2–7% of the median, ten that straddle a shift by
// 10–20%. A 10% bound would reject unchanged code.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"boot_ready_s", "s", "lower", 0.25},
	{"recovery_s", "s", "lower", 0.25},
	{"refresh_p50_s", "s", "lower", 0.25},
	{"requests_per_s", "1/s", "higher", 0.25},
	{"lookup_p50_us", "us", "lower", 0.25},
	{"batch_p50_us", "us", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.25},
}

// perLayer is reported with --trace 1. A metric a workload does not
// exercise reads 0 there (shard.router_hop_us on lookup-direct, say),
// which is itself the "bypasses the mechanism" half of a prediction.
var perLayer = []metricDef{
	// The two tails of the request mix. On this shared two-core box they
	// spread by more than any admissible bound on the short probes of
	// ingest-fresh and solve-cold (quartile spread 14–32% over ten seeds),
	// so by the issue's own rule they move here under their names rather
	// than getting a wider bound.
	{"lookup_p99_us", "us", "lower", 0},
	{"batch_p99_us", "us", "lower", 0},

	// Ingest figures as a user sees them. They exist on ingest-fresh
	// only, and the contract wants every end-to-end metric from every
	// workload, so they are reported in this tier under the names the
	// issue gave them.
	{"delta_ack_p50_ms", "ms", "lower", 0},
	{"delta_ack_p90_ms", "ms", "lower", 0},
	{"freshness_p50_ms", "ms", "lower", 0},
	{"freshness_p90_ms", "ms", "lower", 0},
	{"deltas_per_s", "1/s", "higher", 0},

	{"graph.load_ms", "ms", "lower", 0},
	{"graph.load_mb_per_s", "MB/s", "higher", 0},
	{"graph.hostgraph_ms", "ms", "lower", 0},
	{"graph.partition_ms", "ms", "lower", 0},

	{"pagerank.engine_build_ms", "ms", "lower", 0},
	{"pagerank.solve_cold_ms", "ms", "lower", 0},
	{"pagerank.solve_cold_iters", "count", "lower", 0},
	{"pagerank.sweep_edges_per_s_w1", "1/s", "higher", 0},
	{"pagerank.sweep_edges_per_s_wN", "1/s", "higher", 0},
	{"pagerank.sweep_gb_per_s_computed", "GB/s", "higher", 0},
	{"machine.copy_gb_per_s", "GB/s", "higher", 0},
	{"pagerank.solve_warm_ms", "ms", "lower", 0},
	{"pagerank.solve_warm_iters", "count", "lower", 0},
	{"pagerank.warm_iters_per_batch", "count", "lower", 0},

	{"mass.estimate_cold_ms", "ms", "lower", 0},
	{"mass.derive_ms", "ms", "lower", 0},
	{"mass.detect_ms", "ms", "lower", 0},
	{"mass.remap_warm_ms", "ms", "lower", 0},

	{"delta.parse_us", "us", "lower", 0},
	{"delta.apply_ms", "ms", "lower", 0},
	{"delta.split_us", "us", "lower", 0},

	{"serve.snapshot_lookup_ns", "ns", "lower", 0},
	{"serve.handler_lookup_ns", "ns", "lower", 0},
	{"serve.handler_lookup_allocs", "count", "lower", 0},
	{"serve.loopback_lookup_us", "us", "lower", 0},
	{"serve.handler_batch64_us", "us", "lower", 0},
	{"serve.handler_top100_us", "us", "lower", 0},
	{"serve.top_p50_us", "us", "lower", 0},
	{"serve.shed_total", "count", "lower", 0},
	{"serve.snapshot_build_ms", "ms", "lower", 0},
	{"serve.delta_build_ms", "ms", "lower", 0},
	{"serve.publish_us", "us", "lower", 0},
	{"serve.ingest_rejected_total", "count", "lower", 0},

	{"shard.router_lookup_us", "us", "lower", 0},
	{"shard.router_lookup_allocs", "count", "lower", 0},
	{"shard.routed_loopback_us", "us", "lower", 0},
	{"shard.router_hop_us", "us", "lower", 0},
	{"shard.router_batch64_us", "us", "lower", 0},
	{"shard.router_top100_us", "us", "lower", 0},
	{"shard.delta_fence_ms", "ms", "lower", 0},
	{"shard.hedges_total", "count", "lower", 0},
	{"shard.stale_retries_total", "count", "lower", 0},
	{"shard.errors_total", "count", "lower", 0},
	{"shard.cross_shard_edge_frac", "frac", "lower", 0},
	{"shard.routed_vs_single_rel_l1", "frac", "lower", 0},

	{"ingest.append_us", "us", "lower", 0},
	{"ingest.fsync_us", "us", "lower", 0},
	{"ingest.fsyncs_per_batch", "count", "lower", 0},
	{"ingest.wal_bytes_per_user_byte", "frac", "lower", 0},
	{"ingest.append_c8_per_s", "1/s", "higher", 0},
	{"ingest.append_c8_groupcommit_per_s", "1/s", "higher", 0},
	{"ingest.snapshot_write_ms", "ms", "lower", 0},
	{"ingest.snapshot_bytes", "count", "lower", 0},
	{"ingest.snapshot_load_ms", "ms", "lower", 0},
	{"ingest.replay_ms_per_batch", "ms", "lower", 0},
	{"ingest.compact_ms", "ms", "lower", 0},

	{"obs.telemetry_overhead_pct", "%", "lower", 0},
	{"obs.metrics_render_us", "us", "lower", 0},

	{"loadgen.timer_late_p99_us", "us", "lower", 0},
	{"bench.trace_overhead_pct", "%", "lower", 0},
	{"bench.unattributed_pct", "%", "lower", 0},
}

// pick returns the metrics of one tier out of all, in the tier's order.
// A per-layer metric the workload did not produce reads 0; a missing
// end-to-end metric is a harness bug and is reported as such.
func pick(defs []metricDef, all map[string]float64, allowMissing bool) (map[string]metricValue, []string) {
	out := make(map[string]metricValue, len(defs))
	var missing []string
	for _, d := range defs {
		v, ok := all[d.Name]
		if !ok && !allowMissing {
			missing = append(missing, d.Name)
		}
		out[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	return out, missing
}

// metricValue is one metric in the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}
