package main

import "slices"

// metricSpec describes one metric the benchmark prints. BENCHMARK.json lists
// the same names and units; its fixed schema has no room for the layer, the
// kind and the expected effect, so they are recorded here, where later
// changes can cite them by name.
type metricSpec struct {
	name, unit string
	// layer is the module the metric measures.
	layer string
	// kind is "host" (measured on the host: time or memory of the
	// simulator itself), "virtual" (a simulated outcome: a guard that a
	// speed-only change must leave identical) or "count" (work done,
	// counted exactly).
	kind string
	// moves names the end-to-end metric and workload the metric should
	// move when its layer changes.
	moves string
	// only lists the workloads the metric applies to; elsewhere it prints
	// 0. Empty means every workload.
	only []string
}

func (s metricSpec) appliesTo(workload string) bool {
	return len(s.only) == 0 || slices.Contains(s.only, workload)
}

var (
	nbiaOnly  = []string{"nbia_odds", "nbia_ddwrr"}
	serveOnly = []string{"serve_drain", "serve_live"}
)

// endToEndSpecs are what a user of the simulator sees, over the timed phase
// (see bench.endToEnd for how each is taken from its executions).
var endToEndSpecs = []metricSpec{
	{name: "wall_s", unit: "s", layer: "all", kind: "host"},
	{name: "cpu_s", unit: "s", layer: "all", kind: "host"},
	{name: "setup_s", unit: "s", layer: "all", kind: "host"},
	{name: "peak_rss_mb", unit: "MB", layer: "all", kind: "host"},
	{name: "alloc_count", unit: "count", layer: "all", kind: "count"},
	{name: "alloc_mb", unit: "MB", layer: "all", kind: "host"},
}

// perLayerSpecs come from the traced run. On the serve workloads the
// engine's runtime is private, so core and xfer counts are read from its
// final /metrics page, and the hooks it does not export (queue depth, DQAA
// targets) print 0. The serve tick, Step, Frame and /metrics timings come
// from a traced paced replay (serve.go): serve_live's traced execution, and
// on serve_drain a replay of the first liveArrivals of its schedule.
var perLayerSpecs = []metricSpec{
	{name: "core.demand_issued", unit: "count", layer: "core", kind: "count",
		moves: "wall_s, alloc_count, cpu_s on nbia_ddwrr"},
	{name: "core.demand_empty", unit: "count", layer: "core", kind: "count",
		moves: "wall_s, alloc_count, cpu_s on nbia_ddwrr"},
	{name: "core.demand_useful_ratio", unit: "ratio", layer: "core", kind: "count",
		moves: "wall_s, alloc_count, cpu_s on nbia_ddwrr (data replies over requests issued)"},
	{name: "core.sends", unit: "count", layer: "core", kind: "count",
		moves: "wall_s, alloc_count on nbia_odds and nbia_ddwrr"},
	{name: "core.queue_depth_events", unit: "count", layer: "core", kind: "count",
		moves: "wall_s, alloc_count on nbia_odds and nbia_ddwrr", only: nbiaOnly},
	{name: "sim.host_ns_per_hook_event", unit: "ns", layer: "sim", kind: "host",
		moves: "wall_s, alloc_count on nbia_odds and nbia_ddwrr (untraced wall over hook events)"},
	{name: "sim.message_path_ns", unit: "ns", layer: "sim", kind: "host",
		moves: "wall_s on nbia_ddwrr (step-API send/reply round, as in cmd/benchsweep)"},
	{name: "xfer.h2d_spans", unit: "count", layer: "xfer", kind: "count", moves: "wall_s on nbia_odds"},
	{name: "xfer.kernel_spans", unit: "count", layer: "xfer", kind: "count", moves: "wall_s on nbia_odds"},
	{name: "xfer.d2h_spans", unit: "count", layer: "xfer", kind: "count", moves: "wall_s on nbia_odds"},
	{name: "policy.dqaa_target_changes", unit: "count", layer: "policy", kind: "count",
		moves: "wall_s on nbia_odds", only: nbiaOnly},
	{name: "policy.pop_ranked_ns", unit: "ns", layer: "policy", kind: "host",
		moves: "wall_s on nbia_odds (one PopRanked over 64 NBIA tiles, refill included)"},
	{name: "estimator.speedup_ns", unit: "ns", layer: "estimator", kind: "host",
		moves: "wall_s on nbia_odds (one kNN speedup prediction for an NBIA tile)"},
	{name: "estimator.build_ms", unit: "ms", layer: "estimator", kind: "host",
		moves: "setup_s on nbia_odds and nbia_ddwrr", only: nbiaOnly},
	{name: "arrival.schedule_ms", unit: "ms", layer: "arrival", kind: "host",
		moves: "setup_s on serve_drain and serve_live", only: serveOnly},
	{name: "serve.new_ms", unit: "ms", layer: "serve", kind: "host",
		moves: "setup_s on serve_drain and serve_live", only: serveOnly},
	{name: "go.gc_cycles", unit: "count", layer: "go", kind: "count",
		moves: "cpu_s on nbia_ddwrr; peak_rss_mb on nbia_odds and serve_drain"},
	{name: "go.gc_pause_ms", unit: "ms", layer: "go", kind: "host",
		moves: "cpu_s on nbia_ddwrr; peak_rss_mb on nbia_odds and serve_drain"},
	{name: "go.heap_peak_mb", unit: "MB", layer: "go", kind: "host",
		moves: "peak_rss_mb on nbia_odds and serve_drain"},
	{name: "serve.sink_share", unit: "ratio", layer: "serve", kind: "host",
		moves: "wall_s, peak_rss_mb on serve_drain (1 - drain wall without the sink / with it)", only: serveOnly},
	{name: "serve.heap_bytes_per_request", unit: "B", layer: "serve", kind: "host",
		moves: "wall_s, peak_rss_mb on serve_drain (in-use heap after drain / accepted)", only: serveOnly},
	{name: "serve.advance_ms_p50", unit: "ms", layer: "serve", kind: "host",
		moves: "wall_s on serve_live (Step per paced tick)", only: serveOnly},
	{name: "serve.advance_ms_p99", unit: "ms", layer: "serve", kind: "host",
		moves: "serve.tick_p99_ms", only: serveOnly},
	{name: "serve.frame_ms_p50", unit: "ms", layer: "serve", kind: "host",
		moves: "wall_s, alloc_count on serve_live (Frame per paced tick)", only: serveOnly},
	{name: "serve.frame_ms_p99", unit: "ms", layer: "serve", kind: "host",
		moves: "serve.tick_p99_ms", only: serveOnly},
	{name: "span.lineage_rebuilds", unit: "count", layer: "span", kind: "count",
		moves: "serve.tick_p99_ms (frames where a pipe's worst task changed)", only: serveOnly},
	{name: "obs.prom_ms_p50", unit: "ms", layer: "obs", kind: "host",
		moves: "serve.tick_p99_ms (render on scrape ticks)", only: serveOnly},
	{name: "obs.prom_bytes", unit: "B", layer: "obs", kind: "count",
		moves: "serve.tick_p99_ms (size of the final /metrics page)", only: serveOnly},
	{name: "serve.ticks_over_budget", unit: "count", layer: "serve", kind: "host",
		moves: "serve.tick_p99_ms (ticks over the 50 ms wall budget; base serve.ticks)", only: serveOnly},
	{name: "serve.ticks", unit: "count", layer: "serve", kind: "virtual",
		moves: "none: base of serve.ticks_over_budget", only: serveOnly},
	{name: "serve.tick_p50_ms", unit: "ms", layer: "serve", kind: "host",
		moves: "wall_s on serve_live (Step + Frame, + /metrics on scrape ticks, per paced tick)", only: serveOnly},
	{name: "serve.tick_p99_ms", unit: "ms", layer: "serve", kind: "host",
		moves: "none: how stale the live dashboard gets", only: serveOnly},
	{name: "obs.capture_overhead_s", unit: "s", layer: "obs", kind: "host",
		moves: "none: nbia_* rerun with span.Collector and obs.Registry minus untraced; serve_* drain with the sink minus without"},
	{name: "trace.overhead_s", unit: "s", layer: "perfbench", kind: "host",
		moves: "none: traced execution wall minus the untraced median"},
	{name: "sim.virtual_s", unit: "virtual_s", layer: "sim", kind: "virtual", moves: "none: guard"},
	{name: "core.buffers_cpu", unit: "count", layer: "core", kind: "virtual", moves: "none: guard"},
	{name: "core.buffers_gpu", unit: "count", layer: "core", kind: "virtual", moves: "none: guard"},
	{name: "hw.gpu_busy_frac", unit: "ratio", layer: "hw", kind: "virtual", moves: "none: guard", only: nbiaOnly},
	{name: "hw.cpu_busy_frac", unit: "ratio", layer: "hw", kind: "virtual", moves: "none: guard", only: nbiaOnly},
	{name: "hw.pcie_busy_frac", unit: "ratio", layer: "hw", kind: "virtual", moves: "none: guard", only: nbiaOnly},
	{name: "hw.net_bytes", unit: "B", layer: "hw", kind: "virtual", moves: "none: guard", only: nbiaOnly},
	{name: "arrival.offered", unit: "count", layer: "arrival", kind: "virtual", moves: "none: guard", only: serveOnly},
	{name: "core.admit_accepted", unit: "count", layer: "core", kind: "virtual", moves: "none: guard", only: serveOnly},
	{name: "core.admit_shed", unit: "count", layer: "core", kind: "virtual", moves: "none: guard", only: serveOnly},
	{name: "serve.served", unit: "count", layer: "serve", kind: "virtual", moves: "none: guard", only: serveOnly},
	{name: "serve.slo_violations", unit: "count", layer: "serve", kind: "virtual", moves: "none: guard", only: serveOnly},
}
