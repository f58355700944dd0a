package main

// metricDef declares one reported metric. The lists below are the
// benchmark's contract and must match BENCHMARK.json (a test checks it).
type metricDef struct {
	name, unit, better string
	// bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change counts as a regression.
	bound float64
	// moves names the end-to-end metrics, and the workloads, a per-layer
	// metric should move.
	moves string
}

// endToEnd are the metrics a user of the system sees; every workload
// reports all of them.
//
// The timing bounds are wide because the two-core VM they were set on is
// noisy: a plain CPU loop there runs up to twice as slow for seconds at a
// time, and set-up, measured in fresh processes, moved by a fifth between
// batches of runs minutes apart. Across ten seeds the timings spread by
// 3–18% (IQR / median).
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "cells_per_s", unit: "1/s", better: "higher", bound: 0.25},
	{name: "p50_ms", unit: "ms", better: "lower", bound: 0.25},
	{name: "p90_ms", unit: "ms", better: "lower", bound: 0.25},
	{name: "heap_live_mb", unit: "MB", better: "lower", bound: 0.15},
	{name: "pred_err_pct", unit: "%", better: "lower", bound: 0.05},
}

// perLayer are the traced run's metrics. A workload that does not reach
// a layer reports 0 for it.
var perLayer = []metricDef{
	{name: "server.cache.hit_ratio", unit: "ratio", better: "higher", moves: "serve-hot cells_per_s, p50_ms"},
	{name: "server.cache.evictions", unit: "count", better: "lower", moves: "serve-hot cells_per_s, p50_ms"},
	{name: "server.handler_p50_us", unit: "us", better: "lower", moves: "serve-hot p50_ms (the gap is transport and client)"},
	{name: "server.batch.mean_size", unit: "cells", better: "higher", moves: "serve-cold p90_ms"},
	{name: "server.batch.batches", unit: "count", better: "lower", moves: "serve-cold p90_ms"},
	{name: "server.wait_p50_ms", unit: "ms", better: "lower", moves: "serve-cold p50_ms"},
	{name: "server.ff_p50_ms", unit: "ms", better: "lower", moves: "serve-cold p50_ms"},
	{name: "server.ff_p90_ms", unit: "ms", better: "lower", moves: "serve-cold p90_ms"},
	{name: "server.synth_p50_ms", unit: "ms", better: "lower", moves: "serve-cold p50_ms"},
	{name: "server.synth_p90_ms", unit: "ms", better: "lower", moves: "serve-cold p90_ms"},
	{name: "server.flight.dedups", unit: "count", better: "higher", moves: "serve-cold cells_per_s"},
	{name: "server.rejected", unit: "count", better: "lower", moves: "every serve workload p90_ms"},
	{name: "surrogate.hit_ratio", unit: "ratio", better: "higher", moves: "serve-surrogate cells_per_s, p50_ms"},
	{name: "surrogate.eval_p50_us", unit: "us", better: "lower", moves: "serve-surrogate p50_ms"},
	{name: "surrogate.refits", unit: "count", better: "lower", moves: "serve-surrogate p90_ms"},
	{name: "surrogate.shadow_runs", unit: "count", better: "lower", moves: "serve-surrogate p90_ms"},
	{name: "surrogate.shadow_rel_err_p50_bp", unit: "bp", better: "lower", moves: "serve-surrogate pred_err_pct"},
	{name: "surrogate.predict_p50_us", unit: "us", better: "lower", moves: "serve-surrogate p50_ms"},
	{name: "ff.cell_p50_us", unit: "us", better: "lower", moves: "serve-cold p50_ms; offline-paper cells_per_s"},
	{name: "ff.cells_per_s", unit: "1/s", better: "higher", moves: "serve-cold p50_ms; offline-paper cells_per_s"},
	{name: "synth.cell_p50_ms", unit: "ms", better: "lower", moves: "serve-cold p50_ms, p90_ms; offline-paper cells_per_s"},
	{name: "sim.events_per_s", unit: "1/s", better: "higher", moves: "serve-cold p90_ms; offline-paper cells_per_s"},
	{name: "sim.events_per_cell", unit: "count", better: "lower", moves: "serve-cold p90_ms; offline-paper cells_per_s"},
	{name: "sim.preemptions", unit: "count", better: "lower", moves: "serve-cold p90_ms; offline-paper cells_per_s"},
	{name: "realrun.cell_p50_ms", unit: "ms", better: "lower", moves: "offline-paper cells_per_s"},
	{name: "experiments.fig11_s", unit: "s", better: "lower", moves: "offline-paper cells_per_s, p50_ms"},
	{name: "experiments.fig12_s", unit: "s", better: "lower", moves: "offline-paper cells_per_s"},
	{name: "experiments.profile_cache_hit_ratio", unit: "ratio", better: "higher", moves: "offline-paper cells_per_s"},
	{name: "sweep.cells_ok", unit: "count", better: "higher", moves: "offline-paper cells_per_s"},
	{name: "sweep.cells_failed", unit: "count", better: "lower", moves: "every workload's failed count"},
	{name: "sweep.cells_skipped", unit: "count", better: "lower", moves: "every workload's failed count"},
	{name: "trace.profile_ms", unit: "ms", better: "lower", moves: "serve-* setup_s"},
	{name: "compress.ms", unit: "ms", better: "lower", moves: "serve-* setup_s"},
	{name: "memmodel.calibrate_ms", unit: "ms", better: "lower", moves: "every workload's setup_s"},
	{name: "compress.nodes_after", unit: "count", better: "lower", moves: "serve-* setup_s; serve-cold p90_ms"},
	{name: "runtime.alloc_kb_per_cell", unit: "KB", better: "lower", moves: "every workload's cells_per_s, heap_live_mb"},
	{name: "runtime.gc_cycles", unit: "count", better: "lower", moves: "every workload's cells_per_s"},
	{name: "runtime.gc_pause_ms", unit: "ms", better: "lower", moves: "every workload's p90_ms"},
	{name: "obs.trace_overhead_pct", unit: "%", better: "lower", moves: "none: the cost of tracing itself"},
}
