package obs

// Canonical metric names: one vocabulary shared by the pipeline stages,
// the simulator, and the sweep engine, so a metrics snapshot reads the
// same whether it came from cmd/prophet, cmd/ppexp or a library caller.
const (
	// Pipeline stage wall times (nanosecond duration histograms).
	MStageProfile   = "stage.profile_ns"
	MStageCompress  = "stage.compress_ns"
	MStageCalibrate = "stage.calibrate_ns"
	MStageEmulate   = "stage.emulate_ns"

	// Simulated-machine counters, aggregated over every machine run that
	// carried the registry.
	MSimRuns        = "sim.runs"
	MSimEvents      = "sim.events"
	MSimPreemptions = "sim.preemptions"
	// MSimHeadroom is a histogram of remaining watchdog budget
	// (MaxEvents - processed events) per run; only recorded when a
	// MaxEvents budget is armed. A shrinking minimum warns that
	// workloads are approaching their budget.
	MSimHeadroom = "sim.watchdog_headroom_events"

	// Sweep cell outcomes.
	MSweepCellsOK      = "sweep.cells_ok"
	MSweepCellsFailed  = "sweep.cells_failed"
	MSweepCellsSkipped = "sweep.cells_skipped"

	// Causal advisor (prophet.AdviseCtx): advisor runs, candidate
	// regions enumerated across them, regions whose experiment predicted
	// no gain (Marginal <= 1, the anti-recommendations), and end-to-end
	// advisor wall time.
	MAdviseRuns     = "advise.runs"
	MAdviseRegions  = "advise.regions"
	MAdviseAntiRecs = "advise.anti_recommendations"
	MAdviseLatency  = "advise.latency_ns"

	// Profile-cache traffic (sweep.Cache singleflight), aggregated over
	// every cache instrumented with the registry.
	MCacheHits   = "cache.hits"
	MCacheMisses = "cache.misses"
	// MCacheDedups counts hits that arrived while the compute was still
	// in flight and were deduplicated onto it.
	MCacheDedups = "cache.dedups"

	// Prediction-service (internal/server) request counters.
	MServerPredicts = "server.predict.requests"
	MServerSweeps   = "server.sweep.requests"
	MServerAdvises  = "server.advise.requests"
	// MServerRejected counts requests refused with 429 by the admission
	// layer (overload backpressure).
	MServerRejected = "server.rejected_overload"
	// MServerBadRequests counts requests refused with a 4xx other than
	// 429 (malformed JSON, unknown workload, invalid grid).
	MServerBadRequests = "server.bad_requests"
	// MServerImports counts workloads registered via POST /v1/workloads
	// (successful profile uploads only).
	MServerImports = "server.imports"

	// Per-endpoint request latency (nanosecond duration histograms,
	// admission to response).
	MServerPredictLatency = "server.predict.latency_ns"
	MServerSweepLatency   = "server.sweep.latency_ns"
	MServerAdviseLatency  = "server.advise.latency_ns"

	// Estimate-cache traffic (the server's sharded LRU over completed
	// estimates, in front of the singleflight calibration cache).
	MServerCacheHits      = "server.cache.hits"
	MServerCacheMisses    = "server.cache.misses"
	MServerCacheEvictions = "server.cache.evictions"
	// MServerFlightDedups counts cells that found an identical cell in
	// flight and waited for its result instead of recomputing.
	MServerFlightDedups = "server.flight.dedups"

	// Worker-slot admission layer: dispatches onto the slot pool and the
	// cells they carry. One dispatch is one cell, so the two counters
	// agree; both names are kept for the dashboards that read them.
	// MServerPoolWait is the time a cell waited for a free slot
	// (nanosecond histogram).
	MServerBatches    = "server.batch.batches"
	MServerBatchCells = "server.batch.cells"
	MServerPoolWait   = "server.pool.wait_ns"

	// Profile import (internal/profimport): conversions run, samples
	// parsed, trie frames kept in the converted tree, and frames folded
	// away by the leaf-collapse pass (dropped/(kept+dropped) is the
	// collapse ratio).
	MImportRuns          = "import.runs"
	MImportSamples       = "import.samples"
	MImportFrames        = "import.frames"
	MImportFramesDropped = "import.frames_dropped"

	// Cluster serving (internal/cluster): cell routing outcomes. A cell
	// whose ring owner is this replica is served from the local stack
	// (cells_local); a cell owned by a peer is forwarded (cells_remote);
	// a cell whose remote owners were all exhausted degrades to local
	// computation (degraded_local).
	MClusterCellsLocal    = "cluster.cells_local"
	MClusterCellsRemote   = "cluster.cells_remote"
	MClusterDegradedLocal = "cluster.degraded_local"

	// Cluster forwarding: individual peer attempts, transient-failure
	// retries on the same peer, and failovers to the next ring owner.
	MClusterForwards      = "cluster.forwards"
	MClusterForwardErrors = "cluster.forward_errors"
	MClusterRetries       = "cluster.retries"
	MClusterFailovers     = "cluster.peer_failovers"

	// Request hedging: hedges launched after the primary exceeded the
	// latency budget, and hedges whose response won the race.
	MClusterHedgesFired = "cluster.hedges_fired"
	MClusterHedgesWon   = "cluster.hedges_won"

	// Per-peer circuit breaker state transitions.
	MClusterBreakerOpened   = "cluster.breaker.opened"
	MClusterBreakerHalfOpen = "cluster.breaker.half_open"
	MClusterBreakerClosed   = "cluster.breaker.closed"

	// Background health probing of peers.
	MClusterProbes        = "cluster.probes"
	MClusterProbeFailures = "cluster.probe_failures"

	// Latency of winning forwarded cell calls (nanosecond histogram).
	MClusterForwardLatency = "cluster.forward.latency_ns"

	// Learned surrogate predictor (internal/surrogate): confident hits
	// served from the model, fallbacks to full emulation (unconfident or
	// untrained neighborhoods), samples accepted into the bounded
	// training stores, and model refits.
	MSurrogateHits      = "surrogate.hits"
	MSurrogateFallbacks = "surrogate.fallbacks"
	MSurrogateSamples   = "surrogate.train_samples"
	MSurrogateRefits    = "surrogate.refits"

	// Shadow sampling: every Nth confident hit also runs the emulator
	// and records the surrogate-vs-emulator error — the absolute speedup
	// error ×1000 and the relative error in basis points — so the
	// accuracy claim stays continuously measured in production.
	MSurrogateShadowRuns   = "surrogate.shadow.runs"
	MSurrogateShadowAbsErr = "surrogate.shadow.abs_err_milli"
	MSurrogateShadowRelErr = "surrogate.shadow.rel_err_bp"

	// Predict wall time (nanosecond histogram) for answered requests —
	// the microsecond claim, measured on the serving path.
	MSurrogateEvalLatency = "surrogate.eval.latency_ns"
)

// allNames lists every metric name declared above, in declaration order.
// TestNamesDeclared keeps it in sync with the consts by parsing this
// file; emitters are tested against AllNames so no package can invent a
// metric name outside this vocabulary.
var allNames = []string{
	MStageProfile, MStageCompress, MStageCalibrate, MStageEmulate,
	MSimRuns, MSimEvents, MSimPreemptions, MSimHeadroom,
	MSweepCellsOK, MSweepCellsFailed, MSweepCellsSkipped,
	MAdviseRuns, MAdviseRegions, MAdviseAntiRecs, MAdviseLatency,
	MCacheHits, MCacheMisses, MCacheDedups,
	MServerPredicts, MServerSweeps, MServerAdvises, MServerRejected, MServerBadRequests, MServerImports,
	MServerPredictLatency, MServerSweepLatency, MServerAdviseLatency,
	MServerCacheHits, MServerCacheMisses, MServerCacheEvictions, MServerFlightDedups,
	MServerBatches, MServerBatchCells, MServerPoolWait,
	MImportRuns, MImportSamples, MImportFrames, MImportFramesDropped,
	MClusterCellsLocal, MClusterCellsRemote, MClusterDegradedLocal,
	MClusterForwards, MClusterForwardErrors, MClusterRetries, MClusterFailovers,
	MClusterHedgesFired, MClusterHedgesWon,
	MClusterBreakerOpened, MClusterBreakerHalfOpen, MClusterBreakerClosed,
	MClusterProbes, MClusterProbeFailures,
	MClusterForwardLatency,
	MSurrogateHits, MSurrogateFallbacks, MSurrogateSamples, MSurrogateRefits,
	MSurrogateShadowRuns, MSurrogateShadowAbsErr, MSurrogateShadowRelErr,
	MSurrogateEvalLatency,
}

// AllNames returns a copy of the canonical metric-name vocabulary.
func AllNames() []string {
	return append([]string(nil), allNames...)
}

// Declared reports whether name is part of the canonical vocabulary.
func Declared(name string) bool {
	for _, n := range allNames {
		if n == name {
			return true
		}
	}
	return false
}
