package prophet

import (
	"io"

	"prophet/internal/obs"
)

// Observability: the inspection surface of the pipeline. An Observer
// attached to Options streams execution events out of every simulated
// machine run and emulation (Trace) and aggregates pipeline metrics —
// per-stage wall times, DES event counts, cache traffic, sweep outcomes —
// into a registry (Metrics). Both sinks are optional and cost nothing
// when unset: the instrumented code paths are benchmarked at zero
// allocations per operation with observability disabled.
//
// The trace stream is also the single source of the text Gantt chart:
// Profile.TimelineCtx renders it from the KSlice events of the run.

// ExecTracer receives execution events from the simulated machine and
// the emulators. A *TraceBuffer is the standard implementation; custom
// implementations can stream events elsewhere. Nil disables tracing.
type ExecTracer = obs.ExecTracer

// ExecEvent is one execution event: a schedule/preempt/block/unblock,
// lock operation, work slice or fast-forward step, with virtual
// timestamps.
type ExecEvent = obs.ExecEvent

// TraceBuffer collects execution events in memory; its WriteChromeTrace
// method exports them as Chrome trace_event JSON (one lane per simulated
// core), loadable in chrome://tracing or Perfetto. The zero value is
// ready to use.
type TraceBuffer = obs.TraceBuffer

// Metrics is a registry of named monotonic counters and power-of-two
// histograms. The zero value is ready to use; a nil *Metrics is a valid
// disabled registry. Snapshot() returns a JSON-marshalable view.
type Metrics = obs.Registry

// MetricsSnapshot is a point-in-time, JSON-marshalable view of a Metrics
// registry (counters and histogram summaries with stable field names).
type MetricsSnapshot = obs.Snapshot

// Observer bundles the observability sinks an Options can attach to
// profiling and prediction. The zero value disables observability.
type Observer struct {
	// Trace, when set, receives every execution event of the simulated
	// machine runs (ground truth, synthesizer emulations) and the
	// fast-forward emulator's step events.
	Trace ExecTracer
	// Metrics, when set, aggregates pipeline metrics: stage wall times
	// (stage.*), simulated-machine counters (sim.*), and — when the
	// profile is used through the experiment harness — cache and sweep
	// counters (cache.*, sweep.*).
	Metrics *Metrics
}

// ValidateChromeTrace checks serialized trace JSON against the Chrome
// trace-event schema (the format TraceBuffer.WriteChromeTrace emits):
// every event must carry a name, a known phase, pid/tid and sane
// timestamps. It returns nil for a loadable trace.
func ValidateChromeTrace(data []byte) error {
	return obs.ValidateChromeTrace(data)
}

// WriteMetricsJSON writes a snapshot of the registry as indented JSON
// with deterministic key order; a nil registry writes an empty snapshot.
func WriteMetricsJSON(w io.Writer, m *Metrics) error {
	return m.Snapshot().WriteJSON(w)
}
