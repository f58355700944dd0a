package trace

import "prophet/internal/counters"

// Event identifies one annotation call as seen by the tracer's fault
// hooks (internal/faults).
type Event uint8

// Annotation events.
const (
	EvSecBegin Event = iota
	EvSecEnd
	EvTaskBegin
	EvTaskEnd
	EvLockBegin
	EvLockEnd
)

// String names the event after the paper's annotation macro.
func (e Event) String() string {
	switch e {
	case EvSecBegin:
		return "PAR_SEC_BEGIN"
	case EvSecEnd:
		return "PAR_SEC_END"
	case EvTaskBegin:
		return "PAR_TASK_BEGIN"
	case EvTaskEnd:
		return "PAR_TASK_END"
	case EvLockBegin:
		return "LOCK_BEGIN"
	case EvLockEnd:
		return "LOCK_END"
	}
	return "Event(?)"
}

// EventAction is a fault hook's verdict on one annotation event.
type EventAction uint8

const (
	// Deliver passes the event through unchanged (the default).
	Deliver EventAction = iota
	// Drop swallows the event: the tracer never sees it, as if the
	// annotation macro had been compiled out of one call site.
	Drop
	// Duplicate applies the event twice, modeling a doubled macro.
	Duplicate
)

// Hooks are the tracer's no-op-by-default fault-injection points
// (internal/faults drives them; nothing else should). The tracer is
// serial, so hooks run on the profiling goroutine and need no locking,
// but they must be deterministic for reproducible runs.
type Hooks struct {
	// OnEvent, when set, is consulted before each annotation event and
	// may drop or duplicate it. Compute/IOWait are not events: they
	// advance time, not tree structure, and are never dropped.
	OnEvent func(ev Event) EventAction
	// CounterNoise, when set, perturbs every cumulative hardware-counter
	// reading the tracer takes around top-level sections (the paper's
	// PAPI reads, which on real hardware are noisy).
	CounterNoise func(s counters.Sample) counters.Sample
}

// WithHooks installs fault-injection hooks and returns t for chaining.
// The zero Hooks value restores pass-through behaviour.
func (t *Tracer) WithHooks(h Hooks) *Tracer {
	t.hooks = h
	return t
}

// dispatch routes one annotation event through the OnEvent hook: the
// event body runs zero, one or two times depending on the verdict.
func (t *Tracer) dispatch(ev Event, apply func()) {
	if t.hooks.OnEvent == nil {
		apply()
		return
	}
	switch t.hooks.OnEvent(ev) {
	case Drop:
	case Duplicate:
		apply()
		apply()
	default:
		apply()
	}
}

// readCounters reads the counter source through the noise hook.
func (t *Tracer) readCounters() counters.Sample {
	s := t.src.Counters()
	if t.hooks.CounterNoise != nil {
		s = t.hooks.CounterNoise(s)
	}
	return s
}
