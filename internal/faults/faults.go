// Package faults is the deterministic fault-injection harness of the
// prediction pipeline. The paper's tool lives on hostile inputs: noisy
// PAPI counters, rdtsc skew between cores (§VI-A), OS scheduling jitter
// under the emulated runs, memory buses that deliver less bandwidth than
// the spec sheet, and annotation macros that users misplace. This package
// turns each of those hazards into a *seeded, reproducible* perturbation
// so the robustness guarantees of the pipeline — typed errors out of
// every failure, bounded prediction drift under measurement noise — can
// be asserted in ordinary unit tests instead of waited for in the field.
//
// The injection points are no-op-by-default hooks owned by the layers
// themselves: trace.Hooks (annotation drop/duplication, counter noise),
// clock.Skewed (timestamp skew), sim.FaultHooks (quantum jitter) and the
// DRAM bandwidth hook (mem.DRAM.SetBandwidthHook). An Injector is just
// the seeded policy behind those hooks; with a zero Config every adapter
// returns a pass-through and the pipeline behaves exactly as without the
// harness.
//
// Determinism contract: all randomness comes from math/rand streams
// derived from Config.Seed, one independent stream per fault family, so
// the injected sequence does not depend on which families are enabled
// together. Hooks run on the serial goroutine of their layer (the
// profiling goroutine, the engine goroutine), so an Injector needs no
// locking — but it must not be shared across concurrent runs.
package faults

import (
	"math/rand"

	"prophet/internal/clock"
	"prophet/internal/counters"
	"prophet/internal/sim"
	"prophet/internal/trace"
)

// Config selects which faults to inject and how hard. The zero value
// injects nothing.
type Config struct {
	// Seed feeds every random stream; two injectors with equal configs
	// perturb identically, byte for byte.
	Seed int64

	// CounterNoise is the relative amplitude of multiplicative noise on
	// hardware-counter readings: 0.02 scales every cumulative sample by
	// an independent factor drawn from [0.98, 1.02].
	CounterNoise float64

	// ClockSkewCycles is the maximum magnitude, in cycles, of the offset
	// added to each clock reading (drawn uniformly from [-n, n]). The
	// clock layer clamps readings that would run backwards.
	ClockSkewCycles int64

	// QuantumJitter is the relative amplitude of jitter on the machine's
	// scheduling quantum: 0.25 draws each slice from [0.75q, 1.25q].
	QuantumJitter float64

	// BandwidthDegrade removes this fraction of the DRAM bandwidth seen
	// by the contention model (0.3 = the bus sustains 70% of spec).
	// Values are capped at 0.95 so the model keeps a positive bandwidth.
	BandwidthDegrade float64

	// DropEveryN drops every Nth annotation event (0 = never): the
	// tracer behaves as if that one macro had been compiled out.
	DropEveryN int

	// DupEveryN duplicates every Nth annotation event (0 = never).
	// Drop wins when both fire on the same event.
	DupEveryN int
}

// Injector is the seeded policy behind the pipeline's fault hooks. Not
// safe for concurrent use: create one per run.
type Injector struct {
	cfg Config

	counterRng *rand.Rand
	skewRng    *rand.Rand
	quantumRng *rand.Rand

	events int64 // annotation events seen, across all entry points
}

// New returns an injector for cfg. Each fault family gets its own stream
// derived from the seed, so enabling one family never shifts another's
// sequence.
func New(cfg Config) *Injector {
	return &Injector{
		cfg:        cfg,
		counterRng: rand.New(rand.NewSource(cfg.Seed)),
		skewRng:    rand.New(rand.NewSource(cfg.Seed + 1)),
		quantumRng: rand.New(rand.NewSource(cfg.Seed + 2)),
	}
}

// Config returns the injector's configuration.
func (in *Injector) Config() Config { return in.cfg }

// pm draws a multiplicative factor from [1-amp, 1+amp].
func pm(rng *rand.Rand, amp float64) float64 {
	return 1 + amp*(2*rng.Float64()-1)
}

// action is the shared drop/duplicate policy: one counter across every
// entry point (tracer hooks and the Program middleware), so the event
// stream is perturbed identically whichever layer observes it.
func (in *Injector) action() trace.EventAction {
	in.events++
	if n := int64(in.cfg.DropEveryN); n > 0 && in.events%n == 0 {
		return trace.Drop
	}
	if n := int64(in.cfg.DupEveryN); n > 0 && in.events%n == 0 {
		return trace.Duplicate
	}
	return trace.Deliver
}

// noisy perturbs one cumulative counter value, never below zero.
func (in *Injector) noisy(v int64) int64 {
	out := int64(float64(v)*pm(in.counterRng, in.cfg.CounterNoise) + 0.5)
	if out < 0 {
		out = 0
	}
	return out
}

// TraceHooks returns the tracer hooks for the configured annotation and
// counter faults; install with Tracer.WithHooks. Pass-through entries are
// left nil so a zero config costs nothing.
func (in *Injector) TraceHooks() trace.Hooks {
	var h trace.Hooks
	if in.cfg.DropEveryN > 0 || in.cfg.DupEveryN > 0 {
		h.OnEvent = func(trace.Event) trace.EventAction { return in.action() }
	}
	if in.cfg.CounterNoise > 0 {
		h.CounterNoise = func(s counters.Sample) counters.Sample {
			s.Instructions = in.noisy(s.Instructions)
			s.Cycles = clock.Cycles(in.noisy(int64(s.Cycles)))
			s.LLCMisses = in.noisy(s.LLCMisses)
			return s
		}
	}
	return h
}

// SimFaults returns the machine-level hooks (scheduler quantum jitter,
// DRAM bandwidth degradation) for sim.RunOpts.Faults, or nil when neither
// fault is configured.
func (in *Injector) SimFaults() *sim.FaultHooks {
	var h sim.FaultHooks
	any := false
	if in.cfg.QuantumJitter > 0 {
		amp := in.cfg.QuantumJitter
		h.Quantum = func(_ int, q clock.Cycles) clock.Cycles {
			return clock.Cycles(float64(q) * pm(in.quantumRng, amp))
		}
		any = true
	}
	if in.cfg.BandwidthDegrade > 0 {
		deg := in.cfg.BandwidthDegrade
		if deg > 0.95 {
			deg = 0.95
		}
		h.DRAMBandwidth = func(base float64) float64 { return base * (1 - deg) }
		any = true
	}
	if !any {
		return nil
	}
	return &h
}

// Clock wraps base with the configured timestamp skew; with no skew
// configured it returns base unchanged.
func (in *Injector) Clock(base clock.Clock) clock.Clock {
	n := in.cfg.ClockSkewCycles
	if n <= 0 {
		return base
	}
	return &clock.Skewed{
		Base: base,
		Skew: func(clock.Cycles) clock.Cycles {
			return clock.Cycles(in.skewRng.Int63n(2*n+1) - n)
		},
	}
}

// Program wraps an annotated program so its annotation stream passes
// through the injector's drop/duplicate policy before reaching the
// profiling context — fault injection for pipelines that build their
// profiler internally (prophet.ProfileProgramCtx). Compute and IOWait pass
// through untouched: they advance time, not tree structure, and dropping
// them would change the workload rather than the measurement.
func (in *Injector) Program(prog trace.Program) trace.Program {
	if in.cfg.DropEveryN <= 0 && in.cfg.DupEveryN <= 0 {
		return prog
	}
	return func(ctx trace.Context) { prog(&faultCtx{in: in, inner: ctx}) }
}

// faultCtx is the Program middleware: each annotation call is delivered
// zero, one or two times per the injector's shared event policy.
type faultCtx struct {
	in    *Injector
	inner trace.Context
}

func (c *faultCtx) apply(fn func()) {
	switch c.in.action() {
	case trace.Drop:
	case trace.Duplicate:
		fn()
		fn()
	default:
		fn()
	}
}

func (c *faultCtx) SecBegin(name string)  { c.apply(func() { c.inner.SecBegin(name) }) }
func (c *faultCtx) SecEnd(nowait bool)    { c.apply(func() { c.inner.SecEnd(nowait) }) }
func (c *faultCtx) TaskBegin(name string) { c.apply(func() { c.inner.TaskBegin(name) }) }
func (c *faultCtx) TaskEnd()              { c.apply(func() { c.inner.TaskEnd() }) }
func (c *faultCtx) LockBegin(id int)      { c.apply(func() { c.inner.LockBegin(id) }) }
func (c *faultCtx) LockEnd(id int)        { c.apply(func() { c.inner.LockEnd(id) }) }
func (c *faultCtx) PipeBegin(name string) { c.apply(func() { c.inner.PipeBegin(name) }) }
func (c *faultCtx) PipeEnd()              { c.apply(func() { c.inner.PipeEnd() }) }
func (c *faultCtx) StageBreak()           { c.apply(func() { c.inner.StageBreak() }) }

func (c *faultCtx) IOWait(cycles int64) { c.inner.IOWait(cycles) }
func (c *faultCtx) Compute(instrCycles, llcMisses int64) {
	c.inner.Compute(instrCycles, llcMisses)
}
