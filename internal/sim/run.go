package sim

import (
	"context"
	"errors"
	"sync"

	"prophet/internal/clock"
	"prophet/internal/obs"
)

// errAbortRun is the private panic value used to unwind thread code when a
// run fails; it never escapes the package.
var errAbortRun = errors.New("sim: run aborted")

// FaultHooks are the no-op-by-default scheduler/memory perturbation points
// used by deterministic fault injection (internal/faults). Hooks are
// called by the engine one call at a time, so implementations need no
// locking but must be deterministic for reproducible runs.
type FaultHooks struct {
	// Quantum, when set, returns the (possibly jittered) scheduling
	// quantum for a fresh slice on the given core; non-positive returns
	// fall back to the configured quantum.
	Quantum func(core int, quantum clock.Cycles) clock.Cycles
	// DRAMBandwidth, when set, rescales the DRAM bandwidth seen by the
	// contention model (bytes/cycle); non-positive returns fall back to
	// the configured bandwidth.
	DRAMBandwidth func(base float64) float64
}

// RunOpts bundles the optional knobs of a machine run.
type RunOpts struct {
	// Tracer receives execution events (schedule/preempt/block/unblock/
	// lock/slice) with virtual timestamps; nil disables tracing at the
	// cost of one branch per site (see internal/obs).
	Tracer obs.ExecTracer
	// Metrics, when set, aggregates run-level counters (sim.runs,
	// sim.events, sim.preemptions, sim.resumes, watchdog headroom) into
	// the registry when the run ends.
	Metrics *obs.Registry
	// Faults installs deterministic perturbation hooks.
	Faults *FaultHooks
}

// Run executes main as thread 0 of a machine with the given configuration
// and options, and returns the makespan (the time the last thread
// exited), run stats, and a typed error on failure: *DeadlockError,
// *LockMisuseError, *BudgetError, *InternalError (a recovered thread
// panic), or a cancellation error wrapping ctx.Err() — the engine polls
// ctx. On failure every thread is unwound before Run returns — a failed
// run leaks nothing, whatever state the workload was in.
func Run(ctx context.Context, cfg Config, o RunOpts, main func(*Thread)) (clock.Cycles, Stats, error) {
	m := getMachine(cfg)
	m.ctx = ctx
	m.tracer = o.Tracer
	m.metrics = o.Metrics
	if o.Faults != nil {
		m.faults = o.Faults
		if o.Faults.DRAMBandwidth != nil {
			m.dram.SetBandwidthHook(o.Faults.DRAMBandwidth)
		}
	}
	t := m.newThread(main)
	m.makeReady(t)
	end, stats, err := m.run()
	releaseMachine(m)
	return end, stats, err
}

// machinePool recycles machines between Run calls: the event heap, core
// and ready arrays, lock states and thread slots all reach a steady state
// where a sweep cell's runs allocate almost nothing beyond one coroutine
// per peak-live thread. Coroutines themselves never enter the pool: a run
// stops all of its own, so a machine the pool drops strands no parked
// goroutine.
var machinePool sync.Pool

func getMachine(cfg Config) *Machine {
	if v := machinePool.Get(); v != nil {
		m := v.(*Machine)
		m.reset(cfg)
		return m
	}
	return New(cfg)
}

// releaseMachine drops the external references a finished run may hold
// (observers, hooks, the failure value) and returns the machine to the
// pool. Safe because run() stops every coroutine of the run first.
func releaseMachine(m *Machine) {
	m.ctx = context.Background()
	m.tracer = nil
	m.metrics = nil
	m.faults = nil
	m.err = nil
	m.dram.SetBandwidthHook(nil)
	machinePool.Put(m)
}
