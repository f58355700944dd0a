// Package sim implements the simulated multicore machine that stands in for
// the paper's 12-core Westmere testbed.
//
// It is a deterministic discrete-event simulator with:
//
//   - P cores and a preemptive round-robin OS scheduler with a time quantum
//     and a global ready queue, so oversubscription (more threads than
//     cores, §IV-D / Fig. 7 of the paper) behaves like a real OS;
//   - virtual threads backed by coroutines and serialized by the engine:
//     exactly one thread executes at a time, so runtime layers
//     (internal/omprt, internal/cilkrt) are written in plain direct style
//     with ordinary data structures and remain fully deterministic;
//   - FIFO locks with direct handoff, park/unpark, spawn/join;
//   - a bandwidth-shared DRAM (internal/mem): work segments carry an LLC
//     miss count, and when the aggregate miss traffic of the running
//     threads exceeds the DRAM bandwidth, their memory time stretches —
//     this produces the speedup saturation the paper's memory model
//     predicts (Fig. 2, Fig. 12).
//
// Virtual time is in cycles. A thread advances time only through engine
// calls (Work, WorkMem, Lock, ...); code between calls is free, and
// runtimes model their own overheads with explicit Work calls.
//
// # Engine execution model
//
// There is no dedicated engine goroutine. Every virtual thread runs as a
// coroutine (iter.Pull, see coro.go) driven from the Run caller, and the
// engine is a flat state machine (advance) run by whichever side holds
// control: the driver loop in run, or the thread whose engine call
// parked it. An engine call from a thread invokes handle directly — when
// the thread keeps running (lock acquired uncontended, token consumed,
// spawn, ...) the call returns with no switch at all. When the thread
// parks, the same coroutine drives advance to the next thread to resume;
// if that is itself it returns at once, otherwise it leaves the choice in
// Machine.pending and yields to the driver, which resumes the chosen
// thread. A handoff therefore costs two coroutine switches and never
// enters the Go scheduler; only the driver passes through it, once every
// yieldEvery resumes, so a long run does not hold its P against the other
// goroutines waiting there. Exactly one coroutine or the driver runs
// engine code at any time, and every transfer is a coroutine switch,
// which carries the happens-before edge, so the engine state needs no
// locks.
package sim

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"

	"prophet/internal/clock"
	"prophet/internal/eventq"
	"prophet/internal/machine"
	"prophet/internal/mem"
	"prophet/internal/obs"
)

// Config describes the simulated machine.
//
// The machine itself is described by Spec; the Cores/Quantum/
// ContextSwitch/DRAM knobs are the legacy flat form, kept working as a
// thin wrapper (zero values fall back to the paper-machine defaults,
// exactly as before specs existed). When Spec is set it is the single
// source of machine truth and the flat knobs are derived from it — with
// one exception: ContextSwitch < 0 still disables the switch cost, the
// run-mode override calibration and exact-makespan tests rely on.
// MaxEvents and MaxVirtualTime are run budgets, not machine properties,
// and always come from the Config.
type Config struct {
	// Spec, when non-nil, is the validated machine specification
	// (immutable; use machine.ParseSpec or the registry presets). It
	// defines the core layout — including per-group speed ratios for
	// asymmetric machines — the scheduling quantum, the context-switch
	// cost, and the DRAM model including an optional second bandwidth
	// domain.
	Spec *machine.Spec
	// Cores is the number of processors (default 12, the paper machine).
	// Ignored when Spec is set.
	Cores int
	// Quantum is the OS scheduling time slice in cycles (default 50k).
	// Ignored when Spec is set.
	Quantum clock.Cycles
	// ContextSwitch is the overhead added when a core switches between
	// threads. Zero selects the default (1000 cycles); a negative value
	// disables the cost entirely (used by tests that assert exact
	// makespans, and honoured even when Spec is set).
	ContextSwitch clock.Cycles
	// DRAM configures the memory system (defaults from mem.DefaultDRAM).
	// Ignored when Spec is set.
	DRAM mem.DRAMConfig
	// MaxEvents is the watchdog budget on processed simulator events;
	// a run that exceeds it fails with *BudgetError instead of spinning
	// forever on a livelocked or runaway workload. Zero means unlimited.
	MaxEvents int64
	// MaxVirtualTime is the watchdog budget on virtual time (cycles);
	// zero means unlimited.
	MaxVirtualTime clock.Cycles
}

// DefaultConfig returns the paper-machine configuration: 12 cores, 50k-cycle
// quantum, Westmere-class DRAM.
func DefaultConfig() Config {
	return Config{Cores: 12, Quantum: 50_000, ContextSwitch: 1_000, DRAM: mem.DefaultDRAM()}
}

// Normalized returns the configuration with all defaults applied — the
// exact values a machine built from c would use.
func (c Config) Normalized() Config { return c.withDefaults() }

func (c Config) withDefaults() Config {
	if s := c.Spec; s != nil {
		// The spec is the source of truth: derive the flat knobs from it
		// verbatim (specs are validated, never rewritten). Only the
		// ContextSwitch < 0 run-mode override survives.
		c.Cores = s.Cores()
		c.Quantum = s.Quantum
		if c.ContextSwitch < 0 {
			c.ContextSwitch = 0
		} else {
			c.ContextSwitch = s.ContextSwitch
		}
		c.DRAM = mem.ConfigFromSpec(s.DRAM)
		return c
	}
	d := DefaultConfig()
	if c.Cores <= 0 {
		c.Cores = d.Cores
	}
	if c.Quantum <= 0 {
		c.Quantum = d.Quantum
	}
	switch {
	case c.ContextSwitch == 0:
		c.ContextSwitch = d.ContextSwitch
	case c.ContextSwitch < 0:
		c.ContextSwitch = 0
	}
	// Normalize the DRAM config the same way the model itself would, so
	// the engine's timing math sees the defaulted values.
	c.DRAM = mem.NewDRAM(c.DRAM).Config()
	return c
}

// Stats aggregates machine-level activity over a run.
type Stats struct {
	// Instructions is the total executed instruction-cycles.
	Instructions float64
	// Misses is the total LLC misses serviced.
	Misses float64
	// BusyCycles is the total core-busy time (for utilization).
	BusyCycles clock.Cycles
	// Preemptions counts involuntary context switches.
	Preemptions int64
	// Events counts processed simulator events (for performance
	// ablations).
	Events int64
}

type tstate uint8

const (
	stateReady tstate = iota
	stateRunning
	stateBlocked
	stateExited
)

// Thread is a virtual thread of the simulated machine. All methods must be
// called from the thread's own function (the engine enforces the
// one-at-a-time discipline).
//
// Thread objects are pooled: they are only valid while the run that
// created them is in progress.
type Thread struct {
	id int
	m  *Machine
	// co is the coroutine running the thread's code.
	co    *coro
	state tstate
	core  int // core index while running, -1 otherwise

	// Pending work request.
	instrLeft  float64
	missesLeft float64
	demand     float64 // registered DRAM demand while a slice is active
	sliceWork  clock.Cycles
	sliceDur   clock.Cycles

	joiners   []*Thread
	parkToken bool
	inPark    bool
	spawned   *Thread
	now       clock.Cycles
	// pinned restricts the thread to one core (-1 = any), like
	// sched_setaffinity; the paper pins its tracer thread (§VI-A).
	pinned int
}

// ID returns the thread's creation-ordered identifier (main is 0).
func (t *Thread) ID() int { return t.id }

// Now returns the thread's current virtual time. Time is frozen while the
// thread's code runs; it advances only across engine calls.
func (t *Thread) Now() clock.Cycles { return t.now }

// Machine returns the machine the thread runs on.
func (t *Thread) Machine() *Machine { return t.m }

type opKind uint8

const (
	opWork opKind = iota
	opLock
	opUnlock
	opSpawn
	opJoin
	opPark
	opUnpark
	opYield
	opSleep
	opExit
	opPanic
)

type request struct {
	t      *Thread
	kind   opKind
	instr  float64
	misses float64
	lock   int
	other  *Thread
	fn     func(*Thread)
	// panicVal/stack carry a recovered thread panic (opPanic).
	panicVal any
	stack    []byte
}

type lockState struct {
	owner   *Thread
	waiters []*Thread
}

type event struct {
	time clock.Cycles
	seq  uint64
	core int
	gen  uint64
	// wake, when non-nil, marks a sleep-expiry event for that thread
	// instead of a core slice end.
	wake *Thread
}

// Less orders events by time, with the monotonic sequence number breaking
// ties so pop order is deterministic (eventq requires caller tie-breaks).
func (a event) Less(b event) bool {
	if a.time != b.time {
		return a.time < b.time
	}
	return a.seq < b.seq
}

type coreState struct {
	running     *Thread
	gen         uint64
	quantumLeft clock.Cycles
	lastThread  *Thread
	// speed is the core's clock ratio from the machine spec (1 on
	// homogeneous machines, which take the exact legacy timing path).
	speed float64
	// dom is the core's DRAM bandwidth domain (0 unless the spec has a
	// second domain).
	dom uint8
}

// enginePhase is the resumable position inside the engine state machine.
// The classic engine was a nested loop (scheduling fixpoint inside the
// event loop) that called blocked-thread code synchronously; flattening it
// into explicit phases lets the driver or any thread resume the engine
// exactly where the previous caller left off, preserving the original
// decision order (and therefore byte-identical output).
type enginePhase uint8

const (
	// phTop is the top of the event loop: liveness check, then a fresh
	// scheduling fixpoint.
	phTop enginePhase = iota
	// phAssign is mid-pass through the cores of the scheduling fixpoint;
	// assignIdx/assignPlaced carry the continuation.
	phAssign
	// phEvents pops and applies the next slice-end/wake event.
	phEvents
)

// Machine is the simulated multicore machine.
type Machine struct {
	cfg   Config
	ctx   context.Context
	dram  *mem.DRAM
	now   clock.Cycles
	ready []*Thread
	cores []coreState
	// events is the monomorphic min-heap of slice-end and wake events —
	// no interface{} boxing, backing array reused across pooled runs.
	events eventq.Heap[event]
	seq    uint64
	live   int
	nextID int
	locks  map[int]*lockState
	// lockFree recycles lockState structs across pooled runs.
	lockFree []*lockState
	// threads holds every thread slot ever created on this machine;
	// only threads[:nextID] belong to the current run, later slots are
	// retained for reuse.
	threads []*Thread
	// coros holds every coroutine of the current run and idle the ones
	// whose thread has exited, ready for the next Spawn; both are empty
	// between runs.
	coros []*coro
	idle  []*coro
	// pending is the thread a parking or exiting thread chose to resume
	// next, handed to the driver loop in run (nil: the run is over).
	pending *Thread
	stats   Stats
	end     clock.Cycles

	// Engine continuation (see enginePhase).
	phase        enginePhase
	assignIdx    int
	assignPlaced bool

	// Last-segment demand memo: threads running identical work segments
	// (the common case in data-parallel loops) reuse the previous
	// UnconstrainedDemand result. Keyed on the exact float pair, so the
	// cached value is bit-identical to a recomputation.
	demandInstr  float64
	demandMisses float64
	demandVal    float64
	demandOK     bool

	// err is the first failure (deadlock, misuse, budget, panic,
	// cancellation); once set the engine unwinds instead of continuing.
	err error
	// faults, when set, perturbs scheduling (see FaultHooks in run.go).
	faults *FaultHooks
	// tracer, when set, receives schedule/preempt/block/unblock/lock and
	// work-slice events with virtual timestamps (internal/obs). Nil (the
	// default) costs one predictable branch per emission site.
	tracer obs.ExecTracer
	// metrics, when set, aggregates run-level counters (event count,
	// preemptions, watchdog headroom) at the end of the run.
	metrics *obs.Registry
}

// New creates a machine. Most callers use Run instead.
func New(cfg Config) *Machine {
	cfg = cfg.withDefaults()
	m := &Machine{
		cfg:   cfg,
		ctx:   context.Background(),
		dram:  mem.NewDRAM(cfg.DRAM),
		cores: make([]coreState, cfg.Cores),
		locks: make(map[int]*lockState),
	}
	if cfg.Spec != nil {
		m.dram.ResetSpec(cfg.Spec.DRAM)
	}
	for i := range m.cores {
		m.cores[i].quantumLeft = cfg.Quantum
	}
	m.applyCoreSpec(cfg.Spec)
	return m
}

// applyCoreSpec stamps each core's speed ratio and DRAM bandwidth domain
// from the spec. A nil spec (legacy flat config) is a homogeneous
// single-domain machine: every core at speed 1 on domain 0, the exact
// pre-spec timing path.
func (m *Machine) applyCoreSpec(spec *machine.Spec) {
	dom2 := 0
	if spec != nil && spec.DRAM.SecondDomain != nil {
		dom2 = spec.DRAM.SecondDomain.Cores
	}
	n := len(m.cores)
	for i := range m.cores {
		c := &m.cores[i]
		c.speed = 1
		if spec != nil {
			c.speed = spec.SpeedOf(i)
		}
		c.dom = 0
		if dom2 > 0 && i >= n-dom2 {
			c.dom = 1
		}
	}
}

// reset prepares a pooled machine for a fresh run. Heap, core, ready and
// thread storage is retained, so a warmed machine starts a run with
// near-zero allocation.
func (m *Machine) reset(cfg Config) {
	cfg = cfg.withDefaults()
	m.cfg = cfg
	m.ctx = context.Background()
	// The reset is keyed on the spec: a pooled machine re-derives its
	// DRAM domains and per-core speeds from whatever spec (or legacy
	// flat config) the next run carries, reusing all storage.
	if cfg.Spec != nil {
		m.dram.ResetSpec(cfg.Spec.DRAM)
	} else {
		m.dram.Reset(cfg.DRAM)
	}
	m.now = 0
	m.ready = m.ready[:0]
	if cap(m.cores) >= cfg.Cores {
		m.cores = m.cores[:cfg.Cores]
	} else {
		m.cores = make([]coreState, cfg.Cores)
	}
	for i := range m.cores {
		m.cores[i] = coreState{quantumLeft: cfg.Quantum}
	}
	m.applyCoreSpec(cfg.Spec)
	m.events.Reset()
	m.seq = 0
	m.live = 0
	m.nextID = 0
	for id, l := range m.locks {
		l.owner = nil
		l.waiters = l.waiters[:0]
		m.lockFree = append(m.lockFree, l)
		delete(m.locks, id)
	}
	m.stats = Stats{}
	m.end = 0
	m.phase = phTop
	m.assignIdx = 0
	m.assignPlaced = false
	m.demandInstr = 0
	m.demandMisses = 0
	m.demandVal = 0
	m.demandOK = false
	m.err = nil
	m.faults = nil
	m.tracer = nil
	m.metrics = nil
}

// fail records the first error; later failures are dropped.
func (m *Machine) fail(err error) {
	if m.err == nil && err != nil {
		m.err = err
	}
}

// yieldEvery is how many thread resumes the driver loop makes between
// passes through the Go scheduler (about a tenth of a millisecond of
// engine work). Coroutine switches never enter the scheduler, so without
// these passes a run would hold its P until the runtime preempts it after
// 10 ms, and the goroutines waiting on that P (other cells, request
// handlers) would start late by however long the run happens to last.
const yieldEvery = 256

// run drives the engine to completion or failure, resuming each thread the
// engine picks, then stops every coroutine so a finished run leaks
// nothing.
func (m *Machine) run() (clock.Cycles, Stats, error) {
	resumes := 0
	for next := m.advance(); next != nil; next = m.pending {
		m.pending = nil
		next.now = m.now
		next.co.resume()
		if resumes++; resumes%yieldEvery == 0 {
			runtime.Gosched()
		}
	}
	m.stopCoros()
	if m.metrics != nil {
		m.metrics.Counter(obs.MSimRuns).Inc()
		m.metrics.Counter(obs.MSimEvents).Add(m.stats.Events)
		m.metrics.Counter(obs.MSimPreemptions).Add(m.stats.Preemptions)
		if m.cfg.MaxEvents > 0 {
			m.metrics.Histogram(obs.MSimHeadroom).Observe(m.cfg.MaxEvents - m.stats.Events)
		}
	}
	return m.end, m.stats, m.err
}

// Config returns the (defaulted) machine configuration.
func (m *Machine) Config() Config { return m.cfg }

// Time returns the machine's current virtual time.
func (m *Machine) Time() clock.Cycles { return m.now }

// DRAM exposes the memory model (used by calibration benchmarks).
func (m *Machine) DRAM() *mem.DRAM { return m.dram }

func (m *Machine) newThread(f func(*Thread)) *Thread {
	var t *Thread
	if m.nextID < len(m.threads) {
		t = m.threads[m.nextID]
		joiners := t.joiners[:0]
		*t = Thread{id: m.nextID, m: m, core: -1, state: stateReady, pinned: -1}
		t.joiners = joiners
	} else {
		t = &Thread{id: m.nextID, m: m, core: -1, state: stateReady, pinned: -1}
		m.threads = append(m.threads, t)
	}
	m.nextID++
	m.live++
	t.co = m.coroFor(t, f)
	return t
}

// threadBody runs one virtual thread's code on its coroutine and reports
// whether the run unwound it. A thread that returns or panics has exited:
// its coroutine has already picked the next thread (Machine.pending).
func (m *Machine) threadBody(t *Thread, f func(*Thread)) (aborted bool) {
	defer func() {
		if r := recover(); r != nil {
			if r == errAbortRun {
				aborted = true // engine-initiated unwind
				return
			}
			// A bug in the thread function: panics can only happen
			// while the thread's code runs, so this coroutine holds
			// control — report the failure as a typed error and drive
			// the engine into its unwind directly.
			m.handle(request{t: t, kind: opPanic, panicVal: r, stack: debug.Stack()})
			m.pending = m.advance()
		}
	}()
	f(t)
	m.handle(request{t: t, kind: opExit})
	m.pending = m.advance()
	return false
}

// handoff is called by t's coroutine after a handled request parked,
// blocked or preempted t: it drives the engine to the next runnable
// thread and, unless that is t itself (no switch at all), hands it to the
// driver and yields until t is resumed. When the run stops instead, yield
// reports false and t's code unwinds.
func (m *Machine) handoff(t *Thread) {
	next := m.advance()
	if next == t {
		t.now = m.now
		return
	}
	m.pending = next
	if !t.co.yield(struct{}{}) {
		panic(errAbortRun)
	}
}

func (m *Machine) makeReady(t *Thread) {
	if m.tracer != nil && t.state == stateBlocked {
		m.tracer.Exec(obs.ExecEvent{Kind: obs.KUnblock, Time: m.now, Core: -1, Thread: t.id, Lock: -1})
	}
	t.state = stateReady
	t.inPark = false
	t.core = -1
	m.ready = append(m.ready, t)
}

// advance is the engine: it assigns ready threads to idle cores, pops the
// next slice-end event, and advances virtual time until a thread must
// resume its code (returned) or the run is over (nil: every thread exited,
// or err is set). It resumes from the phase where the previous caller
// suspended, replicating the exact decision order of the original
// nested loop so emitted results are byte-identical.
func (m *Machine) advance() *Thread {
	for {
		switch m.phase {
		case phTop:
			if m.live == 0 || m.err != nil {
				return nil
			}
			m.assignPlaced = false
			m.assignIdx = 0
			m.phase = phAssign

		case phAssign:
			// One pass over the cores, resumable at assignIdx:
			// starting a thread can run its code synchronously, which
			// may free the core again or wake further threads, so
			// passes repeat until a fixpoint.
			for i := m.assignIdx; i < len(m.cores); i++ {
				if m.err != nil {
					break
				}
				if m.cores[i].running != nil || len(m.ready) == 0 {
					continue
				}
				// First ready thread compatible with this core (FIFO
				// among compatible threads; pinned threads wait for
				// their core).
				picked := -1
				for k, t := range m.ready {
					if t.pinned == -1 || t.pinned == i {
						picked = k
						break
					}
				}
				if picked < 0 {
					continue
				}
				t := m.ready[picked]
				m.ready = append(m.ready[:picked], m.ready[picked+1:]...)
				m.assignPlaced = true
				if next := m.startOn(i, t); next != nil {
					m.assignIdx = i + 1
					return next
				}
			}
			if m.assignPlaced && m.err == nil {
				m.assignPlaced = false
				m.assignIdx = 0
				continue
			}
			m.phase = phEvents

		case phEvents:
			if m.live == 0 || m.err != nil {
				return nil
			}
			if m.events.Len() == 0 {
				if m.anyRunnable() {
					m.phase = phTop
					continue
				}
				m.fail(m.deadlockError())
				return nil
			}
			if max := m.cfg.MaxEvents; max > 0 && m.stats.Events >= max {
				m.fail(&BudgetError{Time: m.now, Events: m.stats.Events, MaxEvents: max, MaxTime: m.cfg.MaxVirtualTime})
				return nil
			}
			if maxT := m.cfg.MaxVirtualTime; maxT > 0 && m.now >= maxT {
				m.fail(&BudgetError{Time: m.now, Events: m.stats.Events, MaxEvents: m.cfg.MaxEvents, MaxTime: maxT})
				return nil
			}
			// Poll the context every 4096 events: often enough to meet a
			// deadline, rare enough to stay off the hot path.
			if m.stats.Events&0xfff == 0 {
				if err := m.ctx.Err(); err != nil {
					m.fail(fmt.Errorf("sim: run aborted at t=%d after %d events: %w", m.now, m.stats.Events, err))
					return nil
				}
			}
			e := m.events.Pop()
			m.stats.Events++
			m.phase = phTop
			if e.wake != nil {
				if e.time > m.now {
					m.now = e.time
				}
				m.makeReady(e.wake)
				continue
			}
			c := &m.cores[e.core]
			if c.gen != e.gen || c.running == nil {
				continue // stale event from a cancelled slice
			}
			if e.time > m.now {
				m.now = e.time
			}
			if next := m.sliceEnd(e.core); next != nil {
				return next
			}
		}
	}
}

func (m *Machine) anyRunnable() bool {
	return len(m.ready) > 0
}

// quantumFor yields the scheduling quantum for a fresh slice on core i,
// applying the fault-injection jitter hook when installed.
func (m *Machine) quantumFor(i int) clock.Cycles {
	q := m.cfg.Quantum
	if m.faults != nil && m.faults.Quantum != nil {
		if jq := m.faults.Quantum(i, q); jq > 0 {
			q = jq
		}
	}
	return q
}

// startOn places thread t on core i with a fresh quantum and either starts
// its pending work slice (nil return) or asks the caller to resume its
// code (t returned).
func (m *Machine) startOn(i int, t *Thread) *Thread {
	if m.tracer != nil {
		m.tracer.Exec(obs.ExecEvent{Kind: obs.KSchedule, Time: m.now, Core: i, Thread: t.id, Lock: -1})
	}
	c := &m.cores[i]
	c.running = t
	c.quantumLeft = m.quantumFor(i)
	t.state = stateRunning
	t.core = i
	t.now = m.now
	var overhead clock.Cycles
	if c.lastThread != t && c.lastThread != nil {
		overhead = m.cfg.ContextSwitch
	}
	c.lastThread = t
	if t.instrLeft > 0 || t.missesLeft > 0 {
		m.startSlice(i, overhead)
		return nil
	}
	if overhead > 0 {
		// Pay the switch cost before the thread continues.
		t.instrLeft = 0
		m.scheduleSlice(i, overhead, 0)
		return nil
	}
	return t
}

// startSlice begins (or continues) the thread's current work request on
// core i, computing the slice duration under the current DRAM contention.
func (m *Machine) startSlice(i int, overhead clock.Cycles) {
	c := &m.cores[i]
	t := c.running
	if c.speed != 1 {
		// Asymmetric machines take a separate path so the speed-1 math
		// below stays literally the pre-spec code (byte-identical
		// timing on every homogeneous machine, westmere12 included).
		m.startSliceScaled(i, overhead)
		return
	}
	stretch := 1.0
	if t.missesLeft > 0 {
		if m.demandOK && t.instrLeft == m.demandInstr && t.missesLeft == m.demandMisses {
			t.demand = m.demandVal
		} else {
			t.demand = m.cfg.DRAM.UnconstrainedDemand(t.instrLeft, t.missesLeft)
			m.demandInstr, m.demandMisses, m.demandVal, m.demandOK = t.instrLeft, t.missesLeft, t.demand, true
		}
		m.dram.RegisterDom(int(c.dom), t.demand)
		stretch = m.dram.StretchDom(int(c.dom))
	}
	total := t.instrLeft + t.missesLeft*m.cfg.DRAM.UnloadedLatency*stretch
	dur := clock.Cycles(total + 0.5)
	if dur < 1 {
		dur = 1
	}
	work := dur
	if q := c.quantumLeft; work > q {
		work = q
	}
	m.scheduleSlice(i, overhead, work)
	t.sliceWork = work
	t.sliceDur = dur
}

// startSliceScaled is startSlice for a core whose speed ratio is not 1:
// the instruction portion of the segment retires speed× faster (so a
// half-rate efficiency core takes twice the cycles), while memory stalls
// stay on the nominal clock — which also raises (or lowers) the
// unconstrained DRAM demand the segment generates. The demand memo is
// bypassed: it is keyed on the segment alone and would alias segments
// running on cores of different speeds.
func (m *Machine) startSliceScaled(i int, overhead clock.Cycles) {
	c := &m.cores[i]
	t := c.running
	sp := c.speed
	stretch := 1.0
	if t.missesLeft > 0 {
		t.demand = m.cfg.DRAM.UnconstrainedDemand(t.instrLeft/sp, t.missesLeft)
		m.dram.RegisterDom(int(c.dom), t.demand)
		stretch = m.dram.StretchDom(int(c.dom))
	}
	total := t.instrLeft/sp + t.missesLeft*m.cfg.DRAM.UnloadedLatency*stretch
	dur := clock.Cycles(total + 0.5)
	if dur < 1 {
		dur = 1
	}
	work := dur
	if q := c.quantumLeft; work > q {
		work = q
	}
	m.scheduleSlice(i, overhead, work)
	t.sliceWork = work
	t.sliceDur = dur
}

// scheduleSlice arms the slice-end event for core i after overhead+work
// cycles.
func (m *Machine) scheduleSlice(i int, overhead, work clock.Cycles) {
	c := &m.cores[i]
	c.gen++
	m.seq++
	m.events.Push(event{time: m.now + overhead + work, seq: m.seq, core: i, gen: c.gen})
}

// sliceEnd handles the expiry of core i's current slice: work progress is
// booked, and the thread either continues, is preempted, or — when t is
// returned — must resume its code.
func (m *Machine) sliceEnd(i int) *Thread {
	c := &m.cores[i]
	t := c.running
	if t.demand > 0 {
		m.dram.UnregisterDom(int(c.dom), t.demand)
		t.demand = 0
	}
	work := t.sliceWork
	t.sliceWork = 0
	m.stats.BusyCycles += work
	if m.tracer != nil && work > 0 {
		m.tracer.Exec(obs.ExecEvent{Kind: obs.KSlice, Time: m.now - work, End: m.now, Core: i, Thread: t.id, Lock: -1})
	}
	c.quantumLeft -= work
	if t.sliceDur > 0 && work > 0 {
		frac := float64(work) / float64(t.sliceDur)
		if frac > 1 {
			frac = 1
		}
		di := t.instrLeft * frac
		dm := t.missesLeft * frac
		t.instrLeft -= di
		t.missesLeft -= dm
		m.stats.Instructions += di
		m.stats.Misses += dm
	}
	t.sliceDur = 0
	t.now = m.now
	const eps = 0.5
	if t.instrLeft < eps && t.missesLeft < eps {
		t.instrLeft, t.missesLeft = 0, 0
		return t
	}
	if c.quantumLeft <= 0 {
		if len(m.ready) > 0 {
			// Preempt: back of the ready queue.
			m.stats.Preemptions++
			if m.tracer != nil {
				m.tracer.Exec(obs.ExecEvent{Kind: obs.KPreempt, Time: m.now, Core: i, Thread: t.id, Lock: -1})
			}
			c.running = nil
			m.makeReady(t)
			return nil
		}
		c.quantumLeft = m.quantumFor(i)
	}
	m.startSlice(i, 0)
	return nil
}

// handle processes one request; it returns true when the requesting thread
// no longer runs synchronously (parked, working, or exited).
func (m *Machine) handle(req request) bool {
	t := req.t
	switch req.kind {
	case opWork:
		if req.instr <= 0 && req.misses <= 0 {
			return false
		}
		t.instrLeft = req.instr
		t.missesLeft = req.misses
		m.startSlice(t.core, 0)
		return true

	case opLock:
		l := m.lock(req.lock)
		if l.owner == nil {
			l.owner = t
			if m.tracer != nil {
				m.tracer.Exec(obs.ExecEvent{Kind: obs.KLockAcquire, Time: m.now, Core: t.core, Thread: t.id, Lock: req.lock})
			}
			return false
		}
		if m.tracer != nil {
			m.tracer.Exec(obs.ExecEvent{Kind: obs.KLockBlocked, Time: m.now, Core: t.core, Thread: t.id, Lock: req.lock})
		}
		l.waiters = append(l.waiters, t)
		m.block(t)
		return true

	case opUnlock:
		l := m.lock(req.lock)
		if l.owner != t {
			// Double unlock / unlock-without-lock: a buggy annotated
			// program must never crash the host process — abort the
			// run with the same typed error path as deadlock.
			m.fail(&LockMisuseError{Time: m.now, Thread: t.id, Lock: req.lock, Owner: ownerID(l.owner)})
			return true
		}
		if m.tracer != nil {
			m.tracer.Exec(obs.ExecEvent{Kind: obs.KLockRelease, Time: m.now, Core: t.core, Thread: t.id, Lock: req.lock})
		}
		if len(l.waiters) > 0 {
			next := l.waiters[0]
			l.waiters = l.waiters[1:]
			l.owner = next
			if m.tracer != nil {
				// Direct handoff: the waiter owns the lock from now on,
				// though it resumes on a core later.
				m.tracer.Exec(obs.ExecEvent{Kind: obs.KLockAcquire, Time: m.now, Core: -1, Thread: next.id, Lock: req.lock})
			}
			m.makeReady(next)
		} else {
			l.owner = nil
		}
		return false

	case opSpawn:
		nt := m.newThread(req.fn)
		if m.tracer != nil {
			m.tracer.Exec(obs.ExecEvent{Kind: obs.KSpawn, Time: m.now, Core: t.core, Thread: nt.id, Lock: -1})
		}
		m.makeReady(nt)
		t.spawned = nt
		return false

	case opJoin:
		o := req.other
		if o.state == stateExited {
			return false
		}
		o.joiners = append(o.joiners, t)
		m.block(t)
		return true

	case opPark:
		if t.parkToken {
			t.parkToken = false
			return false
		}
		m.block(t)
		t.inPark = true
		return true

	case opUnpark:
		o := req.other
		if o.state == stateBlocked && o.blockedInPark() {
			m.makeReady(o)
		} else {
			o.parkToken = true
		}
		return false

	case opYield:
		if len(m.ready) == 0 {
			return false
		}
		c := &m.cores[t.core]
		c.running = nil
		m.makeReady(t)
		return true

	case opSleep:
		// Timed block without a core (I/O wait): wake at now + d.
		d := clock.Cycles(req.instr)
		if d <= 0 {
			return false
		}
		m.block(t)
		m.seq++
		m.events.Push(event{time: m.now + d, seq: m.seq, wake: t})
		return true

	case opExit:
		if m.tracer != nil {
			m.tracer.Exec(obs.ExecEvent{Kind: obs.KExit, Time: m.now, Core: t.core, Thread: t.id, Lock: -1})
		}
		t.state = stateExited
		m.live--
		if m.now > m.end {
			m.end = m.now
		}
		for _, j := range t.joiners {
			m.makeReady(j)
		}
		t.joiners = t.joiners[:0]
		m.cores[t.core].running = nil
		return true

	case opPanic:
		// A thread function panicked: surface it as an error and stop.
		m.fail(&InternalError{Value: req.panicVal, Stack: req.stack})
		t.state = stateExited
		m.live--
		if t.core >= 0 {
			m.cores[t.core].running = nil
		}
		return true
	}
	panic("sim: unknown request kind")
}

// block removes t from its core and marks it blocked.
func (m *Machine) block(t *Thread) {
	if m.tracer != nil {
		m.tracer.Exec(obs.ExecEvent{Kind: obs.KBlock, Time: m.now, Core: t.core, Thread: t.id, Lock: -1})
	}
	m.cores[t.core].running = nil
	t.state = stateBlocked
	t.core = -1
}

func (m *Machine) lock(id int) *lockState {
	l := m.locks[id]
	if l == nil {
		if n := len(m.lockFree); n > 0 {
			l = m.lockFree[n-1]
			m.lockFree = m.lockFree[:n-1]
		} else {
			l = &lockState{}
		}
		m.locks[id] = l
	}
	return l
}

func ownerID(t *Thread) int {
	if t == nil {
		return -1
	}
	return t.id
}

// blockedInPark distinguishes a parked thread from one blocked on a lock or
// join. A thread blocked on a lock is woken by direct handoff, never by
// Unpark, so the distinction only needs to be "not in any wait list". The
// engine keeps it simple: lock/join waiters are recorded in those
// structures, and Unpark consults this flag set by opPark.
func (t *Thread) blockedInPark() bool { return t.inPark }
