// Package synth implements Parallel Prophet's program-synthesis-based
// emulation (the synthesizer, §IV-E / Fig. 8 of the paper).
//
// Instead of fast-forwarding an abstract clock, the synthesizer *generates
// a parallel program* from the program tree — FakeDelay spins for U nodes,
// real mutexes for L nodes, recursive parallel loops for nested Sec nodes —
// and runs it through a real parallel runtime on the target machine. All
// scheduling, oversubscription and OS effects are therefore modeled
// implicitly and exactly ("the parallel library and operating system will
// automatically handle them"), which is what fixes the FF's nested-loop
// misprediction (Fig. 7).
//
// In the paper the target is the real testbed; in this reproduction it is
// the simulated machine (internal/sim) with the OpenMP (internal/omprt) or
// Cilk (internal/cilkrt) runtime on top. The tree-traversal overhead —
// OVERHEAD_ACCESS_NODE per node and OVERHEAD_RECURSIVE_CALL per nested
// section — is charged while running and the longest per-worker total is
// subtracted from the gross time, exactly as Fig. 8's OverheadManager does.
//
// The whole-program loop, with the per-estimate memo that emulates each
// distinct top-level section once, is tree.Driver, shared with the FF.
package synth

import (
	"context"

	"prophet/internal/cilkrt"
	"prophet/internal/clock"
	"prophet/internal/obs"
	"prophet/internal/omprt"
	"prophet/internal/sim"
	"prophet/internal/tree"
)

// Paradigm selects the threading runtime the synthetic program uses.
type Paradigm uint8

// Supported paradigms.
const (
	// OpenMP runs sections as parallel-for loops with the configured
	// schedule; nested sections spawn nested teams (OpenMP 2.0 style).
	OpenMP Paradigm = iota
	// Cilk runs sections as cilk_for loops on a work-stealing runtime;
	// nested sections become nested cilk_for calls.
	Cilk
)

// String names the paradigm.
func (p Paradigm) String() string {
	if p == Cilk {
		return "cilk"
	}
	return "openmp"
}

// Synthesizer predicts parallel execution time by running generated code on
// the simulated target machine.
type Synthesizer struct {
	// Threads is the number of runtime threads/workers to emulate
	// (the paper's __cilkrts_set_param("nworkers", t)).
	Threads int
	// Paradigm selects OpenMP or Cilk.
	Paradigm Paradigm
	// Sched is the OpenMP schedule (ignored for Cilk).
	Sched omprt.Sched
	// UseBurden applies the memory model's burden factors (PredM).
	UseBurden bool
	// Machine is the target machine configuration; zero values default
	// to the paper's 12-core machine.
	Machine sim.Config
	// OmpOv / CilkOv are the runtime overhead constants.
	OmpOv  omprt.Overheads
	CilkOv cilkrt.Overheads
	// AccessNode is OVERHEAD_ACCESS_NODE: the cost of visiting one tree
	// node while emulating (~50 cycles on the paper's machine).
	AccessNode clock.Cycles
	// RecursiveCall is OVERHEAD_RECURSIVE_CALL, charged per nested
	// section entry.
	RecursiveCall clock.Cycles
	// Tracer, when set, is attached to the simulated machine runs: the
	// synthesized program's schedule/lock/slice events stream out with
	// virtual timestamps (internal/obs). Nil disables tracing.
	Tracer obs.ExecTracer
	// Metrics, when set, aggregates the machine runs' DES counters.
	Metrics *obs.Registry
}

// Default traversal-overhead constants (the paper measured ~50 cycles for
// both units on its machine).
const (
	DefaultAccessNode    clock.Cycles = 50
	DefaultRecursiveCall clock.Cycles = 50
)

func (s *Synthesizer) threads() int {
	if s.Threads < 1 {
		return 1
	}
	return s.Threads
}

// PredictTimeCtx returns the synthesized-program execution time for the
// whole program tree (tree.Driver). The machine runs are cancelable
// through ctx, and simulation failures (deadlock, budget, internal error)
// return as typed errors. Every machine run starts from a reset machine,
// so the driver's memo is exact; with a Tracer attached every occurrence
// is emulated, so the trace shows each section.
func (s *Synthesizer) PredictTimeCtx(ctx context.Context, root *tree.Node) (clock.Cycles, error) {
	return s.driver().PredictTime(ctx, root)
}

// SpeedupCtx returns serial time / predicted time.
func (s *Synthesizer) SpeedupCtx(ctx context.Context, root *tree.Node) (float64, error) {
	return s.driver().Speedup(ctx, root)
}

// driver is the whole-program loop around one estimate's generated program.
func (s *Synthesizer) driver() tree.Driver {
	return tree.Driver{Threads: s.threads(), UseBurden: s.UseBurden, EveryOccurrence: s.Tracer != nil, Section: s.newEmulation().emulateTopLevelParSec}
}

// emulation is the program the synthesizer generates for one estimate.
// Its Leaf and visit closures are built once and read the section being
// emulated: its burden factor and the per-worker traversal overhead that
// Fig. 8's OverheadManager accumulates, indexed by sim thread ID (the
// engine serializes sim threads, so a plain slice is safe; it is cleared
// per section and its backing array reused).
type emulation struct {
	s        *Synthesizer
	prog     Program
	burden   float64
	overhead []clock.Cycles
}

func (s *Synthesizer) newEmulation() *emulation {
	e := &emulation{s: s}
	access, call := s.accessNode(), s.recursiveCall()
	e.prog = Program{
		Threads:  s.threads(),
		Paradigm: s.Paradigm,
		Sched:    s.Sched,
		OmpOv:    s.OmpOv,
		CilkOv:   s.CilkOv,
		// FakeDelay for computation (the walker holds an L segment's
		// mutex around it), all queued: the engine plays a worker's
		// straight-line steps.
		Leaf: func(w *sim.Thread, seg *tree.Node) {
			if seg.Kind == tree.W {
				// I/O waits release the core: other workers run.
				w.Queue(sim.SleepOp(seg.Len))
				return
			}
			w.Queue(sim.WorkOp(tree.Scaled(seg.Len, e.burden)))
		},
		visit: func(w *sim.Thread, seg *tree.Node) {
			c := access
			w.Queue(sim.WorkOp(access))
			if seg.Kind == tree.Sec {
				w.Queue(sim.WorkOp(call))
				c += call
			}
			e.charge(w.ID(), c)
		},
	}
	return e
}

// emulateTopLevelParSec runs one top-level section of the generated
// program with its lengths scaled by burden and returns its net duration:
// gross minus the longest per-worker traversal overhead (Fig. 8's
// GetLongestOverhead).
func (e *emulation) emulateTopLevelParSec(ctx context.Context, sec *tree.Node, burden float64) (clock.Cycles, error) {
	s := e.s
	e.burden = burden
	e.overhead = e.overhead[:0]
	gross, _, err := sim.Run(ctx, s.Machine, sim.RunOpts{Tracer: s.Tracer, Metrics: s.Metrics}, func(main *sim.Thread) {
		e.prog.RunSection(main, sec)
	})
	if err != nil {
		return 0, err
	}
	var longest clock.Cycles
	for _, v := range e.overhead {
		longest = max(longest, v)
	}
	return max(gross-longest, 0), nil
}

// charge adds c to thread id's traversal overhead.
func (e *emulation) charge(id int, c clock.Cycles) {
	for len(e.overhead) <= id {
		e.overhead = append(e.overhead, 0)
	}
	e.overhead[id] += c
}

func (s *Synthesizer) accessNode() clock.Cycles {
	if s.AccessNode > 0 {
		return s.AccessNode
	}
	return DefaultAccessNode
}

func (s *Synthesizer) recursiveCall() clock.Cycles {
	if s.RecursiveCall > 0 {
		return s.RecursiveCall
	}
	return DefaultRecursiveCall
}
