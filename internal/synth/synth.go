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
package synth

import (
	"context"
	"sort"

	"prophet/internal/cilkrt"
	"prophet/internal/clock"
	"prophet/internal/obs"
	"prophet/internal/omprt"
	"prophet/internal/pipesim"
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
// whole program tree: emulated top-level sections plus untouched serial
// regions (§IV-E's overall formula). The underlying machine runs are
// cancelable through ctx, and simulation failures (deadlock, budget,
// internal error) return as typed errors.
func (s *Synthesizer) PredictTimeCtx(ctx context.Context, root *tree.Node) (clock.Cycles, error) {
	total := root.SerialOutsideSections()
	for _, sec := range root.TopLevelSections() {
		// A Repeat-compressed top-level section ran Reps times
		// back-to-back in the serial program; one emulation per
		// repeat would waste time, so multiply.
		d, err := s.emulateTopLevelParSec(ctx, sec)
		if err != nil {
			return 0, err
		}
		total += d * clock.Cycles(sec.Reps())
	}
	return total, nil
}

// SpeedupCtx returns serial time / predicted time.
func (s *Synthesizer) SpeedupCtx(ctx context.Context, root *tree.Node) (float64, error) {
	serial := root.TotalLen()
	pred, err := s.PredictTimeCtx(ctx, root)
	if err != nil {
		return 0, err
	}
	if pred <= 0 {
		return 1, nil
	}
	return float64(serial) / float64(pred), nil
}

// overheadMgr accumulates per-worker tree-traversal overhead; the engine
// serializes sim threads, so a plain map is safe.
type overheadMgr struct {
	perThread map[int]clock.Cycles
}

func newOverheadMgr() *overheadMgr {
	return &overheadMgr{perThread: make(map[int]clock.Cycles)}
}

func (o *overheadMgr) charge(t *sim.Thread, c clock.Cycles) {
	t.Work(c)
	o.perThread[t.ID()] += c
}

// longest returns the largest per-worker overhead (Fig. 8's
// GetLongestOverhead).
func (o *overheadMgr) longest() clock.Cycles {
	var best clock.Cycles
	for _, v := range o.perThread {
		if v > best {
			best = v
		}
	}
	return best
}

// emulateTopLevelParSec synthesizes and runs one top-level section and
// returns its net duration (gross minus the longest traversal overhead).
func (s *Synthesizer) emulateTopLevelParSec(ctx context.Context, sec *tree.Node) (clock.Cycles, error) {
	burden := 1.0
	if s.UseBurden {
		burden = sec.BurdenFor(s.threads())
	}
	om := newOverheadMgr()
	gross, _, err := sim.Run(ctx, s.Machine, sim.RunOpts{Tracer: s.Tracer, Metrics: s.Metrics}, func(main *sim.Thread) {
		if sec.Pipeline {
			pipesim.Run(main, sec, s.threads(), func(w *sim.Thread, seg *tree.Node) {
				om.charge(w, s.accessNode())
				switch seg.Kind {
				case tree.L:
					w.Lock(seg.LockID)
					w.Work(s.scaled(seg.Len, burden))
					w.Unlock(seg.LockID)
				case tree.W:
					w.Sleep(seg.Len)
				default:
					w.Work(s.scaled(seg.Len, burden))
				}
			})
			return
		}
		switch s.Paradigm {
		case Cilk:
			rt := cilkrt.New(s.threads(), s.CilkOv)
			rt.Run(main, func(c *cilkrt.Ctx) {
				s.runSecCilk(c, sec, burden, om)
			})
		default:
			rt := omprt.New(s.threads(), s.OmpOv)
			s.runSecOMP(rt, main, sec, burden, om)
		}
	})
	if err != nil {
		return 0, err
	}
	net := gross - om.longest()
	if net < 0 {
		net = 0
	}
	return net, nil
}

func (s *Synthesizer) scaled(l clock.Cycles, burden float64) clock.Cycles {
	if burden == 1 {
		return l
	}
	return clock.Cycles(float64(l)*burden + 0.5)
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

// taskIndex maps a logical iteration number to its (possibly
// Repeat-compressed) Task node without expanding the tree.
type taskIndex struct {
	nodes []*tree.Node
	cum   []int // cum[i] = logical tasks before nodes[i]
	total int
}

func buildTaskIndex(sec *tree.Node) *taskIndex {
	ti := &taskIndex{}
	for _, c := range sec.Children {
		if c.Kind != tree.Task {
			continue
		}
		ti.nodes = append(ti.nodes, c)
		ti.cum = append(ti.cum, ti.total)
		ti.total += c.Reps()
	}
	return ti
}

func (ti *taskIndex) at(i int) *tree.Node {
	k := sort.Search(len(ti.cum), func(j int) bool { return ti.cum[j] > i }) - 1
	return ti.nodes[k]
}

// runSecOMP emulates a section with the OpenMP runtime: a parallel-for over
// its logical tasks. Nested sections recurse with a fresh nested team
// (EmulWorker's 'Sec' case in Fig. 8, OpenMP flavour).
func (s *Synthesizer) runSecOMP(rt *omprt.Runtime, t *sim.Thread, sec *tree.Node, burden float64, om *overheadMgr) {
	ti := buildTaskIndex(sec)
	rt.ParallelFor(t, ti.total, s.Sched, func(w *sim.Thread, i int) {
		s.runTask(rtExec{omp: rt}, w, nil, ti.at(i), burden, om)
	})
}

// runSecCilk emulates a section with the Cilk runtime: a cilk_for over its
// logical tasks (grain 1: each profiled task is one emulated task).
func (s *Synthesizer) runSecCilk(c *cilkrt.Ctx, sec *tree.Node, burden float64, om *overheadMgr) {
	ti := buildTaskIndex(sec)
	c.For(ti.total, 1, func(cc *cilkrt.Ctx, i int) {
		s.runTask(rtExec{}, cc.Thread(), cc, ti.at(i), burden, om)
	})
}

// rtExec carries the OpenMP runtime when emulating under OpenMP; for Cilk
// the context itself is passed along.
type rtExec struct {
	omp *omprt.Runtime
}

// runTask walks one task's segments, emulating computation with FakeDelay
// (Work), locks with real machine mutexes, and nested sections with
// recursive parallel loops — the body of EmulWorker in Fig. 8.
func (s *Synthesizer) runTask(ex rtExec, w *sim.Thread, cc *cilkrt.Ctx, task *tree.Node, burden float64, om *overheadMgr) {
	for _, seg := range task.Children {
		for r := 0; r < seg.Reps(); r++ {
			om.charge(w, s.accessNode())
			switch seg.Kind {
			case tree.U:
				w.Work(s.scaled(seg.Len, burden))
			case tree.W:
				// I/O waits release the core: other workers run.
				w.Sleep(seg.Len)
			case tree.L:
				w.Lock(seg.LockID)
				w.Work(s.scaled(seg.Len, burden))
				w.Unlock(seg.LockID)
			case tree.Sec:
				om.charge(w, s.recursiveCall())
				if cc != nil {
					s.runSecCilk(cc, seg, burden, om)
				} else {
					s.runSecOMP(ex.omp, w, seg, burden, om)
				}
			}
		}
	}
}
