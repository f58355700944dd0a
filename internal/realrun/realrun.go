// Package realrun produces the "Real" speedups of the paper's evaluation
// (Fig. 2, Fig. 11, Fig. 12): it executes a profiled program tree as an
// actually parallelized program on the simulated machine, through the
// OpenMP (internal/omprt) or Cilk (internal/cilkrt) runtime, with every
// node's *measured memory traits* replayed through the contended DRAM
// model.
//
// This is the reproduction's substitute for the paper's hand-parallelized
// benchmark runs on the Westmere testbed: the parallel code the authors
// wrote corresponds 1:1 to the annotated structure (that is the premise of
// annotation-based prediction), so replaying the tree through a real
// runtime on the machine model *is* running the parallelized program.
// Unlike the predictors, realrun reads the per-node MemTraits — the
// information barrier the paper's tool operates behind stays intact.
package realrun

import (
	"context"

	"prophet/internal/cilkrt"
	"prophet/internal/clock"
	"prophet/internal/obs"
	"prophet/internal/omprt"
	"prophet/internal/pipesim"
	"prophet/internal/sim"
	"prophet/internal/synth"
	"prophet/internal/tree"
)

// Config selects the machine, runtime and schedule for the ground truth.
type Config struct {
	// Machine is the simulated machine (zero = the 12-core default).
	Machine sim.Config
	// Threads is the team/worker count.
	Threads int
	// Paradigm is OpenMP or Cilk.
	Paradigm synth.Paradigm
	// Sched is the OpenMP schedule (ignored for Cilk).
	Sched omprt.Sched
	// OmpOv / CilkOv are the runtime overhead constants; zero values
	// select the calibrated defaults.
	OmpOv  *omprt.Overheads
	CilkOv *cilkrt.Overheads
	// Tracer, when set, receives the machine run's execution events
	// (internal/obs); nil disables tracing.
	Tracer obs.ExecTracer
	// Metrics, when set, aggregates the run's DES counters.
	Metrics *obs.Registry
}

func (c Config) threads() int {
	if c.Threads < 1 {
		return 1
	}
	return c.Threads
}

func (c Config) ompOv() omprt.Overheads {
	if c.OmpOv != nil {
		return *c.OmpOv
	}
	return omprt.DefaultOverheads()
}

func (c Config) cilkOv() cilkrt.Overheads {
	if c.CilkOv != nil {
		return *c.CilkOv
	}
	return cilkrt.DefaultOverheads()
}

// segWork replays one U/L leaf's computation on a sim thread: measured
// memory traits when the profiler recorded them, otherwise the profiled
// length as pure compute.
func segWork(w *sim.Thread, n *tree.Node) {
	if n.Kind == tree.W {
		// I/O wait: blocks without occupying a core.
		w.Sleep(n.Len)
		return
	}
	if n.Mem.Instructions > 0 || n.Mem.LLCMisses > 0 {
		w.WorkMem(clock.Cycles(n.Mem.Instructions), n.Mem.LLCMisses)
	} else {
		w.Work(n.Len)
	}
}

// TimeCtx runs the whole tree as a parallelized program and returns its
// makespan: top-level sections execute through the parallel runtime,
// top-level U nodes serially in between. A deadlocked, over-budget or
// canceled run returns its typed error.
func TimeCtx(ctx context.Context, root *tree.Node, cfg Config) (clock.Cycles, error) {
	end, _, err := sim.Run(ctx, cfg.Machine, sim.RunOpts{Tracer: cfg.Tracer, Metrics: cfg.Metrics}, func(main *sim.Thread) {
		for _, c := range root.Children {
			switch c.Kind {
			case tree.U:
				for r := 0; r < c.Reps(); r++ {
					segWork(main, c)
				}
			case tree.Sec:
				// Compression can fold identical back-to-back
				// top-level sections into one node: execute it
				// once per repeat.
				for r := 0; r < c.Reps(); r++ {
					runSection(main, c, cfg)
				}
			}
		}
	})
	return end, err
}

// runSection executes one top-level section through the configured runtime.
func runSection(main *sim.Thread, sec *tree.Node, cfg Config) {
	if sec.Pipeline {
		pipesim.Run(main, sec, cfg.threads(), func(w *sim.Thread, seg *tree.Node) {
			if seg.Kind == tree.L {
				w.Lock(seg.LockID)
				segWork(w, seg)
				w.Unlock(seg.LockID)
				return
			}
			segWork(w, seg)
		})
		return
	}
	switch cfg.Paradigm {
	case synth.Cilk:
		rt := cilkrt.New(cfg.threads(), cfg.cilkOv())
		rt.Run(main, func(c *cilkrt.Ctx) {
			runSecCilk(c, sec)
		})
	default:
		rt := omprt.New(cfg.threads(), cfg.ompOv())
		runSecOMP(rt, main, sec, cfg.Sched)
	}
}

// taskIndex maps logical iteration numbers onto (possibly compressed) Task
// nodes, shared with the synthesizer's indexing strategy.
type taskIndex struct {
	nodes []*tree.Node
	cum   []int
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
	lo, hi := 0, len(ti.cum)-1
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if ti.cum[mid] <= i {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return ti.nodes[lo]
}

func runSecOMP(rt *omprt.Runtime, t *sim.Thread, sec *tree.Node, sched omprt.Sched) {
	ti := buildTaskIndex(sec)
	rt.ParallelFor(t, ti.total, sched, func(w *sim.Thread, i int) {
		runTaskOMP(rt, w, ti.at(i), sched)
	})
}

func runTaskOMP(rt *omprt.Runtime, w *sim.Thread, task *tree.Node, sched omprt.Sched) {
	for _, seg := range task.Children {
		for r := 0; r < seg.Reps(); r++ {
			switch seg.Kind {
			case tree.U, tree.W:
				segWork(w, seg)
			case tree.L:
				rt.Critical(w, seg.LockID, func() { segWork(w, seg) })
			case tree.Sec:
				// Naive OpenMP 2.0 nesting: a fresh nested team.
				runSecOMP(rt, w, seg, sched)
			}
		}
	}
}

func runSecCilk(c *cilkrt.Ctx, sec *tree.Node) {
	ti := buildTaskIndex(sec)
	c.For(ti.total, 1, func(cc *cilkrt.Ctx, i int) {
		runTaskCilk(cc, ti.at(i))
	})
}

func runTaskCilk(c *cilkrt.Ctx, task *tree.Node) {
	for _, seg := range task.Children {
		for r := 0; r < seg.Reps(); r++ {
			switch seg.Kind {
			case tree.U, tree.W:
				segWork(c.Thread(), seg)
			case tree.L:
				c.Thread().Lock(seg.LockID)
				segWork(c.Thread(), seg)
				c.Thread().Unlock(seg.LockID)
			case tree.Sec:
				runSecCilk(c, seg)
			}
		}
	}
}

// SerialTime returns the baseline: the profiled serial length of the tree
// (the paper measures speedups against the serial run the profile came
// from).
func SerialTime(root *tree.Node) clock.Cycles {
	return root.TotalLen()
}

// SpeedupCtx returns SerialTime / TimeCtx for the given configuration.
func SpeedupCtx(ctx context.Context, root *tree.Node, cfg Config) (float64, error) {
	t, err := TimeCtx(ctx, root, cfg)
	if err != nil {
		return 0, err
	}
	if t <= 0 {
		return 1, nil
	}
	return float64(SerialTime(root)) / float64(t), nil
}
