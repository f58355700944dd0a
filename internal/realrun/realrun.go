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

// TimeCtx runs the whole tree as a parallelized program and returns its
// makespan: top-level sections execute through the parallel runtime,
// top-level U nodes serially in between. A deadlocked, over-budget or
// canceled run returns its typed error.
//
// The sections run as the synthesizer's generated program (synth.Program)
// whose leaves replay the measured memory traits. An L segment in an
// OpenMP team is an omp critical section and pays LockEnter/LockExit
// inside the lock; under Cilk and in pipelines it takes the bare mutex.
func TimeCtx(ctx context.Context, root *tree.Node, cfg Config) (clock.Cycles, error) {
	ov := cfg.ompOv()
	critical := false // the running section is an OpenMP team
	prog := &synth.Program{
		Threads:  cfg.Threads,
		Paradigm: cfg.Paradigm,
		Sched:    cfg.Sched,
		OmpOv:    ov,
		CilkOv:   cfg.cilkOv(),
		// Replay one U/W/L leaf: measured memory traits when the
		// profiler recorded them, otherwise the profiled length as pure
		// compute. Every step is queued, so the engine plays a
		// worker's straight-line leaves without resuming its code.
		Leaf: func(w *sim.Thread, seg *tree.Node) {
			if seg.Kind == tree.W {
				// I/O wait: blocks without occupying a core.
				w.Queue(sim.SleepOp(seg.Len))
				return
			}
			locked := seg.Kind == tree.L
			if locked {
				w.Queue(sim.LockOp(seg.LockID))
				if critical {
					w.Queue(sim.WorkOp(ov.LockEnter))
				}
			}
			if seg.Mem.Instructions > 0 || seg.Mem.LLCMisses > 0 {
				w.Queue(sim.MemOp(clock.Cycles(seg.Mem.Instructions), seg.Mem.LLCMisses))
			} else {
				w.Queue(sim.WorkOp(seg.Len))
			}
			if locked {
				if critical {
					w.Queue(sim.WorkOp(ov.LockExit))
				}
				w.Queue(sim.UnlockOp(seg.LockID))
			}
		},
	}
	end, _, err := sim.Run(ctx, cfg.Machine, sim.RunOpts{Tracer: cfg.Tracer, Metrics: cfg.Metrics}, func(main *sim.Thread) {
		for _, c := range root.Children {
			switch c.Kind {
			case tree.U:
				for r := 0; r < c.Reps(); r++ {
					prog.Leaf(main, c)
				}
			case tree.Sec:
				critical = cfg.Paradigm != synth.Cilk && !c.Pipeline
				// Compression can fold identical back-to-back
				// top-level sections into one node: execute it
				// once per repeat.
				for r := 0; r < c.Reps(); r++ {
					prog.RunSection(main, c)
				}
			}
		}
	})
	return end, err
}

// SpeedupCtx returns the profiled serial length of the tree (the paper
// measures speedups against the serial run the profile came from) over
// TimeCtx, by the predictors' speedup rule (tree.Speedup).
func SpeedupCtx(ctx context.Context, root *tree.Node, cfg Config) (float64, error) {
	t, err := TimeCtx(ctx, root, cfg)
	if err != nil {
		return 0, err
	}
	return tree.Speedup(root.TotalLen(), t), nil
}
