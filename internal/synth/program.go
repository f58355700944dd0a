package synth

import (
	"prophet/internal/cilkrt"
	"prophet/internal/omprt"
	"prophet/internal/sim"
	"prophet/internal/tree"
)

// Program is the parallel program generated from a program tree, run on
// the simulated machine: sections become parallel loops on the OpenMP or
// Cilk runtime, tasks walk their segments in order, and nested sections
// recurse into nested loops — the body of EmulWorker in
// Fig. 8. What a leaf segment does is up to Leaf: the synthesizer spins
// for the profiled length, the ground truth (internal/realrun) replays the
// measured memory traits.
type Program struct {
	// Threads is the team/worker count (minimum 1).
	Threads int
	// Paradigm selects OpenMP or Cilk.
	Paradigm Paradigm
	// Sched is the OpenMP schedule (ignored for Cilk).
	Sched omprt.Sched
	// OmpOv / CilkOv are the runtime overhead constants.
	OmpOv  omprt.Overheads
	CilkOv cilkrt.Overheads
	// Leaf runs the body of one repeat of a U, W or L segment on w. The
	// walker holds an L segment's lock around it.
	Leaf func(w *sim.Thread, seg *tree.Node)
}

// RunSection runs one section on main's machine as a parallel loop over
// its logical tasks and returns after its barrier.
func (p *Program) RunSection(main *sim.Thread, sec *tree.Node) {
	nt := max(p.Threads, 1)
	if p.Paradigm == Cilk {
		cilkrt.New(nt, p.CilkOv).Run(main, func(c *cilkrt.Ctx) {
			p.cilkFor(c, sec)
		})
		return
	}
	p.ompFor(omprt.New(nt, p.OmpOv), main, sec)
}

// ompFor runs a section as a parallel-for over its logical tasks; a nested
// section spawns a fresh nested team (naive OpenMP 2.0 nesting).
func (p *Program) ompFor(rt *omprt.Runtime, t *sim.Thread, sec *tree.Node) {
	ix := tree.NewTaskIndex(sec)
	rt.ParallelFor(t, ix.Len(), p.Sched, func(w *sim.Thread, i int) {
		p.task(w, nil, rt, ix.At(i))
	})
}

// cilkFor runs a section as a cilk_for over its logical tasks (grain 1:
// each profiled task is one spawned task).
func (p *Program) cilkFor(c *cilkrt.Ctx, sec *tree.Node) {
	ix := tree.NewTaskIndex(sec)
	c.For(ix.Len(), 1, func(cc *cilkrt.Ctx, i int) {
		p.task(cc.Thread(), cc, nil, ix.At(i))
	})
}

// task walks one task's segments on w, every repeat in order. A nested
// section recurses through the Cilk context c when set, else through rt.
func (p *Program) task(w *sim.Thread, c *cilkrt.Ctx, rt *omprt.Runtime, task *tree.Node) {
	for _, seg := range task.Children {
		for r := 0; r < seg.Reps(); r++ {
			switch {
			case seg.Kind != tree.Sec:
				p.leaf(w, seg, rt != nil)
			case c != nil:
				p.cilkFor(c, seg)
			default:
				p.ompFor(rt, w, seg)
			}
		}
	}
}

// leaf runs one repeat of a U, W or L segment on w. An L segment runs Leaf
// under its lock; with critical set (an OpenMP team, not Cilk) it is an
// omp critical and pays LockEnter/LockExit inside it.
func (p *Program) leaf(w *sim.Thread, seg *tree.Node, critical bool) {
	if seg.Kind != tree.L {
		p.Leaf(w, seg)
		return
	}
	w.Queue(sim.LockOp(seg.LockID))
	if critical {
		w.Queue(sim.WorkOp(p.OmpOv.LockEnter))
	}
	p.Leaf(w, seg)
	if critical {
		w.Queue(sim.WorkOp(p.OmpOv.LockExit))
	}
	w.Queue(sim.UnlockOp(seg.LockID))
}
