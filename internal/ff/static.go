package ff

import (
	"prophet/internal/clock"
	"prophet/internal/omprt"
	"prophet/internal/tree"
)

// flatShape returns the section's logical task count and whether it is
// flat: every Task child holds only U/W segments. The workers of a flat
// section share no state (no lock free-times, no nested CPU slots), so the
// order in which the heap would interleave them cannot change any worker's
// clock.
func flatShape(sec *tree.Node) (n int, flat bool) {
	flat = true
	for _, c := range sec.Children {
		if c.Kind != tree.Task {
			continue
		}
		n += c.Reps()
		for _, seg := range c.Children {
			if seg.Kind != tree.U && seg.Kind != tree.W {
				flat = false
			}
		}
	}
	return n, flat
}

// flatTaskLen is the time one iteration of a flat task takes on cpu,
// excluding dispatch: exactly the sum of the per-segment clock advances
// the heap path's execSegment would make.
func (st *state) flatTaskLen(task *tree.Node, cpu int) clock.Cycles {
	var t clock.Cycles
	for _, seg := range task.Children {
		t += clock.Cycles(seg.Reps()) * st.scaledOn(cpu, seg.Len)
	}
	return t
}

// emulateStaticFlat is emulateSection for a flat section of n > 0 logical
// tasks under (static) or (static,c), in closed form. Worker k's finish is
// begin + WorkerInit + Ranges(k)·StaticDispatch + Σ over its tasks of the
// task length, an integer sum the heap would accumulate one segment at a
// time, so the result is bit-identical to the heap path. The walk follows the
// compressed Repeat runs: a run costs one task-length evaluation (one per
// owning worker on a heterogeneous machine) and one step per owning worker.
func emulateStaticFlat(st *state, sec *tree.Node, start clock.Cycles, p, n int) clock.Cycles {
	nt := min(p, n)
	begin := start + st.ov.ForkPerThread*clock.Cycles(nt-1)
	sc := getScratch()
	defer putScratch(sc)
	if cap(sc.times) < nt {
		sc.times = make([]clock.Cycles, nt)
	}
	times := sc.times[:nt]
	plan := omprt.NewPlan(st.sched, n, nt)
	for k := range times {
		times[k] = begin + st.ov.WorkerInit + clock.Cycles(plan.Ranges(k))*st.ov.StaticDispatch
	}
	var task *tree.Node
	var cost clock.Cycles
	add := func(k, count int) {
		st.tick()
		if st.speeds != nil {
			// Worker k runs on CPU k (nt <= p).
			cost = st.flatTaskLen(task, k)
		}
		times[k] += clock.Cycles(count) * cost
	}
	idx := 0
	for _, c := range sec.Children {
		if c.Kind != tree.Task {
			continue
		}
		task = c
		if st.speeds == nil {
			cost = st.flatTaskLen(c, 0)
		}
		plan.EachOwner(idx, idx+c.Reps(), add)
		idx += c.Reps()
	}
	var finish clock.Cycles
	for _, t := range times {
		if t > finish {
			finish = t
		}
	}
	return finish - start + st.join(nt)
}
