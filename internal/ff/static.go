package ff

import (
	"prophet/internal/clock"
	"prophet/internal/omprt"
	"prophet/internal/tree"
)

// staticPlan is the iteration-to-worker map of the static schedules over n
// logical tasks and nt workers. (static) gives worker k one contiguous
// block, the first n%nt blocks one task longer; (static,c) deals chunks of
// c tasks round-robin, so index i belongs to worker (i/c) % nt. The heap
// path asks it for a worker's pos-th task, the closed form for the owners
// and per-worker counts of a Repeat run.
type staticPlan struct {
	chunked   bool
	n, nt     int
	base, rem int // (static): block length and count of longer blocks
	c         int // (static,c): chunk length, clamped to [1, n]
}

func newStaticPlan(sched omprt.Sched, n, nt int) staticPlan {
	sp := staticPlan{chunked: sched.Kind == omprt.StaticChunk, n: n, nt: nt, base: n / nt, rem: n % nt}
	// A chunk longer than the loop is the loop: clamping keeps c*nt
	// from overflowing without moving any task.
	sp.c = min(max(sched.Chunk, 1), max(n, 1))
	return sp
}

// block returns worker k's contiguous (static) range [lo, hi).
func (sp staticPlan) block(k int) (lo, hi int) {
	lo = k*sp.base + min(k, sp.rem)
	hi = lo + sp.base
	if k < sp.rem {
		hi++
	}
	return lo, hi
}

// index returns the logical index of worker k's pos-th task; ok is false
// once the worker's share is exhausted.
func (sp staticPlan) index(k, pos int) (i int, ok bool) {
	if !sp.chunked {
		lo, hi := sp.block(k)
		i = lo + pos
		return i, i < hi
	}
	i = (pos/sp.c)*sp.c*sp.nt + k*sp.c + pos%sp.c
	return i, i < sp.n
}

// below returns how many of worker k's (static,c) indices lie in [0, x).
func (sp staticPlan) below(k, x int) int {
	cycle := sp.c * sp.nt
	return (x/cycle)*sp.c + min(max(x%cycle-k*sp.c, 0), sp.c)
}

// owner returns the worker that runs logical index i under (static).
func (sp staticPlan) owner(i int) int {
	if long := sp.rem * (sp.base + 1); i < long {
		return i / (sp.base + 1)
	}
	return sp.rem + (i-sp.rem*(sp.base+1))/sp.base
}

// eachOwner calls fn(k, count) for every worker that owns count > 0 of
// the indices in [a, b), visiting O(min(owners, nt)) workers.
func (sp staticPlan) eachOwner(a, b int, fn func(k, count int)) {
	if !sp.chunked {
		for k, last := sp.owner(a), sp.owner(b-1); k <= last; k++ {
			lo, hi := sp.block(k)
			fn(k, min(hi, b)-max(lo, a))
		}
		return
	}
	qa, qb := a/sp.c, (b-1)/sp.c
	if qb-qa+1 < sp.nt {
		// Fewer chunks than workers: each touched chunk has its own owner.
		for q := qa; q <= qb; q++ {
			k := q % sp.nt
			fn(k, sp.below(k, b)-sp.below(k, a))
		}
		return
	}
	for k := 0; k < sp.nt; k++ {
		fn(k, sp.below(k, b)-sp.below(k, a))
	}
}

// flatShape returns the section's logical task count and whether it is
// flat: not a pipeline, and every Task child holds only U/W segments. The
// workers of a flat section share no state (no lock free-times, no nested
// CPU slots), so the order in which the heap would interleave them cannot
// change any worker's clock.
func flatShape(sec *tree.Node) (n int, flat bool) {
	flat = !sec.Pipeline
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
// begin + WorkerInit + Σ over its tasks (StaticDispatch + task length), an
// integer sum the heap would accumulate one segment at a time, so the
// result is bit-identical to the heap path. The walk follows the
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
	for k := range times {
		times[k] = begin + st.ov.WorkerInit
	}
	sp := newStaticPlan(st.sched, n, nt)
	var task *tree.Node
	var cost clock.Cycles
	add := func(k, count int) {
		st.tick()
		if st.speeds != nil {
			// Worker k runs on CPU k (nt <= p).
			cost = st.ov.StaticDispatch + st.flatTaskLen(task, k)
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
			cost = st.ov.StaticDispatch + st.flatTaskLen(c, 0)
		}
		sp.eachOwner(idx, idx+c.Reps(), add)
		idx += c.Reps()
	}
	var finish clock.Cycles
	for _, t := range times {
		if t > finish {
			finish = t
		}
	}
	return finish - start + st.ov.JoinBarrier
}
