package omprt

import (
	"testing"

	"prophet/internal/clock"
	"prophet/internal/sim"
)

// assignmentMap records which worker ran each iteration.
func assignmentMap(t *testing.T, threads, n int, sched Sched) []int {
	owner := make([]int, n)
	rt := New(threads, zeroOv)
	mustRun(t, mcfg(threads+1), func(t *sim.Thread) {
		rt.ParallelFor(t, n, sched, func(w *sim.Thread, i int) {
			owner[i] = w.ID() // engine-serialized: safe
			w.Work(10)
		})
	})
	// Normalize worker identities to ranks by first appearance.
	rank := map[int]int{}
	out := make([]int, n)
	for i, id := range owner {
		r, ok := rank[id]
		if !ok {
			r = len(rank)
			rank[id] = r
		}
		out[i] = r
	}
	return out
}

// TestStaticAssignmentConformance: schedule(static) deals contiguous
// blocks with the remainder spread over the first threads, per the
// OpenMP spec's common implementation.
func TestStaticAssignmentConformance(t *testing.T) {
	owner := assignmentMap(t, 4, 10, SchedStatic)
	// 10 = 3+3+2+2: blocks [0..2][3..5][6..7][8..9].
	blocks := map[int]int{}
	for i := 1; i < len(owner); i++ {
		if owner[i] < owner[i-1] {
			t.Fatalf("static blocks not contiguous: %v", owner)
		}
	}
	for _, o := range owner {
		blocks[o]++
	}
	if blocks[0] != 3 || blocks[1] != 3 || blocks[2] != 2 || blocks[3] != 2 {
		t.Fatalf("static block sizes = %v, want 3/3/2/2", blocks)
	}
}

// TestStaticChunkAssignmentConformance: schedule(static,c) deals chunks
// round-robin, so iteration i belongs to worker (i/c) mod nt.
func TestStaticChunkAssignmentConformance(t *testing.T) {
	const nt, n, c = 3, 17, 2
	owner := assignmentMap(t, nt, n, Sched{Kind: StaticChunk, Chunk: c})
	for i, o := range owner {
		if want := (i / c) % nt; o != want {
			t.Fatalf("iteration %d on worker %d, want %d (%v)", i, o, want, owner)
		}
	}
}

// TestDynamicMonotonePerWorker: under dynamic scheduling each worker's
// iterations are increasing (the shared counter only moves forward).
func TestDynamicMonotonePerWorker(t *testing.T) {
	const nt, n = 4, 50
	var perWorker [nt][]int
	rt := New(nt, zeroOv)
	mustRun(t, mcfg(nt+1), func(th *sim.Thread) {
		ids := map[int]int{}
		rt.ParallelFor(th, n, SchedDynamic1, func(w *sim.Thread, i int) {
			r, ok := ids[w.ID()]
			if !ok {
				r = len(ids)
				ids[w.ID()] = r
			}
			perWorker[r] = append(perWorker[r], i)
			w.Work(clock.Cycles(100 * (i%7 + 1)))
		})
	})
	for r, list := range perWorker {
		for k := 1; k < len(list); k++ {
			if list[k] <= list[k-1] {
				t.Fatalf("worker %d fetched out of order: %v", r, list)
			}
		}
	}
}

// TestBarrierHoldsMaster: the master cannot pass ParallelFor until the
// slowest worker finishes (implicit barrier).
func TestBarrierHoldsMaster(t *testing.T) {
	rt := New(4, zeroOv)
	var after clock.Cycles
	mustRun(t, mcfg(5), func(th *sim.Thread) {
		rt.ParallelFor(th, 4, SchedStatic1, func(w *sim.Thread, i int) {
			w.Work(clock.Cycles(10_000 * (i + 1))) // slowest: 40k
		})
		after = th.Now()
	})
	if after < 40_000 {
		t.Fatalf("master passed the barrier at %d, slowest worker ends at 40000", after)
	}
}

// TestGuidedChunkCount: guided's exponentially shrinking chunks mean a
// single worker fetches ~log(n) times, far fewer than dynamic,1's n
// fetches but more than static's one. Count fetches via the dispatch
// overhead they cost.
func TestGuidedChunkCount(t *testing.T) {
	const n = 100
	run := func(sched Sched) clock.Cycles {
		rt := New(1, Overheads{Dispatch: 1_000})
		end, _ := mustRun(t, mcfg(1), func(th *sim.Thread) {
			rt.ParallelFor(th, n, sched, func(w *sim.Thread, i int) {
				w.Work(1)
			})
		})
		return end
	}
	guided := run(SchedGuided)
	dynamic := run(SchedDynamic1)
	// dynamic,1: n+1 fetches. guided for n=100, nt=1: chunks
	// 50,25,12,6,3,1,1,1,1,1 plus the final empty fetch: ~11 fetches.
	gFetches := (guided - n) / 1_000
	dFetches := (dynamic - n) / 1_000
	if dFetches != n+1 {
		t.Fatalf("dynamic fetches = %d, want %d", dFetches, n+1)
	}
	if gFetches < 8 || gFetches > 15 {
		t.Fatalf("guided fetches = %d, want ~11 (log-shrinking chunks)", gFetches)
	}
}

// TestCriticalOverheadCharged: LockEnter/LockExit appear in the makespan.
func TestCriticalOverheadCharged(t *testing.T) {
	ov := Overheads{LockEnter: 300, LockExit: 200}
	rt := New(1, ov)
	end, _ := mustRun(t, mcfg(1), func(th *sim.Thread) {
		rt.ParallelFor(th, 2, SchedStatic, func(w *sim.Thread, i int) {
			critical(rt, w, 5, func() { w.Work(1_000) })
		})
	})
	if end != 2*(300+1_000+200) {
		t.Fatalf("makespan = %d, want 3000 per critical section", end)
	}
}
