// Package omprt is an OpenMP-style runtime for the simulated machine
// (internal/sim). It provides parallel-for with the schedules the paper
// models — (static), (static,c), (dynamic,c) and (guided) — and reproduces
// OpenMP 2.0's naive nested behaviour: every parallel region, nested or
// not, spawns a fresh team of physical threads, which oversubscribes the
// machine exactly the way the paper describes (§III "Nested and recursive
// parallelism", §IV-D). Plan is the one definition of which thread runs
// which iteration; the host runtime (internal/hostexec) and the FF
// (internal/ff) replay the same plan.
//
// Runtime overheads (fork, join, chunk dispatch, lock enter/exit) are paid
// as explicit Work cycles. The default constants are in the range reported
// by the EPCC OpenMP microbenchmarks the paper cites [6, 8]; the FF
// emulator uses the same constants, and internal/ff's calibration test
// cross-checks them against this runtime.
package omprt

import (
	"strconv"

	"prophet/internal/clock"
	"prophet/internal/sim"
)

// ScheduleKind enumerates OpenMP loop schedules.
type ScheduleKind uint8

// Supported schedules.
const (
	// Static divides the iteration space into one contiguous block per
	// thread — OpenMP's schedule(static).
	Static ScheduleKind = iota
	// StaticChunk deals chunks of Chunk iterations round-robin —
	// schedule(static,c).
	StaticChunk
	// Dynamic hands out chunks of Chunk iterations first-come
	// first-served — schedule(dynamic,c).
	Dynamic
	// Guided hands out exponentially shrinking chunks —
	// schedule(guided).
	Guided
)

// Sched is a schedule kind plus its chunk size.
type Sched struct {
	Kind  ScheduleKind
	Chunk int
}

// Common schedules, named as the paper writes them.
var (
	// SchedStatic is schedule(static).
	SchedStatic = Sched{Kind: Static}
	// SchedStatic1 is schedule(static,1).
	SchedStatic1 = Sched{Kind: StaticChunk, Chunk: 1}
	// SchedDynamic1 is schedule(dynamic,1).
	SchedDynamic1 = Sched{Kind: Dynamic, Chunk: 1}
	// SchedGuided is schedule(guided).
	SchedGuided = Sched{Kind: Guided, Chunk: 1}
)

// String returns the OpenMP clause spelling, e.g. "(dynamic,1)".
func (s Sched) String() string {
	switch s.Kind {
	case Static:
		return "(static)"
	case StaticChunk:
		return "(static," + strconv.Itoa(max(s.Chunk, 1)) + ")"
	case Dynamic:
		return "(dynamic," + strconv.Itoa(max(s.Chunk, 1)) + ")"
	case Guided:
		return "(guided)"
	}
	return "(?)"
}

// Overheads are the runtime's parallel-overhead constants, in cycles.
type Overheads struct {
	// ForkPerThread is paid by the master for each thread it spawns when
	// a parallel region starts.
	ForkPerThread clock.Cycles
	// WorkerInit is paid by each team member before its first iteration.
	WorkerInit clock.Cycles
	// JoinBarrier is paid by the master after the team joins (the
	// implicit barrier cost).
	JoinBarrier clock.Cycles
	// Dispatch is paid per chunk fetch under dynamic/guided scheduling.
	Dispatch clock.Cycles
	// StaticDispatch is paid per chunk under static schedules (cheaper:
	// no shared counter).
	StaticDispatch clock.Cycles
	// LockEnter / LockExit are paid inside a critical section on entry
	// and before exit. The runtime has no critical-section API: callers
	// take the machine mutex and pay these themselves (internal/realrun,
	// internal/ff).
	LockEnter, LockExit clock.Cycles
}

// DefaultOverheads returns EPCC-range constants for a Westmere-class
// machine at 2.4 GHz: forking a thread ~0.6 µs, joining ~1 µs, a dynamic
// chunk fetch ~60 ns, a critical section ~40 ns each way.
func DefaultOverheads() Overheads {
	return Overheads{
		ForkPerThread:  1500,
		WorkerInit:     300,
		JoinBarrier:    2500,
		Dispatch:       150,
		StaticDispatch: 20,
		LockEnter:      100,
		LockExit:       100,
	}
}

// Runtime is an OpenMP-style runtime bound to a thread count.
type Runtime struct {
	nthreads int
	ov       Overheads
}

// New returns a runtime that runs parallel regions on teams of nthreads
// (minimum 1) with the given overhead constants.
func New(nthreads int, ov Overheads) *Runtime {
	if nthreads < 1 {
		nthreads = 1
	}
	return &Runtime{nthreads: nthreads, ov: ov}
}

// Threads returns the team size.
func (rt *Runtime) Threads() int { return rt.nthreads }

// Overheads returns the runtime's overhead constants.
func (rt *Runtime) Overheads() Overheads { return rt.ov }

// ParallelFor executes body(w, i) for every i in [0, n) on a team of
// rt.Threads() threads: the calling thread becomes the master and
// participates, and rt.Threads()-1 workers are spawned (OpenMP 2.0
// behaviour — fresh physical threads per region, nested regions included).
// The call returns after the implicit end-of-loop barrier.
//
// body may queue its steps (sim.Thread.Queue) rather than call them, and
// the runtime queues the static path's charges too. Queued steps run
// later in virtual time than the code that queued them, so body must
// play the queue (w.Play, or any engine call) before it reads state that
// other threads write.
func (rt *Runtime) ParallelFor(t *sim.Thread, n int, sched Sched, body func(w *sim.Thread, i int)) {
	if n <= 0 {
		return
	}
	plan := NewPlan(sched, n, rt.nthreads)
	// next is the dynamic/guided shared counter; safe without locks
	// because the engine runs one thread at a time and mutations happen
	// between engine calls.
	next := new(int)
	nt := plan.Threads()
	if nt == 1 {
		rt.runWorker(t, 0, plan, body, next)
		return
	}
	t.Work(rt.ov.ForkPerThread * clock.Cycles(nt-1))
	team := make([]*sim.Thread, 0, nt-1)
	for k := 1; k < nt; k++ {
		k := k
		team = append(team, t.Spawn(func(w *sim.Thread) {
			rt.runWorker(w, k, plan, body, next)
		}))
	}
	rt.runWorker(t, 0, plan, body, next)
	for _, w := range team {
		t.Join(w)
	}
	t.Work(rt.ov.JoinBarrier)
}

// runWorker runs team member k's share of the loop. A static range costs
// StaticDispatch; every dynamic/guided fetch costs Dispatch, the final
// empty one included. Only the fetch is a direct call: it plays the
// queue before the shared counter is read.
func (rt *Runtime) runWorker(w *sim.Thread, k int, plan Plan, body func(*sim.Thread, int), next *int) {
	w.Queue(sim.WorkOp(rt.ov.WorkerInit))
	if plan.Static() {
		for j := 0; ; j++ {
			lo, hi, ok := plan.Range(k, j)
			if !ok {
				return
			}
			w.Queue(sim.WorkOp(rt.ov.StaticDispatch))
			for i := lo; i < hi; i++ {
				body(w, i)
			}
		}
	}
	for {
		w.Work(rt.ov.Dispatch)
		lo := *next
		hi, ok := plan.Take(lo)
		if !ok {
			return
		}
		*next = hi
		for i := lo; i < hi; i++ {
			body(w, i)
		}
	}
}
