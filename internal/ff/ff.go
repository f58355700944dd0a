// Package ff implements Parallel Prophet's fast-forwarding emulation (the
// FF, §IV-C of the paper): an analytical, priority-heap emulator that
// replays a program tree onto abstract CPUs and fast-forwards a
// pseudo-clock from event to event.
//
// Where event order cannot matter the heap is skipped. In a flat section
// (every task holds only U/W segments: no locks, no nested sections) the
// workers share no state. Under (static) and (static,c) each worker's
// finish time is then a plain sum over its tasks, which the
// FF computes in closed form over the compressed Repeat runs, so the cost
// follows the compressed tree rather than the iteration count. Under
// (dynamic) and (guided) the heap still decides who fetches next, but a
// worker runs each fetched task in one heap visit. Both give exactly the
// heap walk's result. Traced emulations always take the per-segment heap
// walk, so every segment still emits its event.
//
// The whole-program loop is tree.Driver, shared with the synthesizers:
// each distinct top-level section node is emulated once per estimate and
// its duration reused for every later occurrence (NPB-CG's 80 sections are
// 3 nodes), except in a traced run, which emulates every occurrence. The
// driver polls ctx before each section it emulates, and the FF polls again
// every 4096 events inside a section.
//
// The FF models:
//
//   - OpenMP loop schedules — (static), (static,c), (dynamic,c), (guided) —
//     so schedule-dependent speedups come out differently (Fig. 5). Tasks
//     are assigned by omprt.Plan, the runtime's own schedule rules: a
//     static worker walks its plan ranges, and a dynamic or guided fetch
//     claims the whole chunk the runtime would hand out;
//   - multiple locks with FIFO arbitration in pseudo-time order, so lock
//     contention serializes critical sections exactly as a real mutex
//     would for the profiled arrival order;
//   - parallel overheads (fork/join, per-chunk dispatch, lock enter/exit)
//     with internal/omprt's EPCC-style constants (the calibration the paper
//     describes), paid in a top-level loop exactly when ParallelFor does;
//   - burden factors: every U/L length inside a top-level section is
//     multiplied by the section's β_t from the memory model (§V).
//
// Nested sections are handled the way the paper *documents as the FF's
// limitation* (§IV-D): nested tasks are assigned to the global CPUs
// round-robin and run non-preemptively, with no OS time slicing. This is
// deliberate — it reproduces Fig. 7, where the FF (and Suitability)
// predict 1.5x for a two-level nested loop whose real speedup is 2.0x; the
// synthesizer (internal/synth) is the paper's fix.
package ff

import (
	"context"
	"fmt"
	"sync"

	"prophet/internal/clock"
	"prophet/internal/eventq"
	"prophet/internal/obs"
	"prophet/internal/omprt"
	"prophet/internal/tree"
)

// Emulator predicts the parallel execution time of a program tree for one
// (threads, schedule) configuration.
type Emulator struct {
	// Threads is the CPU count to predict for.
	Threads int
	// Sched is the OpenMP scheduling policy to emulate.
	Sched omprt.Sched
	// Ov holds the parallel-overhead constants (use
	// omprt.DefaultOverheads for the calibrated values; zero for an
	// idealized machine).
	Ov omprt.Overheads
	// UseBurden applies the memory model's burden factors when set
	// (the paper's "PredM"); otherwise lengths are used as profiled
	// ("Pred").
	UseBurden bool
	// Speeds, when non-nil, gives each abstract CPU a clock ratio
	// (machine.Spec.CoreSpeeds order): computation on CPU i takes
	// 1/Speeds[i mod len] of the profiled time. Nil is the homogeneous
	// machine and the exact legacy arithmetic. Overhead constants are
	// runtime costs and are not scaled.
	Speeds []float64
	// Tracer, when set, receives one KFFStep event per emulated segment
	// (worker pseudo-clock advance on an abstract CPU); nil disables
	// tracing at the cost of one branch per segment.
	Tracer obs.ExecTracer
}

// cancelPanic unwinds the emulation's recursive descent when the context
// is canceled; it never escapes the package.
type cancelPanic struct{ err error }

// PredictTimeCtx returns the emulated parallel execution time of the whole
// program (tree.Driver: the formula of §IV-E applied to the FF). ctx is
// polled before each section and every 4096 events inside one, and the
// error wraps ctx.Err() when it fires.
func (e *Emulator) PredictTimeCtx(ctx context.Context, root *tree.Node) (clock.Cycles, error) {
	return e.driver().PredictTime(ctx, root)
}

// SpeedupCtx returns serial time / predicted parallel time.
func (e *Emulator) SpeedupCtx(ctx context.Context, root *tree.Node) (float64, error) {
	return e.driver().Speedup(ctx, root)
}

// driver is the whole-program loop around emulateTopSection; a traced run
// emulates every section occurrence, so each one emits its events.
func (e *Emulator) driver() tree.Driver {
	return tree.Driver{Threads: e.threads(), UseBurden: e.UseBurden, EveryOccurrence: e.Tracer != nil, Section: e.emulateTopSection}
}

// threadCount clamps the configured thread count.
func (e *Emulator) threads() int {
	if e.Threads < 1 {
		return 1
	}
	return e.Threads
}

// state is the per-emulation shared state: the per-CPU occupancy of
// *nested* work, the lock free-times, and the burden factor of the
// enclosing top-level section.
//
// avail tracks only nested-section placements: nested tasks are mapped
// onto CPUs round-robin and non-preemptively, so concurrent nested
// sections contend for the same CPU slots (the §IV-D limitation that
// yields Fig. 7's 1.5x), while the section's own workers keep their own
// clocks — matching the accuracy profile the paper reports (exact on
// single-level loops, moderate average error with a heavy tail on nested
// programs).
type state struct {
	avail    []clock.Cycles // per-CPU busy-until for nested work
	lockFree map[int]clock.Cycles
	burden   float64
	speeds   []float64 // per-CPU clock ratios; nil = homogeneous
	ov       omprt.Overheads
	sched    omprt.Sched
	ctx      context.Context
	steps    int64 // events since the last cancellation poll
	tracer   obs.ExecTracer
}

// tick polls the cancellation context every 4096 emulated events of a
// section; on cancellation it unwinds the (recursive) emulation with a
// private panic recovered in emulateTopSection.
func (st *state) tick() {
	st.steps++
	if st.steps&0xfff != 0 || st.ctx == nil {
		return
	}
	if err := st.ctx.Err(); err != nil {
		panic(cancelPanic{fmt.Errorf("ff: emulation aborted after %d events: %w", st.steps, err)})
	}
}

// statePool recycles per-top-section emulation state (CPU availability
// slices, lock tables) across sweeps; scratch is acquired per section, so
// concurrent emulations and nested sections never share one.
var statePool = sync.Pool{New: func() any { return &state{} }}

// init prepares pooled state for a fresh top-level section.
func (st *state) init(p int, burden float64, speeds []float64, ov omprt.Overheads, sched omprt.Sched, ctx context.Context, tracer obs.ExecTracer) {
	if cap(st.avail) < p {
		st.avail = make([]clock.Cycles, p)
	} else {
		st.avail = st.avail[:p]
		for i := range st.avail {
			st.avail[i] = 0
		}
	}
	if st.lockFree == nil {
		st.lockFree = make(map[int]clock.Cycles)
	} else {
		clear(st.lockFree)
	}
	st.burden = burden
	st.speeds = speeds
	st.ov = ov
	st.sched = sched
	st.ctx = ctx
	st.steps = 0
	st.tracer = tracer
}

func putState(st *state) {
	st.ctx = nil
	st.tracer = nil
	st.speeds = nil
	statePool.Put(st)
}

// emulateTopSection emulates one top-level section on fresh state; a
// cancellation inside it unwinds to here.
func (e *Emulator) emulateTopSection(ctx context.Context, sec *tree.Node, burden float64) (d clock.Cycles, err error) {
	defer func() {
		if r := recover(); r != nil {
			cp, ok := r.(cancelPanic)
			if !ok {
				panic(r)
			}
			d, err = 0, cp.err
		}
	}()
	p := e.threads()
	st := statePool.Get().(*state)
	defer putState(st)
	st.init(p, burden, e.Speeds, e.Ov, e.Sched, ctx, e.Tracer)
	return emulateSection(st, sec, 0, p), nil
}

// taskRef is one logical task (Repeat runs expanded lazily by index).
type taskRef struct {
	node *tree.Node
}

// appendTasks appends the logical task list of a section to dst.
func appendTasks(dst []taskRef, sec *tree.Node) []taskRef {
	for _, c := range sec.Children {
		if c.Kind != tree.Task {
			continue
		}
		for r := 0; r < c.Reps(); r++ {
			dst = append(dst, taskRef{node: c})
		}
	}
	return dst
}

// worker is one emulated team member inside a section emulation. Workers
// advance one segment at a time through the priority heap, so lock
// acquisitions across workers happen in pseudo-time order (Fig. 5 depends
// on this: the thread that reaches the lock earlier gets it first).
type worker struct {
	id   int // worker rank
	cpu  int
	time clock.Cycles
	// [lo, hi) is the rest of the range the worker last fetched, and
	// ranges counts the static ranges it has fetched.
	lo, hi, ranges int

	// Cursor into the currently executing task.
	cur    *tree.Node
	segIdx int
	repIdx int
	// pendingJoin is the latest finish time of nowait nested sections
	// started by the current task; the task joins them when it ends.
	pendingJoin clock.Cycles
}

// key is the worker's place in the pseudo-clock heap: its clock, rank
// breaking ties — a strict total order, so the heap visits workers in
// exactly the order the container/heap implementation did.
func (w *worker) key() eventq.Key {
	return eventq.Key{At: int64(w.time), Seq: uint64(w.id)}
}

// sectionScratch is the pooled per-section working set: the worker array,
// the pseudo-clock heap over it, the expanded task list, the shared fetch
// state, and the closed form's per-worker clocks. One scratch is acquired
// per emulateHeap / emulateStaticFlat / emulateNested invocation (nested
// sections draw their own), so backing arrays are reused across the
// thousands of sections a sweep emulates.
type sectionScratch struct {
	workers []worker
	order   eventq.Heap[int32] // indexes into workers
	tasks   []taskRef
	fetch   fetchState
	times   []clock.Cycles
}

var sectionPool = sync.Pool{New: func() any { return &sectionScratch{} }}

func getScratch() *sectionScratch { return sectionPool.Get().(*sectionScratch) }

// putScratch zeroes pointer-bearing slots (so pooled scratch does not pin
// program trees between emulations) and returns the scratch to the pool.
func putScratch(sc *sectionScratch) {
	sc.order.Reset()
	for i := range sc.workers {
		sc.workers[i] = worker{}
	}
	for i := range sc.tasks {
		sc.tasks[i] = taskRef{}
	}
	sc.tasks = sc.tasks[:0]
	sc.fetch = fetchState{}
	sectionPool.Put(sc)
}

// emulateSection emulates one section (top-level or nested) starting at
// time start on p CPUs and returns its duration including fork/join
// overhead. Nested sections are emulated when the enclosing worker reaches
// them (see runTask).
//
// The section's shape picks the algorithm. An untraced flat section (see
// flatShape) under a static schedule is computed in closed form over its
// compressed task runs; under dynamic or guided it still goes through the
// heap, which fixes the fetch order, but one visit per task. Everything
// else, and every traced run, steps the heap one segment at a time.
func emulateSection(st *state, sec *tree.Node, start clock.Cycles, p int) clock.Cycles {
	n, flat := flatShape(sec)
	if n == 0 {
		return 0
	}
	flat = flat && st.tracer == nil
	if k := st.sched.Kind; flat && (k == omprt.Static || k == omprt.StaticChunk) {
		return emulateStaticFlat(st, sec, start, p, n)
	}
	return emulateHeap(st, sec, start, p, flat)
}

// emulateHeap is emulateSection on the pseudo-clock heap. With wholeTasks
// (flat sections only) a worker runs each fetched task to its end in one
// heap visit: nothing it does can affect another worker, and it fetches
// its next task at the same (time, rank) heap key as the per-segment walk,
// so tasks are handed out in the same order.
func emulateHeap(st *state, sec *tree.Node, start clock.Cycles, p int, wholeTasks bool) clock.Cycles {
	sc := getScratch()
	defer putScratch(sc)
	sc.tasks = appendTasks(sc.tasks[:0], sec)
	tasks := sc.tasks
	n := len(tasks)
	if n == 0 {
		return 0
	}
	nt := p
	if nt > n {
		nt = n
	}
	// The master forks nt-1 workers.
	begin := start + st.ov.ForkPerThread*clock.Cycles(nt-1)

	if cap(sc.workers) < nt {
		sc.workers = make([]worker, nt)
	} else {
		sc.workers = sc.workers[:nt]
	}
	for w := 0; w < nt; w++ {
		sc.workers[w] = worker{id: w, cpu: w % p, time: begin + st.ov.WorkerInit}
	}
	sc.fetch = fetchState{tasks: tasks, plan: omprt.NewPlan(st.sched, n, nt)}
	shared := &sc.fetch

	h := &sc.order
	h.Grow(nt)
	for w := range sc.workers {
		h.Append(sc.workers[w].key(), int32(w))
	}
	h.Init()
	var finish clock.Cycles
	for h.Len() > 0 {
		st.tick()
		_, wi := h.Peek()
		w := &sc.workers[wi]
		if w.cur == nil {
			tr, dispatch, ok := nextTask(st, w, shared)
			w.time += dispatch
			if !ok {
				finish = max(finish, w.time)
				h.Pop()
				continue
			}
			if wholeTasks {
				w.time += st.flatTaskLen(tr.node, w.cpu)
				h.UpdateTop(w.key())
				continue
			}
			w.cur, w.segIdx, w.repIdx = tr.node, 0, 0
		}
		stepSegment(st, w, p)
		h.UpdateTop(w.key())
	}
	return finish - start + st.join(nt)
}

// join is the master's end-of-loop charge: a team of one runs inline.
func (st *state) join(nt int) clock.Cycles {
	if nt == 1 {
		return 0
	}
	return st.ov.JoinBarrier
}

// stepSegment executes the worker's next segment and advances its cursor;
// when the task's last segment completes, the cursor is cleared so the
// next heap visit fetches a new task.
func stepSegment(st *state, w *worker, p int) {
	// Skip any empty segment positions.
	for w.segIdx < len(w.cur.Children) {
		seg := w.cur.Children[w.segIdx]
		if w.repIdx >= seg.Reps() {
			w.segIdx++
			w.repIdx = 0
			continue
		}
		w.repIdx++
		execSegment(st, w, seg, p)
		return
	}
	// Task finished: join any nowait nested sections it started.
	if w.pendingJoin > w.time {
		w.time = w.pendingJoin
	}
	w.pendingJoin = 0
	w.cur = nil
}

// fetchState is what a section's workers fetch tasks from: the expanded
// task list, the schedule's plan, and the shared counter of dynamic and
// guided fetches.
type fetchState struct {
	tasks []taskRef
	plan  omprt.Plan
	next  int
}

// nextTask yields the worker's next task and the dispatch it pays first,
// as omprt.runWorker charges it. A static worker pays StaticDispatch when
// it starts a range. A dynamic or guided worker pays Dispatch before every
// claim of a whole chunk, the final empty one included: then ok is false
// and the dispatch is still paid.
func nextTask(st *state, w *worker, shared *fetchState) (tr taskRef, d clock.Cycles, ok bool) {
	plan := &shared.plan
	if w.lo == w.hi {
		if plan.Static() {
			if w.lo, w.hi, ok = plan.Range(w.id, w.ranges); !ok {
				return taskRef{}, 0, false
			}
			w.ranges++
			d = st.ov.StaticDispatch
		} else {
			d = st.ov.Dispatch
			if w.hi, ok = plan.Take(shared.next); !ok {
				return taskRef{}, d, false
			}
			w.lo, shared.next = shared.next, w.hi
		}
	}
	w.lo++
	return shared.tasks[w.lo-1], d, true
}

// scaledOn is a burden-scaled length (tree.Scaled) on a specific abstract
// CPU: on a heterogeneous machine it is additionally divided by the CPU's
// speed ratio. With nil speeds it is exactly tree.Scaled, so homogeneous
// emulations keep the legacy arithmetic bit-for-bit.
func (st *state) scaledOn(cpu int, l clock.Cycles) clock.Cycles {
	if st.speeds == nil {
		return tree.Scaled(l, st.burden)
	}
	sp := st.speeds[cpu%len(st.speeds)]
	return clock.Cycles(float64(l)*st.burden/sp + 0.5)
}

// execSegment executes one U/L/Sec segment on worker w.
func execSegment(st *state, w *worker, seg *tree.Node, p int) {
	switch seg.Kind {
	case tree.U, tree.W:
		// The FF has no notion of a freed CPU: an I/O wait advances
		// the worker clock like computation. The machine-backed
		// emulators model W faithfully (cores freed, real core
		// limit); the FF is accurate only while workers <= CPUs.
		start := w.time
		w.time += st.scaledOn(w.cpu, seg.Len)
		if st.tracer != nil {
			st.tracer.Exec(obs.ExecEvent{Kind: obs.KFFStep, Time: start, End: w.time, Core: w.cpu, Thread: w.id, Lock: -1})
		}
	case tree.L:
		t := w.time
		if f := st.lockFree[seg.LockID]; f > t {
			t = f
		}
		t += st.ov.LockEnter + st.scaledOn(w.cpu, seg.Len) + st.ov.LockExit
		st.lockFree[seg.LockID] = t
		if st.tracer != nil {
			st.tracer.Exec(obs.ExecEvent{Kind: obs.KFFStep, Time: w.time, End: t, Core: w.cpu, Thread: w.id, Lock: seg.LockID})
		}
		w.time = t
	case tree.Sec:
		// Nested parallelism: emulated in place with round-robin CPU
		// assignment starting at this worker's CPU (the FF
		// limitation, §IV-D: whole nodes are placed non-preemptively,
		// which is exactly what makes Fig. 7 come out as 1.5x).
		dur := emulateNested(st, seg, w.time, w.cpu, p)
		if seg.NoWait {
			// OpenMP nowait: the enclosing task proceeds without
			// the implicit barrier; the section is joined at the
			// end of the task instead.
			if end := w.time + dur; end > w.pendingJoin {
				w.pendingJoin = end
			}
		} else {
			w.time += dur
		}
	}
}

// runTask executes a whole task synchronously (used for nested sections,
// where the FF does not interleave with the outer workers).
func runTask(st *state, w *worker, task *tree.Node, p int) {
	for _, seg := range task.Children {
		for r := 0; r < seg.Reps(); r++ {
			execSegment(st, w, seg, p)
		}
	}
	if w.pendingJoin > w.time {
		w.time = w.pendingJoin
	}
	w.pendingJoin = 0
}

// emulateNested runs a nested section by assigning its tasks round-robin
// over all CPUs starting at homeCPU, each task starting no earlier than
// both the section start and its CPU's availability. It returns the
// section duration.
func emulateNested(st *state, sec *tree.Node, start clock.Cycles, homeCPU, p int) clock.Cycles {
	sc := getScratch()
	defer putScratch(sc)
	sc.tasks = appendTasks(sc.tasks[:0], sec)
	tasks := sc.tasks
	if len(tasks) == 0 {
		return 0
	}
	begin := start + st.ov.ForkPerThread*clock.Cycles(min(p, len(tasks))-1)
	var finish clock.Cycles
	var nw worker
	for j, tr := range tasks {
		st.tick()
		cpu := (homeCPU + j) % p
		t := begin + st.ov.WorkerInit
		if a := st.avail[cpu]; a > t {
			t = a
		}
		t += st.ov.Dispatch
		nw = worker{id: j, cpu: cpu, time: t}
		runTask(st, &nw, tr.node, p)
		st.avail[cpu] = nw.time
		if nw.time > finish {
			finish = nw.time
		}
	}
	return finish - start + st.ov.JoinBarrier
}
