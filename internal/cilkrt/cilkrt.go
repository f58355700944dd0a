// Package cilkrt is a Cilk-Plus-style work-stealing runtime for the
// simulated machine. The paper parallelizes its recursive benchmarks
// (FFT, QSort) with Cilk Plus because OpenMP 2.0's nested teams
// oversubscribe the machine (§III); the synthesizer likewise needs a real
// work-stealing substrate to run generated code against (§IV-E, Fig. 8).
//
// The scheduler is a child-stealing scheduler with per-worker deques:
// owners push and pop at the bottom (LIFO, locality), thieves steal from
// the top (FIFO, oldest/biggest subtrees first). Every Cilk function has an
// implicit sync at return, and For implements cilk_for by recursive
// interval splitting, as Cilk Plus does. The simulator engine serializes
// all workers, so the deques need no atomics and every run is
// deterministic.
package cilkrt

import (
	"prophet/internal/clock"
	"prophet/internal/sim"
)

// Overheads are the runtime's cost constants, in cycles.
type Overheads struct {
	// Spawn is paid by the spawning worker per spawned task (deque push
	// plus frame setup; Cilk spawns are a few tens of nanoseconds).
	Spawn clock.Cycles
	// StealScan is paid by a thief per scan over the victims' deques.
	StealScan clock.Cycles
	// RunTask is paid when a task is popped/stolen and started.
	RunTask clock.Cycles
}

// DefaultOverheads returns Cilk-Plus-range constants at 2.4 GHz: ~40 ns
// per spawn, ~400 ns per steal scan, ~20 ns task start.
func DefaultOverheads() Overheads {
	return Overheads{Spawn: 100, StealScan: 1000, RunTask: 50}
}

// Runtime is a work-stealing runtime bound to a worker count
// (__cilkrts_set_param("nworkers", n) in the paper's Fig. 8).
type Runtime struct {
	nworkers int
	ov       Overheads
}

// New returns a runtime with nworkers workers (minimum 1).
func New(nworkers int, ov Overheads) *Runtime {
	if nworkers < 1 {
		nworkers = 1
	}
	return &Runtime{nworkers: nworkers, ov: ov}
}

// Workers returns the worker count.
func (rt *Runtime) Workers() int { return rt.nworkers }

// Overheads returns the runtime's cost constants.
func (rt *Runtime) Overheads() Overheads { return rt.ov }

// frame tracks the outstanding children of one executing Cilk function.
type frame struct {
	pending int
	waiter  *worker // worker parked in Sync on this frame, if any
}

type task struct {
	fn     func(*Ctx)
	parent *frame
}

type worker struct {
	rs         *runState
	t          *sim.Thread
	idx        int
	deque      []*task
	idleParked bool
}

type runState struct {
	rt      *Runtime
	workers []*worker
	idle    []*worker
	done    bool
	steals  int64
	spawns  int64
}

// Stats reports scheduler activity for one Run.
type Stats struct {
	Spawns int64
	Steals int64
}

// Ctx is the execution context of a Cilk function on some worker. It is
// only valid on the worker that is running the function; the runtime hands
// each task a fresh Ctx.
type Ctx struct {
	w     *worker
	frame *frame
}

// Thread returns the simulator thread the context currently runs on, for
// Work/WorkMem/Lock calls inside task bodies.
func (c *Ctx) Thread() *sim.Thread { return c.w.t }

// Run executes root on a team of rt.Workers() workers; the calling thread
// becomes worker 0 and participates. Run returns after root and all of its
// descendants complete (implicit final sync) and all helper workers have
// shut down.
func (rt *Runtime) Run(t *sim.Thread, root func(*Ctx)) Stats {
	rs := &runState{rt: rt}
	w0 := &worker{rs: rs, t: t, idx: 0}
	rs.workers = []*worker{w0}
	helpers := make([]*sim.Thread, 0, rt.nworkers-1)
	for i := 1; i < rt.nworkers; i++ {
		w := &worker{rs: rs, idx: i}
		rs.workers = append(rs.workers, w)
		ht := t.Spawn(func(st *sim.Thread) {
			w.t = st
			w.loop()
		})
		helpers = append(helpers, ht)
	}
	ctx := &Ctx{w: w0, frame: &frame{}}
	root(ctx)
	ctx.Sync() // implicit sync at the end of the root function
	rs.done = true
	for _, w := range rs.idle {
		t.Unpark(w.t)
	}
	rs.idle = nil
	for _, h := range helpers {
		t.Join(h)
	}
	return Stats{Spawns: rs.spawns, Steals: rs.steals}
}

// Spawn schedules f to run as a child of the current function, possibly in
// parallel (cilk_spawn f()).
func (c *Ctx) Spawn(f func(*Ctx)) {
	w := c.w
	w.t.Work(w.rs.rt.ov.Spawn)
	w.rs.spawns++
	c.frame.pending++
	w.push(&task{fn: f, parent: c.frame})
	w.rs.wakeOne(w.t)
}

// Sync blocks until every child spawned by the current function has
// completed (cilk_sync). While waiting, the worker executes other tasks —
// its own first, then stolen ones.
//
// Virtual time passes inside the paid steal scan, so the frame state and
// the deques are re-checked with free (zero-time) operations immediately
// before parking; between those checks and Park no other thread can run,
// which rules out lost wakeups. Sync first plays the steps the function's
// body queued (sim.Thread.Queue): the frame and the deques are read at
// the time they end.
func (c *Ctx) Sync() {
	w := c.w
	w.t.Play()
	for c.frame.pending > 0 {
		if tk := w.pop(); tk != nil {
			w.execute(tk)
			continue
		}
		if tk := w.steal(); tk != nil {
			w.execute(tk)
			continue
		}
		// The paid scan advanced time: re-check everything for free.
		if c.frame.pending == 0 {
			break
		}
		if tk := w.pop(); tk != nil {
			w.execute(tk)
			continue
		}
		if tk := w.scan(); tk != nil {
			w.execute(tk)
			continue
		}
		// Nothing runnable anywhere: sleep until the last child of
		// this frame completes.
		c.frame.waiter = w
		w.t.Park()
		c.frame.waiter = nil
	}
}

// For runs body(i) for i in [0, n) as a cilk_for: the range is split
// recursively into grain-sized leaves executed as spawned tasks, with an
// implicit sync at the end. grain <= 0 selects Cilk's default
// (~n / (8 · workers), at least 1).
func (c *Ctx) For(n, grain int, body func(*Ctx, int)) {
	if n <= 0 {
		return
	}
	if grain <= 0 {
		grain = n / (8 * c.w.rs.rt.nworkers)
		if grain < 1 {
			grain = 1
		}
	}
	sub := &Ctx{w: c.w, frame: &frame{}}
	var rec func(cc *Ctx, lo, hi int)
	rec = func(cc *Ctx, lo, hi int) {
		for hi-lo > grain {
			mid := lo + (hi-lo)/2
			lo2, hi2 := mid, hi
			cc.Spawn(func(sc *Ctx) { rec(sc, lo2, hi2) })
			hi = mid
		}
		for i := lo; i < hi; i++ {
			body(cc, i)
		}
	}
	rec(sub, 0, n)
	sub.Sync()
}

// push adds a task at the bottom of the owner's deque.
func (w *worker) push(t *task) { w.deque = append(w.deque, t) }

// pop removes the newest task from the owner's deque (LIFO).
func (w *worker) pop() *task {
	n := len(w.deque)
	if n == 0 {
		return nil
	}
	t := w.deque[n-1]
	w.deque = w.deque[:n-1]
	return t
}

// steal pays the scan cost, then scans the other workers round-robin and
// takes the oldest task from the first non-empty deque.
func (w *worker) steal() *task {
	w.t.Work(w.rs.rt.ov.StealScan)
	return w.scan()
}

// scan is the zero-cost victim scan used both by steal and by the
// just-before-park re-checks.
func (w *worker) scan() *task {
	rs := w.rs
	n := len(rs.workers)
	for off := 1; off < n; off++ {
		v := rs.workers[(w.idx+off)%n]
		if len(v.deque) == 0 {
			continue
		}
		t := v.deque[0]
		v.deque = v.deque[1:]
		rs.steals++
		return t
	}
	return nil
}

// execute runs a task in a fresh frame with an implicit sync at return,
// then retires it against its parent frame, waking a parked syncer if this
// was the last outstanding child.
func (w *worker) execute(tk *task) {
	w.t.Work(w.rs.rt.ov.RunTask)
	ctx := &Ctx{w: w, frame: &frame{}}
	tk.fn(ctx)
	ctx.Sync()
	p := tk.parent
	p.pending--
	if p.pending == 0 && p.waiter != nil && p.waiter != w {
		w.t.Unpark(p.waiter.t)
	}
}

// wakeOne unparks one genuinely idle-parked worker, if any, after new work
// was pushed. Stale idle-list entries (workers that woke spuriously) are
// discarded.
func (rs *runState) wakeOne(from *sim.Thread) {
	for len(rs.idle) > 0 {
		w := rs.idle[0]
		rs.idle = rs.idle[1:]
		if w.idleParked {
			from.Unpark(w.t)
			return
		}
	}
}

// loop is the scheduling loop of the helper workers. As in Sync, a free
// re-scan guards the park against wakeups lost during the paid steal scan.
func (w *worker) loop() {
	rs := w.rs
	for {
		if tk := w.pop(); tk != nil {
			w.execute(tk)
			continue
		}
		if tk := w.steal(); tk != nil {
			w.execute(tk)
			continue
		}
		if rs.done {
			return
		}
		if tk := w.scan(); tk != nil {
			w.execute(tk)
			continue
		}
		w.idleParked = true
		rs.idle = append(rs.idle, w)
		w.t.Park()
		w.idleParked = false
	}
}
