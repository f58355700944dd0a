// Package hostexec provides real-machine execution primitives: an
// OpenMP-style parallel-for and a Cilk-style work-stealing pool backed by
// goroutines, plus FakeDelay — a busy-wait that burns a given number of
// nominal cycles without touching memory (§IV-E).
//
// In the paper, the synthesizer runs its generated program on the machine
// the user will deploy on ("Programmers should run Parallel Prophet where
// they will run a parallelized code"). The simulated machine is this
// reproduction's primary target (deterministic, 12 cores regardless of the
// host), but hostexec implements the paper's original mode: on a real
// multicore host, HostSynthesizer measures actual parallel executions of
// the synthetic program. On a single-core host it still runs correctly —
// it simply measures speedups near 1.
package hostexec

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"prophet/internal/clock"
	"prophet/internal/omprt"
)

// FakeDelay spins for approximately c nominal cycles at hz without
// generating memory traffic (the loop touches only registers), mirroring
// Fig. 8's FakeDelay. Non-positive hz selects clock.DefaultHz.
func FakeDelay(c clock.Cycles, hz float64) {
	if c <= 0 {
		return
	}
	if hz <= 0 {
		hz = clock.DefaultHz
	}
	d := time.Duration(float64(c) / hz * float64(time.Second))
	start := time.Now()
	var sink uint64
	for {
		// Check the clock only every few iterations; the loop body
		// itself must stay memory-silent.
		for i := 0; i < 64; i++ {
			sink += uint64(i)
		}
		if time.Since(start) >= d {
			break
		}
	}
	spinSink.Add(sink)
}

// spinSink defeats dead-code elimination of FakeDelay's loop.
var spinSink atomic.Uint64

// ParallelFor executes body(worker, i) for every i in [0, n) on nthreads
// goroutines under the given OpenMP schedule, assigned by omprt.Plan. It
// returns after all iterations complete (the implicit barrier).
func ParallelFor(nthreads, n int, sched omprt.Sched, body func(worker, i int)) {
	if n <= 0 {
		return
	}
	plan := omprt.NewPlan(sched, n, nthreads)
	var wg sync.WaitGroup
	var next atomic.Int64
	run := func(w int) {
		defer wg.Done()
		if plan.Static() {
			for j := 0; ; j++ {
				lo, hi, ok := plan.Range(w, j)
				if !ok {
					return
				}
				for i := lo; i < hi; i++ {
					body(w, i)
				}
			}
		}
		for {
			lo := next.Load()
			hi, ok := plan.Take(int(lo))
			if !ok {
				return
			}
			if !next.CompareAndSwap(lo, int64(hi)) {
				continue // another worker claimed [lo, ...) first
			}
			for i := int(lo); i < hi; i++ {
				body(w, i)
			}
		}
	}
	nt := plan.Threads()
	wg.Add(nt)
	for w := 1; w < nt; w++ {
		go run(w)
	}
	run(0)
	wg.Wait()
}

// Pool is a Cilk-style task pool on goroutines: tasks are spawned into a
// shared LIFO, idle workers (and syncing tasks) execute pending work, and
// every function has an implicit sync at return.
type Pool struct {
	mu    sync.Mutex
	tasks []*hostTask
	n     int
}

type hostFrame struct {
	pending atomic.Int64
}

type hostTask struct {
	fn     func(*Ctx)
	parent *hostFrame
}

// Ctx is the execution context of a function running in the pool.
type Ctx struct {
	p     *Pool
	frame *hostFrame
}

// NewPool returns a pool with n workers (minimum 1).
func NewPool(n int) *Pool {
	if n < 1 {
		n = 1
	}
	return &Pool{n: n}
}

// Workers returns the worker count.
func (p *Pool) Workers() int { return p.n }

func (p *Pool) push(t *hostTask) {
	p.mu.Lock()
	p.tasks = append(p.tasks, t)
	p.mu.Unlock()
}

func (p *Pool) pop() *hostTask {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.tasks) == 0 {
		return nil
	}
	t := p.tasks[len(p.tasks)-1]
	p.tasks = p.tasks[:len(p.tasks)-1]
	return t
}

func (p *Pool) exec(t *hostTask) {
	ctx := &Ctx{p: p, frame: &hostFrame{}}
	t.fn(ctx)
	ctx.Sync() // implicit sync at function return
	t.parent.pending.Add(-1)
}

// Spawn schedules fn as a child of the current function (cilk_spawn).
func (c *Ctx) Spawn(fn func(*Ctx)) {
	c.frame.pending.Add(1)
	c.p.push(&hostTask{fn: fn, parent: c.frame})
}

// Sync waits for all children of the current function, executing pending
// tasks while it waits (cilk_sync, help-first).
func (c *Ctx) Sync() {
	for c.frame.pending.Load() > 0 {
		if t := c.p.pop(); t != nil {
			c.p.exec(t)
		} else {
			runtime.Gosched()
		}
	}
}

// For runs body(i) for i in [0, n) as a cilk_for with the given grain
// (non-positive selects ~n / (8·workers)).
func (c *Ctx) For(n, grain int, body func(*Ctx, int)) {
	if n <= 0 {
		return
	}
	if grain <= 0 {
		grain = n / (8 * c.p.n)
		if grain < 1 {
			grain = 1
		}
	}
	sub := &Ctx{p: c.p, frame: &hostFrame{}}
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

// Run executes root in the pool and blocks until it and all descendants
// finish. Helper workers exit when the run drains.
func (p *Pool) Run(root func(*Ctx)) {
	var stop atomic.Bool
	var wg sync.WaitGroup
	for w := 1; w < p.n; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				if t := p.pop(); t != nil {
					p.exec(t)
				} else {
					runtime.Gosched()
				}
			}
		}()
	}
	ctx := &Ctx{p: p, frame: &hostFrame{}}
	root(ctx)
	ctx.Sync()
	stop.Store(true)
	wg.Wait()
}
