package server

import (
	"context"
	"sync"
	"time"

	"prophet"
	"prophet/internal/obs"
	"prophet/internal/sweep"
)

// The worker-slot admission layer. Handlers never run emulations on
// their own goroutines: every uncached prediction — a single /v1/predict
// or one cell of a /v1/sweep grid — waits for one of the server's
// Workers slots and runs while holding it. The slot count, not the
// request count, bounds emulation concurrency, and a cell starts the
// moment any slot frees: nothing lingers to gather cells, and no cell
// waits for an unrelated slow one. Identical concurrent cells are
// deduplicated in front of the pool by flightGroup, so a cell is
// emulated once no matter how many requests need it.

// cellResult is the outcome of one cell.
type cellResult struct {
	est prophet.Estimate
	err error
}

// slotPool is the shared worker-slot semaphore every emulated cell
// acquires.
type slotPool struct {
	slots chan struct{}
	// baseCtx is the server's lifetime context: a cell that reaches its
	// slot after the server was killed is skipped.
	baseCtx context.Context
	engine  sweep.Engine

	dispatches *obs.Counter
	cells      *obs.Counter
	wait       *obs.Histogram
}

func newSlotPool(baseCtx context.Context, workers int, reg *obs.Registry) *slotPool {
	return &slotPool{
		slots:      make(chan struct{}, sweep.Engine{Workers: workers}.WorkerCount()),
		baseCtx:    baseCtx,
		engine:     sweep.Engine{Workers: 1, Metrics: reg},
		dispatches: reg.Counter(obs.MServerBatches),
		cells:      reg.Counter(obs.MServerBatchCells),
		wait:       reg.Histogram(obs.MServerPoolWait),
	}
}

// run waits for a slot and computes one cell with fn while holding it.
// ctx is the cell's flight context: if it fires while the cell is still
// queued, the cell leaves without running. The cell runs as a one-cell
// sweep.RunCtx on the calling goroutine, so a panic resolves as a
// *sweep.PanicError and the sweep.cells_* counters see every cell.
func (p *slotPool) run(ctx context.Context, fn func(context.Context) (prophet.Estimate, error)) cellResult {
	queued := time.Now()
	select {
	case p.slots <- struct{}{}:
	case <-ctx.Done():
		return cellResult{est: prophet.Estimate{Err: ctx.Err()}, err: ctx.Err()}
	}
	defer func() { <-p.slots }()
	p.wait.ObserveDuration(time.Since(queued))
	p.dispatches.Inc()
	p.cells.Inc()
	o := sweep.RunCtx(p.baseCtx, p.engine, 1, func(context.Context, int) (prophet.Estimate, error) {
		if err := ctx.Err(); err != nil {
			// Every waiter left as the slot came free; don't burn it.
			return prophet.Estimate{Err: err}, err
		}
		return fn(ctx)
	})[0]
	if o.Err != nil && o.Value.Err == nil {
		o.Value.Err = o.Err
	}
	return cellResult{est: o.Value, err: o.Err}
}

// flightGroup deduplicates identical concurrent cells: the first caller
// of a key becomes the leader and runs the cell on the slot pool; later
// callers wait for the leader's result. Entries are removed as soon as
// the flight completes — completed values live in the LRU, not here — so
// a canceled leader can never poison later requests (the same contract
// the sweep singleflight cache keeps for calibration).
//
// The computation does not run under the leader's request context: it
// runs under a per-flight context derived from the server's lifetime
// context, canceled only when *every* waiter has abandoned the flight.
// A leader whose request dies mid-flight therefore cannot starve the
// followers that joined it — the cell keeps computing on their behalf —
// while a cell nobody is waiting for is still canceled promptly.
type flightGroup struct {
	mu     sync.Mutex
	m      map[string]*flight
	dedups *obs.Counter
}

type flight struct {
	done    chan struct{}
	res     cellResult
	cancel  context.CancelFunc
	waiters int // guarded by the group mutex
}

func newFlightGroup(reg *obs.Registry) *flightGroup {
	return &flightGroup{m: make(map[string]*flight), dedups: reg.Counter(obs.MServerFlightDedups)}
}

// do returns the result for key, computing it via lead exactly once per
// flight. lead is called with the flight's computation context and a
// completion callback it must invoke exactly once. A waiter whose ctx
// fires returns the cancellation; the flight itself is only canceled
// when the last waiter leaves.
func (g *flightGroup) do(ctx, base context.Context, key string, lead func(fctx context.Context, finish func(cellResult))) (cellResult, error) {
	g.mu.Lock()
	if f, ok := g.m[key]; ok {
		f.waiters++
		g.mu.Unlock()
		g.dedups.Inc()
		return g.wait(ctx, f)
	}
	fctx, cancel := context.WithCancel(base)
	f := &flight{done: make(chan struct{}), cancel: cancel, waiters: 1}
	g.m[key] = f
	g.mu.Unlock()
	lead(fctx, func(r cellResult) {
		f.res = r
		g.mu.Lock()
		delete(g.m, key)
		g.mu.Unlock()
		close(f.done)
		cancel()
	})
	return g.wait(ctx, f)
}

// wait parks one waiter on the flight. Leaving early (own ctx fired)
// decrements the waiter count; the last one out cancels the flight's
// computation — nobody is listening for the result anymore.
func (g *flightGroup) wait(ctx context.Context, f *flight) (cellResult, error) {
	select {
	case <-f.done:
		return f.res, nil
	case <-ctx.Done():
		g.mu.Lock()
		f.waiters--
		last := f.waiters == 0
		g.mu.Unlock()
		if last {
			f.cancel()
		}
		return cellResult{}, ctx.Err()
	}
}
