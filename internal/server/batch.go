package server

import (
	"context"
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
// deduplicated in front of the pool by the server's singleflight
// (sweep.Cache.Do in Server.cellOn), so a cell is emulated once no matter
// how many requests need it, and it leaves the queue unrun once every
// request waiting for it has gone.

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
// ctx is the cell's flight context: if it fires, or the server shuts
// down, while the cell is still queued, the cell leaves without running,
// and a running cell sees its ctx canceled. The cell runs as a one-cell
// sweep.RunCtx on the calling goroutine, so a panic resolves as a
// *sweep.PanicError and the sweep.cells_* counters see every cell.
func (p *slotPool) run(ctx context.Context, fn func(context.Context) (prophet.Estimate, error)) cellResult {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	defer context.AfterFunc(p.baseCtx, cancel)()
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
