// Package sweep runs grids of independent experiment cells on a bounded
// worker pool.
//
// The evaluation harness (internal/experiments) is an embarrassingly
// parallel grid: every (workload, seed, cores, schedule) cell is one
// deterministic profile→emulate pipeline with no shared mutable state.
// Run shards such a grid over a GOMAXPROCS-sized pool and returns the
// results indexed by cell, so callers merge them in deterministic cell
// order and produce output that is byte-identical to a serial run
// regardless of worker count.
//
// Cells are isolated: a panic inside one cell is recovered and reported
// as that cell's *PanicError instead of killing the whole sweep.
package sweep

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"prophet/internal/obs"
)

// Engine bounds the worker pool used by Run.
type Engine struct {
	// Workers is the maximum number of concurrent cells. Zero (or
	// negative) selects GOMAXPROCS; 1 runs the sweep serially on the
	// calling goroutine.
	Workers int
	// FailFast cancels the rest of the sweep when any cell returns an
	// error: in-flight cells drain, cells not yet claimed are marked
	// Skipped.
	FailFast bool
	// Metrics, when set, counts per-cell outcomes (obs.MSweepCellsOK /
	// Failed / Skipped) across every sweep run on this engine.
	Metrics *obs.Registry
}

// WorkerCount resolves the effective pool size.
func (e Engine) WorkerCount() int {
	if e.Workers > 0 {
		return e.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// PanicError reports a panic recovered inside a sweep cell (or a cache
// compute function, where Cell is -1).
type PanicError struct {
	// Cell is the index of the failed cell (-1 for cache computes).
	Cell int
	// Value is the recovered panic value.
	Value any
	// Stack is the goroutine stack at the point of the panic.
	Stack []byte
}

func (p *PanicError) Error() string {
	return fmt.Sprintf("sweep: cell %d panicked: %v", p.Cell, p.Value)
}

// Unwrap exposes a panic value that is itself an error, so errors.Is and
// errors.As (and IsCancellation) see through the recovery.
func (p *PanicError) Unwrap() error {
	err, _ := p.Value.(error)
	return err
}

// Outcome is the result of one cell. It marshals to JSON with stable
// field names (index/value/err/skipped), Err as its string message, so
// sweep results share one vocabulary with traces and metrics snapshots.
type Outcome[T any] struct {
	// Index is the cell index (Outcome i of Run is always cell i; the
	// field exists so outcomes can be filtered and still traced back).
	Index int `json:"index"`
	// Value is the cell's result (zero if Err != nil).
	Value T `json:"value"`
	// Err is the cell's error; a recovered panic surfaces as *PanicError.
	Err error `json:"-"`
	// Skipped marks a cell that never ran: the sweep's context was
	// canceled (or a FailFast sweep had already failed) before the cell
	// was claimed. Err wraps the cancellation cause.
	Skipped bool `json:"skipped,omitempty"`
}

// outcomeJSON is the stable wire form of Outcome.
type outcomeJSON[T any] struct {
	Index   int    `json:"index"`
	Value   T      `json:"value"`
	Err     string `json:"err,omitempty"`
	Skipped bool   `json:"skipped,omitempty"`
}

// MarshalJSON writes the outcome with Err flattened to its message.
func (o Outcome[T]) MarshalJSON() ([]byte, error) {
	w := outcomeJSON[T]{Index: o.Index, Value: o.Value, Skipped: o.Skipped}
	if o.Err != nil {
		w.Err = o.Err.Error()
	}
	return json.Marshal(w)
}

// UnmarshalJSON restores an outcome; a non-empty err string becomes an
// opaque error carrying the same message (the concrete type is not
// preserved across the wire).
func (o *Outcome[T]) UnmarshalJSON(data []byte) error {
	var w outcomeJSON[T]
	if err := json.Unmarshal(data, &w); err != nil {
		return err
	}
	o.Index, o.Value, o.Skipped, o.Err = w.Index, w.Value, w.Skipped, nil
	if w.Err != "" {
		o.Err = errors.New(w.Err)
	}
	return nil
}

// RunCtx evaluates cells 0..n-1 with fn on e's worker pool and returns
// one Outcome per cell, indexed by cell. Cells are claimed dynamically (an
// atomic cursor, so imbalanced cells load-balance), but the returned
// slice is ordered by cell index: merging outcomes front to back yields
// the same result order as a serial loop, whatever the worker count.
//
// Once ctx fires, no new cell starts — in-flight cells drain (fn observes
// the cancellation through its ctx argument and may return early), and
// every cell not yet claimed comes back with Skipped set and an Err
// wrapping the cancellation. Partial results already computed are kept,
// so a canceled sweep still merges deterministically: every cell is
// either a real outcome or marked skipped, never silently missing.
//
// With e.FailFast, the first cell error cancels the rest of the sweep the
// same way.
func RunCtx[T any](ctx context.Context, e Engine, n int, fn func(ctx context.Context, i int) (T, error)) []Outcome[T] {
	out := make([]Outcome[T], n)
	if n == 0 {
		return out
	}
	cellCtx := ctx
	cancel := context.CancelFunc(func() {})
	if e.FailFast {
		cellCtx, cancel = context.WithCancel(ctx)
	}
	defer cancel()
	// Outcome counters: nil (no-op) handles when e.Metrics is unset.
	cellsOK := e.Metrics.Counter(obs.MSweepCellsOK)
	cellsFailed := e.Metrics.Counter(obs.MSweepCellsFailed)
	cellsSkipped := e.Metrics.Counter(obs.MSweepCellsSkipped)
	step := func(i int) {
		if err := cellCtx.Err(); err != nil {
			cellsSkipped.Inc()
			out[i] = Outcome[T]{
				Index:   i,
				Err:     fmt.Errorf("sweep: cell %d skipped: %w", i, err),
				Skipped: true,
			}
			return
		}
		out[i] = runCell(cellCtx, i, fn)
		if out[i].Err != nil {
			cellsFailed.Inc()
			cancel() // no-op unless FailFast
		} else {
			cellsOK.Inc()
		}
	}
	workers := e.WorkerCount()
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := range out {
			step(i)
		}
		return out
	}
	var cursor atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(cursor.Add(1)) - 1
				if i >= n {
					return
				}
				step(i)
			}
		}()
	}
	wg.Wait()
	return out
}

// runCell evaluates one cell with panic isolation.
func runCell[T any](ctx context.Context, i int, fn func(ctx context.Context, i int) (T, error)) (o Outcome[T]) {
	o.Index = i
	defer func() {
		if r := recover(); r != nil {
			var zero T
			o.Value = zero
			o.Err = &PanicError{Cell: i, Value: r, Stack: debug.Stack()}
		}
	}()
	o.Value, o.Err = fn(ctx, i)
	return o
}
