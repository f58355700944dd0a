package server

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"prophet"
	"prophet/internal/obs"
	"prophet/internal/sweep"
)

func newTestPool(workers int) (*slotPool, *obs.Registry) {
	reg := &obs.Registry{}
	return newSlotPool(context.Background(), workers, reg), reg
}

// runAsync runs fn on p from a new goroutine and returns its result
// channel.
func runAsync(ctx context.Context, p *slotPool, fn func(context.Context) (prophet.Estimate, error)) <-chan cellResult {
	res := make(chan cellResult, 1)
	go func() { res <- p.run(ctx, fn) }()
	return res
}

// blocker returns a cell that signals started once it holds a slot and
// then parks until release is closed.
func blocker(started chan<- struct{}, release <-chan struct{}) func(context.Context) (prophet.Estimate, error) {
	return func(context.Context) (prophet.Estimate, error) {
		close(started)
		<-release
		return est(1), nil
	}
}

// recv waits for one result, failing the test after a generous timeout.
func recv(t *testing.T, what string, res <-chan cellResult) cellResult {
	t.Helper()
	select {
	case r := <-res:
		return r
	case <-time.After(5 * time.Second):
		t.Fatalf("%s never resolved", what)
		return cellResult{}
	}
}

// TestPoolNoHeadOfLineBlocking: a cell submitted while another holds a
// slot runs on a free slot at once instead of waiting for the first cell
// to finish.
func TestPoolNoHeadOfLineBlocking(t *testing.T) {
	p, _ := newTestPool(2)
	started, release := make(chan struct{}), make(chan struct{})
	slow := runAsync(context.Background(), p, blocker(started, release))
	<-started
	defer close(release)

	fast := runAsync(context.Background(), p, func(context.Context) (prophet.Estimate, error) {
		return est(2), nil
	})
	select {
	case r := <-fast:
		if r.err != nil || r.est.Speedup != 2 {
			t.Errorf("fast cell: %+v, %v", r.est, r.err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("fast cell waited for the slow cell holding the other slot")
	}
	select {
	case <-slow:
		t.Fatal("slow cell finished before it was released")
	default:
	}
}

// TestPoolBoundsConcurrency: however many cells are submitted, at most
// Workers run at once, and the pool fills every slot. Each cell gets its
// own value back.
func TestPoolBoundsConcurrency(t *testing.T) {
	const n, workers = 32, 3
	p, reg := newTestPool(workers)

	var running, high atomic.Int64
	full := make(chan struct{})
	var fullOnce sync.Once
	res := make([]<-chan cellResult, n)
	for i := range res {
		i := i
		res[i] = runAsync(context.Background(), p, func(context.Context) (prophet.Estimate, error) {
			cur := running.Add(1)
			for {
				h := high.Load()
				if cur <= h || high.CompareAndSwap(h, cur) {
					break
				}
			}
			if cur == workers {
				fullOnce.Do(func() { close(full) })
			}
			// Hold the slot until every slot has been filled once, then a
			// little longer so an unbounded pool would overshoot.
			<-full
			time.Sleep(time.Millisecond)
			running.Add(-1)
			return est(float64(i)), nil
		})
	}
	for i, ch := range res {
		if r := recv(t, "cell", ch); r.err != nil || r.est.Speedup != float64(i) {
			t.Errorf("cell %d: %+v, %v", i, r.est, r.err)
		}
	}
	if h := high.Load(); h != workers {
		t.Errorf("high-water mark of running cells = %d, want %d", h, workers)
	}
	snap := reg.Snapshot()
	if got := snap.Counters[obs.MServerBatches]; got != n {
		t.Errorf("dispatches = %d, want %d", got, n)
	}
	if got := snap.Counters[obs.MServerBatchCells]; got != n {
		t.Errorf("dispatched cells = %d, want %d", got, n)
	}
	if got := snap.Histograms[obs.MServerPoolWait].Count; got != n {
		t.Errorf("slot waits observed = %d, want %d", got, n)
	}
}

// TestPoolPanicIsolated: a panicking cell resolves with the contained
// panic error, leaves its neighbour alone and gives its slot back.
func TestPoolPanicIsolated(t *testing.T) {
	p, reg := newTestPool(1)

	bad := runAsync(context.Background(), p, func(context.Context) (prophet.Estimate, error) {
		panic("cell exploded")
	})
	good := runAsync(context.Background(), p, func(context.Context) (prophet.Estimate, error) {
		return est(2), nil
	})

	r := recv(t, "panicking cell", bad)
	var pe *sweep.PanicError
	if !errors.As(r.err, &pe) {
		t.Errorf("panicking cell err = %v, want a *sweep.PanicError", r.err)
	}
	if !errors.As(r.est.Err, &pe) {
		t.Errorf("panicking cell estimate err = %v, want a *sweep.PanicError", r.est.Err)
	}
	if r2 := recv(t, "neighbour", good); r2.err != nil || r2.est.Speedup != 2 {
		t.Errorf("neighbour of panicking cell: %+v, %v", r2.est, r2.err)
	}

	// With one slot, the next cell runs only if the panic released it.
	after := runAsync(context.Background(), p, func(context.Context) (prophet.Estimate, error) {
		return est(7), nil
	})
	if r3 := recv(t, "post-panic cell", after); r3.err != nil || r3.est.Speedup != 7 {
		t.Errorf("post-panic cell: %+v, %v", r3.est, r3.err)
	}
	snap := reg.Snapshot()
	if ok, failed := snap.Counters[obs.MSweepCellsOK], snap.Counters[obs.MSweepCellsFailed]; ok != 2 || failed != 1 {
		t.Errorf("sweep cells ok/failed = %d/%d, want 2/1", ok, failed)
	}
}

// TestPoolExpiredJobSkipped: a cell whose context is already dead
// resolves with the cancellation without running. With a free slot the
// pool may take either the slot or the cancellation first, so the check
// repeats until both orders have almost surely been taken.
func TestPoolExpiredJobSkipped(t *testing.T) {
	p, _ := newTestPool(2)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var ran atomic.Bool
	for i := 0; i < 32; i++ {
		r := p.run(ctx, func(context.Context) (prophet.Estimate, error) {
			ran.Store(true)
			return est(1), nil
		})
		if !errors.Is(r.err, context.Canceled) || !errors.Is(r.est.Err, context.Canceled) {
			t.Fatalf("expired cell err = %v / %v, want context.Canceled", r.err, r.est.Err)
		}
	}
	if ran.Load() {
		t.Error("expired cell's run executed")
	}
}

// holdSlot occupies the only slot of a one-worker server until the
// returned release func is called.
func holdSlot(t *testing.T, s *Server) (release func()) {
	t.Helper()
	started, unblock := make(chan struct{}), make(chan struct{})
	done := runAsync(context.Background(), s.pool, blocker(started, unblock))
	<-started
	return func() {
		close(unblock)
		recv(t, "slot holder", done)
	}
}

// queuedCell submits one cell through s.cellOn, recording in ran
// whether its computation ever executed.
func queuedCell(ctx context.Context, s *Server, key string, ran *atomic.Bool) <-chan error {
	errc := make(chan error, 1)
	go func() {
		_, _, err := s.cellOn(ctx, key, prophet.Request{Threads: 2}, func(context.Context) (prophet.Estimate, error) {
			ran.Store(true)
			return est(1), nil
		})
		errc <- err
	}()
	return errc
}

// waitFlights polls until the server has exactly n open flights.
func waitFlights(t *testing.T, s *Server, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		open := s.flights.Len()
		if open == n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("open flights = %d, want %d", open, n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestPoolShutdownResolvesQueued: cells waiting for a slot when the
// server shuts down resolve with a cancellation and never run.
func TestPoolShutdownResolvesQueued(t *testing.T) {
	s := New(Config{Workers: 1})
	release := holdSlot(t, s)

	var ran atomic.Bool
	errs := make([]<-chan error, 4)
	for i := range errs {
		errs[i] = queuedCell(context.Background(), s, fmt.Sprint("k", i), &ran)
	}
	waitFlights(t, s, len(errs))
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	for i, errc := range errs {
		select {
		case err := <-errc:
			if !errors.Is(err, context.Canceled) {
				t.Errorf("queued cell %d: err %v, want context.Canceled", i, err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("queued cell %d never resolved after Shutdown", i)
		}
	}
	waitFlights(t, s, 0)
	release()
	if ran.Load() {
		t.Error("a cell queued at Shutdown ran")
	}
}

// TestPoolAbandonedFlightNeverRuns: when the only waiter of a flight
// leaves while its cell is queued for a slot, the cell leaves the queue
// and its computation never executes, even after a slot frees.
func TestPoolAbandonedFlightNeverRuns(t *testing.T) {
	s := New(Config{Workers: 1})
	t.Cleanup(func() { s.Shutdown(context.Background()) })
	release := holdSlot(t, s)

	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Bool
	errc := queuedCell(ctx, s, "k", &ran)
	waitFlights(t, s, 1)
	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Errorf("abandoning waiter: err %v, want context.Canceled", err)
	}
	// The flight closes only after its leader left the slot queue.
	waitFlights(t, s, 0)
	release()
	if ran.Load() {
		t.Error("abandoned cell ran")
	}
	if got := counterValue(t, s, obs.MServerBatches); got != 1 {
		t.Errorf("dispatches = %d, want 1 (the slot holder only)", got)
	}
}
