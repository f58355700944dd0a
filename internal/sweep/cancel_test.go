package sweep

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"
)

// TestRunCtxPreCanceledSkipsAllCells: a context canceled before the sweep
// starts must claim no cells — every outcome comes back Skipped with an
// Err wrapping the cancellation cause.
func TestRunCtxPreCanceledSkipsAllCells(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var ran atomic.Int64
	out := RunCtx(ctx, Engine{Workers: 4}, 20, func(_ context.Context, i int) (int, error) {
		ran.Add(1)
		return i, nil
	})
	if n := ran.Load(); n != 0 {
		t.Fatalf("%d cells ran under a pre-canceled context, want 0", n)
	}
	if len(out) != 20 {
		t.Fatalf("%d outcomes, want 20", len(out))
	}
	for i, o := range out {
		if !o.Skipped {
			t.Errorf("cell %d not marked Skipped", i)
		}
		if !errors.Is(o.Err, context.Canceled) {
			t.Errorf("cell %d Err = %v, want wrapped context.Canceled", i, o.Err)
		}
		if o.Index != i {
			t.Errorf("cell %d Index = %d", i, o.Index)
		}
	}
}

// TestRunCtxMidSweepCancelKeepsPartialResults: canceling mid-sweep stops
// new cells from starting, lets in-flight cells drain, and marks the rest
// Skipped — no outcome is ever silently missing.
func TestRunCtxMidSweepCancelKeepsPartialResults(t *testing.T) {
	const n = 50
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	var started atomic.Int64
	out := RunCtx(ctx, Engine{Workers: 4}, n, func(cellCtx context.Context, i int) (int, error) {
		if started.Add(1) == 8 {
			cancel() // fire mid-sweep from inside a cell
		}
		// In-flight cells observe the cancellation through their ctx and
		// may finish early — but they still return a real outcome.
		select {
		case <-cellCtx.Done():
		case <-time.After(time.Millisecond):
		}
		return i * i, nil
	})

	var real, skipped int
	for i, o := range out {
		switch {
		case o.Skipped:
			skipped++
			if !errors.Is(o.Err, context.Canceled) {
				t.Errorf("skipped cell %d Err = %v, want wrapped context.Canceled", i, o.Err)
			}
		default:
			real++
			if o.Err != nil {
				t.Errorf("cell %d Err = %v", i, o.Err)
			}
			if o.Value != i*i {
				t.Errorf("cell %d Value = %d, want %d", i, o.Value, i*i)
			}
		}
	}
	if real+skipped != n {
		t.Fatalf("real %d + skipped %d != %d cells", real, skipped, n)
	}
	if real == 0 {
		t.Error("no cell completed before the cancel — in-flight cells should drain to real outcomes")
	}
	if skipped == 0 {
		t.Error("no cell was skipped after the cancel")
	}
}

// TestRunCtxFailFastCancelsRemainingCells: with Engine.FailFast, the
// first cell error cancels the remainder of the sweep; unclaimed cells
// come back Skipped instead of running.
func TestRunCtxFailFastCancelsRemainingCells(t *testing.T) {
	boom := errors.New("cell exploded")
	const n = 200
	var ran atomic.Int64
	// Workers: 1 makes the serial path deterministic: cell 3 fails, and
	// every later cell must be skipped without running.
	out := RunCtx(context.Background(), Engine{Workers: 1, FailFast: true}, n,
		func(_ context.Context, i int) (int, error) {
			ran.Add(1)
			if i == 3 {
				return 0, boom
			}
			return i, nil
		})
	if got := ran.Load(); got != 4 {
		t.Fatalf("%d cells ran, want 4 (0..3)", got)
	}
	if !errors.Is(out[3].Err, boom) || out[3].Skipped {
		t.Fatalf("cell 3 = %+v, want the original error, not skipped", out[3])
	}
	for i := 4; i < n; i++ {
		if !out[i].Skipped {
			t.Fatalf("cell %d ran after FailFast error", i)
		}
		if !errors.Is(out[i].Err, context.Canceled) {
			t.Fatalf("cell %d Err = %v, want wrapped context.Canceled", i, out[i].Err)
		}
	}
}

// TestRunCtxFailFastParallelStops: FailFast on the pooled path — after an
// early error, far fewer than n cells run. (The exact count is racy; the
// invariant is that the sweep stops claiming cells soon after the error
// and that all skipped cells are marked.)
func TestRunCtxFailFastParallelStops(t *testing.T) {
	boom := errors.New("first cell fails")
	const n = 1000
	var ran atomic.Int64
	out := RunCtx(context.Background(), Engine{Workers: 4, FailFast: true}, n,
		func(cellCtx context.Context, i int) (int, error) {
			ran.Add(1)
			if i == 0 {
				return 0, boom
			}
			// Simulate work that honours cancellation.
			select {
			case <-cellCtx.Done():
			case <-time.After(100 * time.Microsecond):
			}
			return i, nil
		})
	if got := ran.Load(); got == n {
		t.Fatalf("all %d cells ran despite FailFast error in cell 0", n)
	}
	var skipped int
	for i, o := range out {
		if o.Skipped {
			skipped++
			if !errors.Is(o.Err, context.Canceled) {
				t.Errorf("cell %d Err = %v, want wrapped context.Canceled", i, o.Err)
			}
		}
	}
	if skipped == 0 {
		t.Error("no cells skipped after FailFast error")
	}
	if int(ran.Load())+skipped != n {
		t.Errorf("ran %d + skipped %d != %d", ran.Load(), skipped, n)
	}
}

// TestRunCtxErrorWithoutFailFastContinues: without FailFast a cell error
// stays per-cell — the rest of the sweep runs to completion.
func TestRunCtxErrorWithoutFailFastContinues(t *testing.T) {
	boom := errors.New("boom")
	out := RunCtx(context.Background(), Engine{Workers: 2}, 30,
		func(_ context.Context, i int) (int, error) {
			if i == 0 {
				return 0, boom
			}
			return i, nil
		})
	for i := 1; i < 30; i++ {
		if out[i].Err != nil || out[i].Skipped {
			t.Fatalf("cell %d = %+v, want clean run despite cell 0 error", i, out[i])
		}
	}
	if !errors.Is(out[0].Err, boom) {
		t.Fatalf("cell 0 Err = %v", out[0].Err)
	}
}

// TestCacheLeaderCancelPanicDoesNotPoison: a leader canceled via context
// must not install the cancellation as the cached value for later
// waiters — including when the cancellation escapes the compute as a
// panic (the legacy panicking paths the public API still unwraps with
// recoverToError). Pre-fix, such a panic was memoized as a *PanicError,
// poisoning the key forever.
func TestCacheLeaderCancelPanicDoesNotPoison(t *testing.T) {
	var c Cache[string, int]
	ctx, cancel := context.WithCancel(context.Background())

	// Leader: a waiter deduplicates onto the flight, then the leader is
	// canceled and aborts by panicking with the context error.
	leaderIn := make(chan struct{})
	waiterIn := make(chan struct{})
	waiterErr := make(chan error, 1)
	go func() {
		<-leaderIn // leader's compute is running
		go func() {
			close(waiterIn)
			_, err := c.Get("k", func() (int, error) {
				t.Error("waiter recomputed while the leader's flight was live")
				return 0, nil
			})
			waiterErr <- err
		}()
		<-waiterIn
		time.Sleep(time.Millisecond) // let the waiter park on the flight
		cancel()
	}()
	_, err := c.Get("k", func() (int, error) {
		close(leaderIn)
		<-ctx.Done()
		panic(ctx.Err()) // legacy cancellation-by-panic
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("leader err = %v, want context.Canceled", err)
	}
	if err := <-waiterErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("waiter err = %v, want the flight's cancellation", err)
	}

	// The key must not be poisoned: a fresh Get recomputes and succeeds.
	v, err := c.Get("k", func() (int, error) { return 42, nil })
	if err != nil || v != 42 {
		t.Fatalf("fresh Get = %d, %v; want 42 after canceled leader", v, err)
	}
}

// TestCacheWrappedCancellationPanicNotMemoized: cancellations that arrive
// wrapped (fmt.Errorf %w chains) behave the same whether returned or
// panicked.
func TestCacheWrappedCancellationPanicNotMemoized(t *testing.T) {
	var c Cache[string, int]
	_, err := c.Get("k", func() (int, error) {
		panic(fmt.Errorf("calibrate: %w", context.DeadlineExceeded))
	})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("first Get err = %v, want wrapped DeadlineExceeded", err)
	}
	v, err := c.Get("k", func() (int, error) { return 7, nil })
	if err != nil || v != 7 {
		t.Fatalf("recompute = %d, %v; want 7", v, err)
	}
	// Non-cancellation panics still cache (the documented contract).
	_, err = c.Get("boom", func() (int, error) { panic("kaboom") })
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("panic err = %v, want *PanicError", err)
	}
	_, err2 := c.Get("boom", func() (int, error) { return 0, nil })
	if !errors.As(err2, &pe) {
		t.Fatalf("cached panic err = %v, want the memoized *PanicError", err2)
	}
}

// TestCacheDoesNotMemoizeCancellation: a cache compute that fails with a
// cancellation error must not poison the key — a later Get recomputes and
// can succeed. (Real errors and panics stay cached; see
// TestCacheErrorsAndPanicsAreCached.)
func TestCacheDoesNotMemoizeCancellation(t *testing.T) {
	var c Cache[string, int]
	_, err := c.Get("k", func() (int, error) { return 0, context.Canceled })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("first Get err = %v", err)
	}
	_, err = c.Get("k", func() (int, error) { return 0, context.DeadlineExceeded })
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("second Get err = %v, want recompute (DeadlineExceeded)", err)
	}
	v, err := c.Get("k", func() (int, error) { return 42, nil })
	if err != nil || v != 42 {
		t.Fatalf("third Get = %d, %v; want 42 after cancellation retries", v, err)
	}
	// Now memoized for real.
	v, err = c.Get("k", func() (int, error) { return 0, errors.New("must not run") })
	if err != nil || v != 42 {
		t.Fatalf("fourth Get = %d, %v; want cached 42", v, err)
	}
}

// TestCachePeekNeverComputes: Peek reports only completed, successful
// entries — absent keys, live flights and cached errors all miss — and
// never runs a compute or counts a hit.
func TestCachePeekNeverComputes(t *testing.T) {
	var c Cache[string, int]
	if _, ok := c.Peek("k"); ok {
		t.Fatal("Peek hit an absent key")
	}
	inside, release := make(chan struct{}), make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		c.Get("k", func() (int, error) {
			close(inside)
			<-release
			return 7, nil
		})
	}()
	<-inside
	if _, ok := c.Peek("k"); ok {
		t.Fatal("Peek hit a flight still computing")
	}
	close(release)
	<-done
	if v, ok := c.Peek("k"); !ok || v != 7 {
		t.Fatalf("Peek = %d, %v; want 7, true once computed", v, ok)
	}
	c.Get("bad", func() (int, error) { return 0, errors.New("boom") })
	if _, ok := c.Peek("bad"); ok {
		t.Fatal("Peek hit a cached error")
	}
	if hits, misses := c.Stats(); hits != 0 || misses != 2 {
		t.Fatalf("stats = %d hits, %d misses; Peek must count neither", hits, misses)
	}
}
