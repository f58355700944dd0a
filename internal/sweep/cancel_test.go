package sweep

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"prophet/internal/obs"
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

// TestCacheLeaderCancelPanicDoesNotPoison: a caller whose ctx is canceled
// must neither hand its cancellation to the callers still waiting on the
// same flight nor leave it memoized for later callers — including when
// the compute of a flight everyone abandoned aborts by panicking with the
// flight context's error.
func TestCacheLeaderCancelPanicDoesNotPoison(t *testing.T) {
	var c Cache[string, int]

	// A waiter joins the leader's flight, then the leader is canceled.
	// The flight keeps computing for the waiter, which gets the value.
	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	inside, release := make(chan struct{}), make(chan struct{})
	leaderErr := make(chan error, 1)
	go func() {
		_, err := c.Get(leaderCtx, "k", func(ctx context.Context) (int, error) {
			close(inside)
			select {
			case <-release:
				return 42, nil
			case <-ctx.Done():
				panic(ctx.Err())
			}
		})
		leaderErr <- err
	}()
	<-inside
	waiterRes := make(chan int, 1)
	go func() {
		v, err := c.Get(context.Background(), "k", func(context.Context) (int, error) {
			t.Error("waiter recomputed while the leader's flight was live")
			return 0, nil
		})
		if err != nil {
			t.Errorf("waiter err = %v, want the computed value", err)
		}
		waiterRes <- v
	}()
	for c.Dedups() < 1 {
		runtime.Gosched()
	}
	cancelLeader()
	if err := <-leaderErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("leader err = %v, want context.Canceled", err)
	}
	close(release)
	if v := <-waiterRes; v != 42 {
		t.Fatalf("waiter got %d, want 42 from the flight the leader left", v)
	}
	if v, err := c.Get(context.Background(), "k", func(context.Context) (int, error) { return 0, errors.New("must not run") }); err != nil || v != 42 {
		t.Fatalf("later Get = %d, %v; want the memoized 42", v, err)
	}

	// Every caller leaves: the flight context fires, the compute panics
	// with its error, and nothing is memoized — a fresh Get recomputes.
	ctx, cancel := context.WithCancel(context.Background())
	running, panicked := make(chan struct{}), make(chan struct{})
	go func() {
		<-running
		cancel()
	}()
	_, err := c.Get(ctx, "p", func(fctx context.Context) (int, error) {
		defer close(panicked)
		close(running)
		<-fctx.Done()
		panic(fctx.Err())
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("abandoning caller err = %v, want context.Canceled", err)
	}
	<-panicked
	v, err := c.Get(context.Background(), "p", func(context.Context) (int, error) { return 7, nil })
	if err != nil || v != 7 {
		t.Fatalf("fresh Get = %d, %v; want 7 after the abandoned flight", v, err)
	}
}

// TestCacheAbandonedFlightExits: when its only caller leaves, a flight's
// context is canceled, the compute observes it, and the flight's
// goroutine exits; the key is gone, so the next caller starts afresh.
func TestCacheAbandonedFlightExits(t *testing.T) {
	var c Cache[string, int]
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	inside, observed := make(chan struct{}), make(chan struct{})
	go func() {
		<-inside
		cancel()
	}()
	_, err := c.Get(ctx, "k", func(fctx context.Context) (int, error) {
		close(inside)
		<-fctx.Done()
		close(observed)
		return 0, fctx.Err()
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("caller err = %v, want context.Canceled", err)
	}
	select {
	case <-observed:
	case <-time.After(5 * time.Second):
		t.Fatal("the abandoned compute never saw its context canceled")
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines = %d, want <= %d once the abandoned flight returned", runtime.NumGoroutine(), before)
		}
		time.Sleep(time.Millisecond)
	}
	if n := c.Len(); n != 0 {
		t.Fatalf("Len = %d after an abandoned flight, want 0", n)
	}
}

// TestCacheDeadCallerStartsNoFlight: a caller whose ctx already fired
// gets its cancellation without running a compute or leaving a key
// behind, while a memoized value still answers it.
func TestCacheDeadCallerStartsNoFlight(t *testing.T) {
	var c Cache[string, int]
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := c.Get(ctx, "k", func(context.Context) (int, error) {
		t.Error("compute ran for a caller whose ctx had fired")
		return 0, nil
	})
	if !errors.Is(err, context.Canceled) || c.Len() != 0 {
		t.Fatalf("dead caller: err=%v Len=%d, want context.Canceled and no key", err, c.Len())
	}
	c.Get(context.Background(), "k", func(context.Context) (int, error) { return 5, nil })
	if v, err := c.Get(ctx, "k", nil); err != nil || v != 5 {
		t.Fatalf("dead caller on a memoized key: %d, %v; want 5", v, err)
	}
}

// TestCacheDoDedup: concurrent Do callers of one key share one compute,
// every waiter gets its result, and the landed flight is forgotten.
func TestCacheDoDedup(t *testing.T) {
	reg := &obs.Registry{}
	var c Cache[string, int]
	c.Instrument(CacheCounters{Dedups: reg.Counter(obs.MServerFlightDedups)})

	var computes atomic.Int64
	started, unblock := make(chan struct{}), make(chan struct{})
	compute := func(context.Context) (int, error) {
		if computes.Add(1) == 1 {
			close(started)
		}
		<-unblock
		return 42, nil
	}
	const waiters = 4
	var wg sync.WaitGroup
	results := make([]int, waiters)
	errs := make([]error, waiters)
	wg.Add(1)
	go func() {
		defer wg.Done()
		results[0], errs[0] = c.Do(context.Background(), "k", compute)
	}()
	<-started // the flight exists; everyone else joins it
	for i := 1; i < waiters; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i], errs[i] = c.Do(context.Background(), "k", compute)
		}()
	}
	deadline := time.Now().Add(5 * time.Second)
	for reg.Snapshot().Counters[obs.MServerFlightDedups] < waiters-1 {
		if time.Now().After(deadline) {
			t.Fatal("waiters never joined the flight")
		}
		time.Sleep(time.Millisecond)
	}
	close(unblock)
	wg.Wait()

	if n := computes.Load(); n != 1 {
		t.Fatalf("compute ran %d times, want 1", n)
	}
	for i := range results {
		if errs[i] != nil || results[i] != 42 {
			t.Errorf("caller %d: %d, %v", i, results[i], errs[i])
		}
	}
	if n := reg.Snapshot().Counters[obs.MServerFlightDedups]; n != waiters-1 {
		t.Errorf("dedups = %d, want %d", n, waiters-1)
	}
	if n := c.Len(); n != 0 {
		t.Errorf("Len = %d after the flight landed, want 0 (Do keeps nothing)", n)
	}
}

// TestCacheDoLeaderCancelDoesNotPoison: a leader whose ctx dies abandons
// its wait, but the flight completes for the waiter still on it and is
// then removed, so later callers compute fresh instead of inheriting the
// cancellation. A caller arriving after every waiter left starts a new
// flight instead of joining the abandoned one.
func TestCacheDoLeaderCancelDoesNotPoison(t *testing.T) {
	var c Cache[string, int]

	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	inside, release := make(chan struct{}), make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		_, err := c.Do(leaderCtx, "k", func(context.Context) (int, error) {
			close(inside)
			<-release
			return 7, nil
		})
		if !errors.Is(err, context.Canceled) {
			t.Errorf("canceled leader err = %v, want context.Canceled", err)
		}
	}()
	<-inside
	waiterRes := make(chan int, 1)
	go func() {
		v, err := c.Do(context.Background(), "k", func(context.Context) (int, error) {
			t.Error("waiter became leader while the flight was open")
			return 0, nil
		})
		if err != nil {
			t.Errorf("waiter err: %v", err)
		}
		waiterRes <- v
	}()
	for c.Dedups() < 1 {
		runtime.Gosched()
	}
	cancelLeader()
	<-done
	close(release)
	if v := <-waiterRes; v != 7 {
		t.Errorf("waiter got %d, want the completed value 7", v)
	}

	// The completed flight is gone: the next caller is a fresh leader.
	v, err := c.Do(context.Background(), "k", func(context.Context) (int, error) { return 9, nil })
	if err != nil || v != 9 {
		t.Errorf("fresh leader: %d, %v; want 9", v, err)
	}

	// Abandoned by its only caller, a flight is dropped at once: a later
	// caller with a live ctx leads a new flight and never sees the old
	// flight's cancellation.
	ctx, cancel := context.WithCancel(context.Background())
	running, hold := make(chan struct{}), make(chan struct{})
	defer close(hold)
	go func() {
		<-running
		cancel()
	}()
	if _, err := c.Do(ctx, "a", func(context.Context) (int, error) {
		close(running)
		<-hold
		return 0, nil
	}); !errors.Is(err, context.Canceled) {
		t.Fatalf("abandoning caller err = %v, want context.Canceled", err)
	}
	v, err = c.Do(context.Background(), "a", func(context.Context) (int, error) { return 11, nil })
	if err != nil || v != 11 {
		t.Errorf("caller after abandonment: %d, %v; want a fresh flight's 11", v, err)
	}
}

// TestCacheWrappedCancellationPanicNotMemoized: cancellations that arrive
// wrapped (fmt.Errorf %w chains) behave the same whether returned or
// panicked.
func TestCacheWrappedCancellationPanicNotMemoized(t *testing.T) {
	var c Cache[string, int]
	_, err := c.Get(context.Background(), "k", func(context.Context) (int, error) {
		panic(fmt.Errorf("calibrate: %w", context.DeadlineExceeded))
	})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("first Get err = %v, want wrapped DeadlineExceeded", err)
	}
	v, err := c.Get(context.Background(), "k", func(context.Context) (int, error) { return 7, nil })
	if err != nil || v != 7 {
		t.Fatalf("recompute = %d, %v; want 7", v, err)
	}
	// Non-cancellation panics still cache (the documented contract).
	_, err = c.Get(context.Background(), "boom", func(context.Context) (int, error) { panic("kaboom") })
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("panic err = %v, want *PanicError", err)
	}
	_, err2 := c.Get(context.Background(), "boom", func(context.Context) (int, error) { return 0, nil })
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
	_, err := c.Get(context.Background(), "k", func(context.Context) (int, error) { return 0, context.Canceled })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("first Get err = %v", err)
	}
	_, err = c.Get(context.Background(), "k", func(context.Context) (int, error) { return 0, context.DeadlineExceeded })
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("second Get err = %v, want recompute (DeadlineExceeded)", err)
	}
	v, err := c.Get(context.Background(), "k", func(context.Context) (int, error) { return 42, nil })
	if err != nil || v != 42 {
		t.Fatalf("third Get = %d, %v; want 42 after cancellation retries", v, err)
	}
	// Now memoized for real.
	v, err = c.Get(context.Background(), "k", func(context.Context) (int, error) { return 0, errors.New("must not run") })
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
		c.Get(context.Background(), "k", func(context.Context) (int, error) {
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
	c.Get(context.Background(), "bad", func(context.Context) (int, error) { return 0, errors.New("boom") })
	if _, ok := c.Peek("bad"); ok {
		t.Fatal("Peek hit a cached error")
	}
	if hits, misses := c.Stats(); hits != 0 || misses != 2 {
		t.Fatalf("stats = %d hits, %d misses; Peek must count neither", hits, misses)
	}
}
