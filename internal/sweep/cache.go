package sweep

import (
	"context"
	"errors"
	"runtime/debug"
	"sync"

	"prophet/internal/obs"
)

// Cache is the repo's one singleflight: concurrent callers of the same
// key share one computation ("flight") of its value. Get memoizes the
// result, so the experiment harness profiles each input once however
// many cells need it (Fig. 11's six panels reuse the same random trees;
// Fig. 12 / Table III reuse benchmark profiles) and the library
// calibrates each machine once. Do forgets the result as soon as the
// flight lands, for callers that keep completed values elsewhere (the
// server's LRU).
//
// A flight runs its compute on its own goroutine, under a flight context
// derived from the first caller's ctx with context.WithoutCancel: it
// keeps that ctx's values but none of its cancellation. Every caller
// waits on its own ctx, and the flight context is canceled only when the
// last waiter leaves. A caller whose ctx is live therefore never receives
// another caller's cancellation, and a flight nobody waits for any more
// is told to stop. A panic in the compute is recovered into a *PanicError
// (Cell -1) shared by all waiters.
//
// A flight is never retained if its context fired (every waiter left) or
// its error is a cancellation (IsCancellation): the next caller starts a
// fresh flight instead of replaying a stale abort. Other errors,
// recovered panics included, are memoized by Get like values. Compute
// functions must be deterministic for Get to preserve the harness's
// determinism guarantee.
//
// The zero value is ready to use. A cache serves either Get or Do, not
// both.
type Cache[K comparable, V any] struct {
	mu   sync.Mutex
	m    map[K]*flight[V]
	ctrs CacheCounters
}

// CacheCounters are optional external metric handles for a cache; nil
// members are no-ops, so a zero value disables instrumentation.
type CacheCounters struct {
	// Hits counts calls that found the key present (completed or still
	// in flight).
	Hits *obs.Counter
	// Misses counts calls that started a flight.
	Misses *obs.Counter
	// Dedups counts singleflight deduplications: calls that found the
	// key's compute still in flight and joined it instead of
	// recomputing.
	Dedups *obs.Counter
}

// Instrument attaches metric counters (typically from an obs.Registry)
// that count the cache's hits, misses and dedups from this point on.
// Safe only before the cache is shared across goroutines.
func (c *Cache[K, V]) Instrument(ctrs CacheCounters) {
	c.ctrs = ctrs
}

// flight is one computation of a key's value.
type flight[V any] struct {
	done chan struct{} // closed once v/err are final
	v    V
	err  error
	// cancel cancels the flight context; waiters counts callers still
	// waiting; finished is set when the compute lands. All three are
	// guarded by the cache mutex.
	cancel   context.CancelFunc
	waiters  int
	finished bool
}

// IsCancellation reports whether err stems from a canceled or expired
// context rather than from the computation itself.
func IsCancellation(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// Get returns the value memoized for key, computing it with compute on
// first use. Concurrent callers of the same key share one flight; a
// caller whose ctx fires first returns ctx.Err() without disturbing the
// others.
func (c *Cache[K, V]) Get(ctx context.Context, key K, compute func(context.Context) (V, error)) (V, error) {
	return c.join(ctx, key, compute, true)
}

// Do returns the result of a flight of compute for key, joining one
// already in progress. Unlike Get it keeps nothing: the entry is dropped
// when the flight lands, so the next Do computes afresh.
func (c *Cache[K, V]) Do(ctx context.Context, key K, compute func(context.Context) (V, error)) (V, error) {
	return c.join(ctx, key, compute, false)
}

func (c *Cache[K, V]) join(ctx context.Context, key K, compute func(context.Context) (V, error), keep bool) (V, error) {
	c.mu.Lock()
	f, ok := c.m[key]
	if ok && f.finished {
		v, err := f.v, f.err
		c.mu.Unlock()
		c.ctrs.Hits.Inc()
		return v, err
	}
	// A caller whose ctx already fired neither starts nor joins a flight.
	if err := ctx.Err(); err != nil {
		c.mu.Unlock()
		var zero V
		return zero, err
	}
	if ok {
		f.waiters++
		c.mu.Unlock()
		c.ctrs.Hits.Inc()
		c.ctrs.Dedups.Inc()
		return c.wait(ctx, key, f)
	}
	if c.m == nil {
		c.m = make(map[K]*flight[V])
	}
	fctx, cancel := context.WithCancel(context.WithoutCancel(ctx))
	f = &flight[V]{done: make(chan struct{}), cancel: cancel, waiters: 1}
	c.m[key] = f
	c.mu.Unlock()
	c.ctrs.Misses.Inc()
	go c.run(fctx, key, f, compute, keep)
	return c.wait(ctx, key, f)
}

// run computes one flight and publishes its result.
func (c *Cache[K, V]) run(fctx context.Context, key K, f *flight[V], compute func(context.Context) (V, error), keep bool) {
	v, err := func() (v V, err error) {
		defer func() {
			if r := recover(); r != nil {
				var zero V
				v, err = zero, &PanicError{Cell: -1, Value: r, Stack: debug.Stack()}
			}
		}()
		return compute(fctx)
	}()
	c.mu.Lock()
	f.v, f.err, f.finished = v, err, true
	// A memoized flight must not pin the first caller's ctx, which the
	// flight context's cancel func still references.
	cancel := f.cancel
	f.cancel = nil
	if (!keep || fctx.Err() != nil || IsCancellation(err)) && c.m[key] == f {
		delete(c.m, key)
	}
	c.mu.Unlock()
	close(f.done)
	cancel()
}

// wait parks one caller on f until the flight lands or ctx fires. The
// last caller to leave an unfinished flight drops it from the map and
// cancels its context.
func (c *Cache[K, V]) wait(ctx context.Context, key K, f *flight[V]) (V, error) {
	select {
	case <-f.done:
		return f.v, f.err
	case <-ctx.Done():
	}
	c.mu.Lock()
	f.waiters--
	var cancel context.CancelFunc
	if f.waiters == 0 && !f.finished {
		cancel = f.cancel
		if c.m[key] == f {
			delete(c.m, key)
		}
	}
	c.mu.Unlock()
	if cancel != nil {
		cancel()
	}
	var zero V
	return zero, ctx.Err()
}

// Peek returns the value cached for key without computing it or waiting
// for it: ok is false while the key is absent, still computing, or
// failed. Peek touches no hit/miss counter.
func (c *Cache[K, V]) Peek(key K) (v V, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	f := c.m[key]
	if f == nil || !f.finished {
		return v, false
	}
	return f.v, f.err == nil
}

// Len returns the number of keys present: memoized values plus flights
// still in progress.
func (c *Cache[K, V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m)
}
