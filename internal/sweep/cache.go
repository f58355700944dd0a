package sweep

import (
	"context"
	"errors"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"prophet/internal/obs"
)

// Cache memoizes expensive deterministic computations by key with
// singleflight semantics: concurrent Gets for the same key run the
// compute function exactly once and share its result. The experiment
// harness uses it so figures that share samples (Fig. 11's six panels
// reuse the same random trees; Fig. 12 / Table III reuse benchmark
// profiles) profile each input once no matter how many cells need it.
//
// The zero value is ready to use. Compute functions must be
// deterministic for the cache to preserve the harness's determinism
// guarantee; errors (including recovered panics) are cached like values,
// EXCEPT cancellation errors (context.Canceled / DeadlineExceeded), which
// are returned to the waiters of that flight but never memoized — a later
// Get with a live context recomputes instead of replaying the stale
// cancellation.
type Cache[K comparable, V any] struct {
	mu     sync.Mutex
	m      map[K]*cacheEntry[V]
	hits   atomic.Int64
	misses atomic.Int64
	dedups atomic.Int64
	ctrs   CacheCounters
}

// CacheCounters are optional external metric handles for a cache; nil
// members are no-ops, so a zero value disables instrumentation.
type CacheCounters struct {
	// Hits counts Gets that found the key present (completed or still
	// in flight).
	Hits *obs.Counter
	// Misses counts Gets that ran the compute function.
	Misses *obs.Counter
	// Dedups counts singleflight deduplications: Gets that found the
	// key's compute still in flight and waited for it instead of
	// recomputing.
	Dedups *obs.Counter
}

// Instrument attaches metric counters (typically from an obs.Registry)
// that mirror the cache's internal hit/miss/dedup statistics from this
// point on. Safe only before the cache is shared across goroutines.
func (c *Cache[K, V]) Instrument(ctrs CacheCounters) {
	c.ctrs = ctrs
}

type cacheEntry[V any] struct {
	ready chan struct{} // closed when v/err are final for this flight
	v     V
	err   error
}

// Get returns the cached value for key, computing it with compute on
// first use. Concurrent callers of the same key block until the single
// compute finishes. A panic inside compute is recovered into a
// *PanicError (Cell -1) shared by all waiters.
func (c *Cache[K, V]) Get(key K, compute func() (V, error)) (V, error) {
	c.mu.Lock()
	if c.m == nil {
		c.m = make(map[K]*cacheEntry[V])
	}
	e, ok := c.m[key]
	if !ok {
		e = &cacheEntry[V]{ready: make(chan struct{})}
		c.m[key] = e
	}
	c.mu.Unlock()
	if ok {
		c.hits.Add(1)
		c.ctrs.Hits.Inc()
		select {
		case <-e.ready:
			// Completed flight: a plain hit.
		default:
			// Still computing: this Get deduplicates onto the flight.
			c.dedups.Add(1)
			c.ctrs.Dedups.Inc()
		}
		<-e.ready
		return e.v, e.err
	}
	c.misses.Add(1)
	c.ctrs.Misses.Inc()
	func() {
		defer func() {
			if r := recover(); r != nil {
				var zero V
				e.v = zero
				// A legacy panicking cancellation path (a compute layer that
				// still signals ctx expiry by panicking with the context
				// error) must stay a cancellation: wrapped in a *PanicError
				// it would no longer satisfy isCancellation and the flight's
				// abort would be memoized for every later Get of the key.
				if err, ok := r.(error); ok && isCancellation(err) {
					e.err = err
					return
				}
				e.err = &PanicError{Cell: -1, Value: r, Stack: debug.Stack()}
			}
		}()
		e.v, e.err = compute()
	}()
	if isCancellation(e.err) {
		// Drop the entry before releasing the waiters: this flight's
		// cancellation must not answer future Gets.
		c.mu.Lock()
		if c.m[key] == e {
			delete(c.m, key)
		}
		c.mu.Unlock()
	}
	close(e.ready)
	return e.v, e.err
}

// Peek returns the value cached for key without computing it or waiting
// for it: ok is false while the key is absent, still computing, or
// failed. Peek touches no hit/miss counter.
func (c *Cache[K, V]) Peek(key K) (v V, ok bool) {
	c.mu.Lock()
	e := c.m[key]
	c.mu.Unlock()
	if e == nil {
		return v, false
	}
	select {
	case <-e.ready:
		return e.v, e.err == nil
	default:
		return v, false
	}
}

// isCancellation reports whether err stems from a canceled or expired
// caller context rather than from the computation itself.
func isCancellation(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// Len returns the number of cached keys.
func (c *Cache[K, V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m)
}

// Stats returns the hit/miss counters (a "hit" is any Get that found the
// key already present, even if the compute was still in flight).
func (c *Cache[K, V]) Stats() (hits, misses int64) {
	return c.hits.Load(), c.misses.Load()
}

// Dedups returns the number of singleflight deduplications: hits that
// arrived while the key's compute was still in flight and shared its
// result.
func (c *Cache[K, V]) Dedups() int64 {
	return c.dedups.Load()
}
