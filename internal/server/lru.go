package server

import (
	"container/list"
	"hash/fnv"
	"sync"

	"prophet"
	"prophet/internal/obs"
)

// cacheShards is the estimate LRU's shard count.
const cacheShards = 16

// estimateCache is a sharded LRU over completed estimates, keyed on
// (workload, compressed-tree hash, request). It sits in front of the
// library's singleflight calibration cache: the calibration cache saves
// the expensive per-machine microbenchmark sweep, this cache saves the
// per-request emulation. Sharding keeps the lock a per-shard mutex so
// the hot path (a hammered daemon serving repeated sweeps) does not
// serialize on one cache lock.
//
// Only successful estimates (Err == nil) are stored; see Server.estimate.
type estimateCache struct {
	shards []*cacheShard
	// per-shard capacity; <= 0 disables the cache entirely.
	perShard int

	hits, misses, evictions *obs.Counter
}

type cacheShard struct {
	mu sync.Mutex
	m  map[string]*list.Element
	ll *list.List // front = most recently used
}

type cacheItem struct {
	key string
	est prophet.Estimate
}

// newEstimateCache builds a cache of about `capacity` total entries over
// `shards` shards. capacity <= 0 disables caching (every Get misses);
// shards is clamped to at least 1.
func newEstimateCache(capacity, shards int, reg *obs.Registry) *estimateCache {
	if shards < 1 {
		shards = 1
	}
	perShard := 0
	if capacity > 0 {
		perShard = (capacity + shards - 1) / shards
	}
	c := &estimateCache{
		perShard:  perShard,
		hits:      reg.Counter(obs.MServerCacheHits),
		misses:    reg.Counter(obs.MServerCacheMisses),
		evictions: reg.Counter(obs.MServerCacheEvictions),
	}
	c.shards = make([]*cacheShard, shards)
	for i := range c.shards {
		c.shards[i] = &cacheShard{m: make(map[string]*list.Element), ll: list.New()}
	}
	return c
}

func (c *estimateCache) shard(key string) *cacheShard {
	h := fnv.New32a()
	h.Write([]byte(key))
	return c.shards[h.Sum32()%uint32(len(c.shards))]
}

// Get returns the cached estimate for key and promotes it to most
// recently used.
func (c *estimateCache) Get(key string) (prophet.Estimate, bool) {
	if c.perShard <= 0 {
		c.misses.Inc()
		return prophet.Estimate{}, false
	}
	s := c.shard(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.m[key]
	if !ok {
		c.misses.Inc()
		return prophet.Estimate{}, false
	}
	s.ll.MoveToFront(el)
	c.hits.Inc()
	return el.Value.(*cacheItem).est, true
}

// Put stores est under key, evicting the least recently used entry of
// the shard when it is full.
func (c *estimateCache) Put(key string, est prophet.Estimate) {
	if c.perShard <= 0 {
		return
	}
	s := c.shard(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.m[key]; ok {
		el.Value.(*cacheItem).est = est
		s.ll.MoveToFront(el)
		return
	}
	s.m[key] = s.ll.PushFront(&cacheItem{key: key, est: est})
	if s.ll.Len() > c.perShard {
		back := s.ll.Back()
		s.ll.Remove(back)
		delete(s.m, back.Value.(*cacheItem).key)
		c.evictions.Inc()
	}
}

// Len returns the total number of cached entries across shards.
func (c *estimateCache) Len() int {
	n := 0
	for _, s := range c.shards {
		s.mu.Lock()
		n += s.ll.Len()
		s.mu.Unlock()
	}
	return n
}
