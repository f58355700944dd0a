package mem

import "prophet/internal/machine"

// Cache is a set-associative LRU last-level cache simulator. The paper's
// tool reads LLC-miss counters instead of simulating (for speed); this
// reproduction uses the simulator only *offline*, when deriving the
// per-segment miss counts of the benchmark cost models from their access
// patterns (internal/workloads). It is not on the profiling fast path, so
// the paper's overhead story is preserved.
type Cache struct {
	sets     int
	ways     int
	lineBits uint
	// lines[set][way] holds the tag; lru[set][way] the recency stamp.
	lines [][]uint64
	lru   [][]uint64
	tick  uint64

	accesses int64
	misses   int64
}

// NewCache builds a cache simulator sized by a validated machine-spec LLC.
func NewCache(llc machine.LLCSpec) *Cache {
	lineBits := uint(0)
	for 1<<lineBits < llc.LineBytes {
		lineBits++
	}
	sets := int(llc.SizeBytes / int64(llc.Ways) / int64(llc.LineBytes))
	if sets < 1 {
		sets = 1
	}
	c := &Cache{sets: sets, ways: llc.Ways, lineBits: lineBits}
	c.lines = make([][]uint64, sets)
	c.lru = make([][]uint64, sets)
	for i := range c.lines {
		c.lines[i] = make([]uint64, llc.Ways)
		c.lru[i] = make([]uint64, llc.Ways)
		for w := range c.lines[i] {
			c.lines[i][w] = ^uint64(0) // invalid
		}
	}
	return c
}

// Sets returns the number of sets (for tests).
func (c *Cache) Sets() int { return c.sets }

// Access touches the byte address and returns true on a hit.
func (c *Cache) Access(addr uint64) bool {
	c.accesses++
	c.tick++
	line := addr >> c.lineBits
	set := int(line % uint64(c.sets))
	tag := line / uint64(c.sets)
	ways := c.lines[set]
	for w, t := range ways {
		if t == tag {
			c.lru[set][w] = c.tick
			return true
		}
	}
	c.misses++
	// Evict LRU.
	victim := 0
	oldest := c.lru[set][0]
	for w := 1; w < c.ways; w++ {
		if c.lru[set][w] < oldest {
			oldest = c.lru[set][w]
			victim = w
		}
	}
	ways[victim] = tag
	c.lru[set][victim] = c.tick
	return false
}

// Stats returns (accesses, misses) so far.
func (c *Cache) Stats() (accesses, misses int64) { return c.accesses, c.misses }

// MissRate returns misses/accesses (0 when no accesses yet).
func (c *Cache) MissRate() float64 {
	if c.accesses == 0 {
		return 0
	}
	return float64(c.misses) / float64(c.accesses)
}

// Reset clears statistics but keeps cache contents (for warm-up protocols).
func (c *Cache) Reset() { c.accesses, c.misses = 0, 0 }

// StreamMissRate estimates the steady-state LLC miss rate of a repeated
// sequential sweep over footprintBytes with the given byte stride. This is
// the offline helper the benchmark cost models use: it warms the cache with
// one sweep and measures a second.
func StreamMissRate(llc machine.LLCSpec, footprintBytes int64, stride int) float64 {
	if stride <= 0 {
		stride = 8
	}
	if footprintBytes <= 0 {
		return 0
	}
	c := NewCache(llc)
	sweep := func() {
		for a := int64(0); a < footprintBytes; a += int64(stride) {
			c.Access(uint64(a))
		}
	}
	sweep() // warm
	c.Reset()
	sweep() // measure
	return c.MissRate()
}
