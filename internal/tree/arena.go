package tree

// Arena is a bump allocator for Nodes, for callers that build and discard
// many program trees in a row (repeated profiling runs, benchmarks,
// throwaway validation samples). Nodes are handed out from fixed-size
// chunks, so pointers returned by New stay valid as the arena grows, and
// Reset recycles all of them at once — including each node's Children
// backing array — so a steady-state profile-discard loop stops allocating
// node storage entirely.
//
// Lifetime contract: every Node obtained from an Arena (directly via New
// or transitively via Clone) is valid only until the next Reset. Do NOT
// hand arena-backed trees to anything that retains them beyond the
// caller's control — e.g. the experiments profile caches — unless the
// arena itself lives at least as long. The default profiling path
// (trace.Profile, prophet.ProfileProgramCtx) never uses an arena; it is
// strictly opt-in.
//
// An Arena is not safe for concurrent use. A nil *Arena is valid and
// falls back to ordinary heap allocation, so call sites need no branches.
type Arena struct {
	chunks [][]Node
	ci     int // chunk currently being filled
	used   int // nodes handed out from chunks[ci]
	total  int // nodes handed out since the last Reset
}

// arenaChunkSize balances waste (last chunk partially used) against
// allocation frequency; 256 nodes ≈ 30 KiB per chunk.
const arenaChunkSize = 256

// NewArena returns an empty arena. Storage is allocated lazily on first
// use and retained across Reset.
func NewArena() *Arena { return &Arena{} }

// New returns a zeroed Node from the arena, valid until the next Reset.
// On a nil receiver it heap-allocates, so a nil *Arena behaves like "no
// arena" at every call site. A recycled node may carry a non-nil empty
// Children slice (retained capacity); callers must treat it exactly like
// a fresh zero Node and only append.
func (a *Arena) New() *Node {
	if a == nil {
		return &Node{}
	}
	if a.ci == len(a.chunks) {
		a.chunks = append(a.chunks, make([]Node, arenaChunkSize))
	}
	c := a.chunks[a.ci]
	n := &c[a.used]
	a.used++
	a.total++
	if a.used == len(c) {
		a.ci++
		a.used = 0
	}
	return n
}

// Clone deep-copies the subtree rooted at n with all copies drawn from
// the arena (Node.Clone's arena-backed equivalent). On a nil receiver it
// defers to n.Clone.
func (a *Arena) Clone(n *Node) *Node {
	if a == nil {
		return n.Clone()
	}
	cp := a.New()
	kids := cp.Children // recycled backing array, if any
	*cp = *n
	if n.Counters != nil {
		s := *n.Counters
		cp.Counters = &s
	}
	if n.Burden != nil {
		cp.Burden = make(map[int]float64, len(n.Burden))
		for k, v := range n.Burden {
			cp.Burden[k] = v
		}
	}
	kids = kids[:0]
	for _, c := range n.Children {
		kids = append(kids, a.Clone(c))
	}
	cp.Children = kids
	return cp
}

// Reset invalidates every node handed out so far and makes their storage
// available again. Chunks are kept, and each recycled node keeps its
// Children backing array (truncated to length zero), so a repeated
// build-discard cycle reaches a fixed point with no allocation. Safe on a
// nil receiver.
func (a *Arena) Reset() {
	if a == nil {
		return
	}
	for i := 0; i <= a.ci && i < len(a.chunks); i++ {
		c := a.chunks[i]
		limit := len(c)
		if i == a.ci {
			limit = a.used
		}
		for j := 0; j < limit; j++ {
			ch := c[j].Children
			if ch != nil {
				ch = ch[:0]
			}
			c[j] = Node{Children: ch}
		}
	}
	a.ci, a.used, a.total = 0, 0, 0
}

// Allocated reports the number of nodes handed out since the last Reset.
func (a *Arena) Allocated() int {
	if a == nil {
		return 0
	}
	return a.total
}
