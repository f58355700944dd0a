package omprt

// Plan is the iteration-to-thread assignment of one parallel loop of n
// iterations on a team of nt threads: the one definition of the schedule
// rules, shared by this runtime, the host runtime (internal/hostexec) and
// the FF (internal/ff).
//
// (static) gives thread k one contiguous block, the first n%nt blocks one
// iteration longer. (static,c) deals chunks of c iterations round-robin,
// so iteration i belongs to thread (i/c) % nt. (dynamic,c) hands out
// chunks of c first-come first-served, and (guided) hands out
// remaining/(2·nt) iterations, never fewer than c. A chunk longer than the
// loop is the loop: c is clamped to [1, n], which moves no iteration and
// keeps every index the plan computes below 2n.
//
// Static threads walk their own ranges with Range; dynamic and guided
// threads claim ranges from a shared counter with Take.
type Plan struct {
	kind      ScheduleKind
	n, nt     int
	base, rem int // (static): block length and count of longer blocks
	c, chunks int // chunk length, clamped to [1, n], and ⌈n/c⌉
}

// NewPlan returns sched's plan for n iterations on nt threads. The team is
// clamped to [1, n]: a thread beyond the iteration count would get none.
func NewPlan(sched Sched, n, nt int) Plan {
	nt = min(max(nt, 1), max(n, 1))
	c := min(max(sched.Chunk, 1), max(n, 1))
	return Plan{kind: sched.Kind, n: n, nt: nt, base: n / nt, rem: n % nt, c: c, chunks: (n + c - 1) / c}
}

// Threads returns the clamped team size.
func (p Plan) Threads() int { return p.nt }

// Static reports whether iterations are assigned ahead of time (Range)
// rather than fetched from a shared counter (Take).
func (p Plan) Static() bool { return p.kind == Static || p.kind == StaticChunk }

// Range returns thread k's j-th range [lo, hi) under a static schedule; ok
// is false once the thread's share is exhausted. (static) has at most one
// range per thread.
func (p Plan) Range(k, j int) (lo, hi int, ok bool) {
	if p.kind == Static {
		lo, hi = p.block(k)
		return lo, hi, j == 0 && lo < hi
	}
	if q := j*p.nt + k; q < p.chunks {
		lo = q * p.c
		return lo, min(lo+p.c, p.n), true
	}
	return 0, 0, false
}

// Take returns the end of the range a dynamic or guided fetch claims when
// next is the first unclaimed iteration: the fetch runs [next, hi). ok is
// false once the loop is exhausted. hi never passes n, so a shared counter
// advanced to hi cannot overflow.
func (p Plan) Take(next int) (hi int, ok bool) {
	if next >= p.n {
		return p.n, false
	}
	remaining := p.n - next
	if p.kind != Guided {
		return next + min(p.c, remaining), true
	}
	share := remaining / (2 * p.nt)
	return next + min(max(share, p.c), remaining), true
}

// block returns thread k's contiguous (static) range [lo, hi).
func (p Plan) block(k int) (lo, hi int) {
	lo = k*p.base + min(k, p.rem)
	hi = lo + p.base
	if k < p.rem {
		hi++
	}
	return lo, hi
}

// owner returns the thread that runs iteration i under (static).
func (p Plan) owner(i int) int {
	if long := p.rem * (p.base + 1); i < long {
		return i / (p.base + 1)
	}
	return p.rem + (i-p.rem*(p.base+1))/p.base
}

// below returns how many of thread k's (static,c) iterations lie in [0, x).
func (p Plan) below(k, x int) int {
	cycle := p.c * p.nt
	return (x/cycle)*p.c + min(max(x%cycle-k*p.c, 0), p.c)
}

// EachOwner calls fn(k, count) for every thread that owns count > 0 of the
// iterations in [a, b) under a static schedule, visiting
// O(min(owners, nt)) threads.
func (p Plan) EachOwner(a, b int, fn func(k, count int)) {
	if p.kind == Static {
		for k, last := p.owner(a), p.owner(b-1); k <= last; k++ {
			lo, hi := p.block(k)
			fn(k, min(hi, b)-max(lo, a))
		}
		return
	}
	qa, qb := a/p.c, (b-1)/p.c
	if qb-qa+1 < p.nt {
		// Fewer chunks than threads: each touched chunk has its own owner.
		for q := qa; q <= qb; q++ {
			k := q % p.nt
			fn(k, p.below(k, b)-p.below(k, a))
		}
		return
	}
	for k := 0; k < p.nt; k++ {
		fn(k, p.below(k, b)-p.below(k, a))
	}
}
