package omprt

import (
	"math"
	"testing"

	"prophet/internal/sim"
)

// planScheds are the static schedules TestStaticPlanMatchesQueues walks,
// including a zero chunk (read as 1) and a chunk far past any loop.
var planScheds = []Sched{
	SchedStatic,
	SchedStatic1,
	{Kind: StaticChunk, Chunk: 3},
	{Kind: StaticChunk, Chunk: 0},
	{Kind: StaticChunk, Chunk: 1 << 62},
}

// TestStaticPlanMatchesQueues checks the static plan against materialized
// queues: thread k's ranges, in order, are the contiguous block (static)
// or every nt-th chunk (static,c), and owner counts over any range agree
// with them.
func TestStaticPlanMatchesQueues(t *testing.T) {
	for n := 1; n <= 40; n++ {
		for nt := 1; nt <= n && nt <= 13; nt++ {
			for _, sched := range planScheds {
				plan := NewPlan(sched, n, nt)
				owner := make([]int, n)
				for k := 0; k < nt; k++ {
					var queue []int
					if sched.Kind == Static {
						lo := k*(n/nt) + min(k, n%nt)
						hi := lo + n/nt
						if k < n%nt {
							hi++
						}
						for i := lo; i < hi; i++ {
							queue = append(queue, i)
						}
					} else {
						// Chunks past the loop end change nothing;
						// capping at n keeps lo from overflowing.
						c := min(max(sched.Chunk, 1), n)
						for lo := k * c; lo < n; lo += nt * c {
							for i := lo; i < min(lo+c, n); i++ {
								queue = append(queue, i)
							}
						}
					}
					if got := rangesOf(plan, k); !equalInts(got, queue) {
						t.Fatalf("%v n=%d nt=%d: thread %d runs %v, want %v", sched, n, nt, k, got, queue)
					}
					for _, i := range queue {
						owner[i] = k
					}
				}
				for a := 0; a < n; a++ {
					for b := a + 1; b <= n; b++ {
						checkOwnerCounts(t, plan, owner, a, b)
					}
				}
			}
		}
	}
}

// rangesOf lists thread k's iterations in the order its static ranges
// hand them out.
func rangesOf(plan Plan, k int) []int {
	var out []int
	for j := 0; ; j++ {
		lo, hi, ok := plan.Range(k, j)
		if !ok {
			return out
		}
		for i := lo; i < hi; i++ {
			out = append(out, i)
		}
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// checkOwnerCounts checks EachOwner over [a, b) against an owner map.
func checkOwnerCounts(t *testing.T, plan Plan, owner []int, a, b int) {
	t.Helper()
	counts := make([]int, plan.Threads())
	plan.EachOwner(a, b, func(k, count int) {
		if count <= 0 {
			t.Fatalf("[%d,%d): EachOwner reported thread %d with count %d", a, b, k, count)
		}
		counts[k] += count
	})
	for i := a; i < b; i++ {
		counts[owner[i]]--
	}
	for k, c := range counts {
		if c != 0 {
			t.Fatalf("[%d,%d): thread %d count off by %d", a, b, k, c)
		}
	}
}

// FuzzSchedulePlan checks the plan of every schedule kind against a
// brute-force definition, for chunks up to 1<<62: each static iteration
// has the owner the OpenMP rule names, each dynamic/guided fetch claims
// the chunk the rule names, and the simulated runtime runs every
// iteration exactly once.
func FuzzSchedulePlan(f *testing.F) {
	f.Add(uint8(10), uint8(4), uint8(StaticChunk), int64(1<<62))
	f.Add(uint8(10), uint8(4), uint8(Dynamic), int64(1<<62))
	f.Add(uint8(97), uint8(5), uint8(Guided), int64(3))
	f.Add(uint8(40), uint8(7), uint8(Static), int64(0))
	f.Fuzz(func(t *testing.T, n8, nt8, kind8 uint8, chunk64 int64) {
		n, nt := int(n8), 1+int(nt8)%16
		chunk := int(chunk64 & math.MaxInt64)
		sched := Sched{Kind: ScheduleKind(kind8 % 4), Chunk: chunk}
		plan := NewPlan(sched, n, nt)
		if want := min(nt, max(n, 1)); plan.Threads() != want {
			t.Fatalf("%v n=%d: Threads() = %d, want %d", sched, n, plan.Threads(), want)
		}
		nt = plan.Threads()
		c := max(chunk, 1)

		if plan.Static() {
			owner := make([]int, n)
			for i := range owner {
				if sched.Kind == Static {
					// Blocks of n/nt, the first n%nt one longer.
					for k, lo := 0, 0; k < nt; k++ {
						hi := lo + n/nt
						if k < n%nt {
							hi++
						}
						if i >= lo && i < hi {
							owner[i] = k
						}
						lo = hi
					}
				} else {
					owner[i] = (i / c) % nt
				}
			}
			for k := 0; k < nt; k++ {
				var want []int
				for i, o := range owner {
					if o == k {
						want = append(want, i)
					}
				}
				if got := rangesOf(plan, k); !equalInts(got, want) {
					t.Fatalf("%v n=%d nt=%d: thread %d runs %v, want %v", sched, n, nt, k, got, want)
				}
			}
			if n > 0 {
				checkOwnerCounts(t, plan, owner, 0, n)
				checkOwnerCounts(t, plan, owner, n/3, n-n/4)
			}
		} else {
			next := 0
			for {
				hi, ok := plan.Take(next)
				if !ok {
					break
				}
				remaining := n - next
				size := c
				if sched.Kind == Guided {
					size = max(c, remaining/(2*nt))
				}
				if want := next + min(size, remaining); hi != want {
					t.Fatalf("%v n=%d nt=%d: Take(%d) = %d, want %d", sched, n, nt, next, hi, want)
				}
				next = hi
			}
			if next != n {
				t.Fatalf("%v n=%d nt=%d: fetches stop at %d", sched, n, nt, next)
			}
		}

		seen := make([]int, n)
		rt := New(nt, zeroOv)
		mustRun(t, mcfg(4), func(th *sim.Thread) {
			rt.ParallelFor(th, n, sched, func(w *sim.Thread, i int) {
				seen[i]++
				w.Work(10)
			})
		})
		for i, k := range seen {
			if k != 1 {
				t.Fatalf("%v n=%d nt=%d: iteration %d ran %d times", sched, n, nt, i, k)
			}
		}
	})
}
