package ff_test

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"prophet/internal/clock"
	"prophet/internal/ff"
	"prophet/internal/omprt"
	"prophet/internal/realrun"
	"prophet/internal/sim"
	"prophet/internal/tree"
)

// TestFFMatchesRealOnFlatSections is the differential test of the FF's
// schedule replay against the OpenMP runtime it models: with zero runtime
// overheads, a flat section (tasks of U segments only) on no more threads
// than cores has no lock, nesting, time slicing or memory contention left
// to model, so the FF's pseudo-clock must reproduce the simulated
// machine's makespan exactly. Every static and dynamic chunk is covered,
// from 1 to one past the loop and 1<<62.
//
// (guided) is left out: the FF fetches guided work one task at a time and
// amortizes the dispatch over the chunk the runtime would hand out, while
// the runtime runs the whole chunk on one thread, so the two assign tasks
// to threads differently even at zero overhead.
func TestFFMatchesRealOnFlatSections(t *testing.T) {
	// The 12-core default machine; threads <= 8. A run that wraps its
	// loop counter around would spin: the event budget ends it.
	mc := sim.Config{MaxEvents: 1_000_000}
	var zero omprt.Overheads
	type miss struct {
		count int
		first string
	}
	misses := map[omprt.Sched]*miss{}
	var order []omprt.Sched
	const sections = 200
	rng := rand.New(rand.NewSource(27))
	for s := 0; s < sections; s++ {
		sec := tree.NewSec("loop")
		n := 0
		for want := 1 + rng.Intn(80); n < want; {
			segs := make([]*tree.Node, 1+rng.Intn(3))
			for i := range segs {
				segs[i] = tree.NewU(clock.Cycles(1000 + rng.Intn(50_000)))
			}
			task := tree.NewTask("it", segs...)
			task.Repeat = min(1+rng.Intn(4), want-n)
			sec.Children = append(sec.Children, task)
			n += task.Repeat
		}
		root := tree.NewRoot(sec)
		threads := 1 + rng.Intn(8)
		for _, c := range []int{1, 3, 4, n + 1, 1 << 62} {
			for _, sched := range []omprt.Sched{
				omprt.SchedStatic,
				{Kind: omprt.StaticChunk, Chunk: c},
				{Kind: omprt.Dynamic, Chunk: c},
			} {
				e := &ff.Emulator{Threads: threads, Sched: sched, Ov: zero}
				pred, err := e.PredictTimeCtx(context.Background(), root)
				if err != nil {
					t.Fatal(err)
				}
				real, err := realrun.TimeCtx(context.Background(), root, realrun.Config{
					Machine: mc, Threads: threads, Sched: sched, OmpOv: &zero,
				})
				if err == nil && pred == real {
					continue
				}
				if c == n+1 {
					sched.Chunk = -1 // group "one past the loop" across sections
				}
				m := misses[sched]
				if m == nil {
					m = &miss{first: fmt.Sprintf("section %d (%d tasks, %d threads): FF %d, Real %d (err %v)", s, n, threads, pred, real, err)}
					misses[sched] = m
					order = append(order, sched)
				}
				m.count++
			}
		}
	}
	for _, sched := range order {
		name := sched.String()
		if sched.Chunk == -1 {
			name = map[omprt.ScheduleKind]string{omprt.StaticChunk: "(static,n+1)", omprt.Dynamic: "(dynamic,n+1)"}[sched.Kind]
		}
		m := misses[sched]
		t.Errorf("%s: FF != Real on %d of %d sections; first %s", name, m.count, sections, m.first)
	}
}
