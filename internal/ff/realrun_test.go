package ff_test

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"prophet/internal/clock"
	"prophet/internal/ff"
	"prophet/internal/omprt"
	"prophet/internal/realrun"
	"prophet/internal/sim"
	"prophet/internal/synth"
	"prophet/internal/tree"
)

// TestFFMatchesRealOnFlatSections is the differential test of the FF's
// schedule replay and charges against the OpenMP runtime it models, and
// of the synthesizer against the ground truth it shares a program with: a
// flat section (tasks of U segments only) on no more threads than cores
// has no lock, nesting, time slicing or memory contention left to model,
// so at the runtime's default overheads the FF's pseudo-clock and the
// synthesizer's machine run must both reproduce the ground truth's
// makespan exactly. Every schedule kind is covered, with chunks from 1 to
// one past the loop and 1<<62.
func TestFFMatchesRealOnFlatSections(t *testing.T) {
	type miss struct {
		count int
		first string
	}
	misses := map[omprt.Sched]*miss{}
	var order []omprt.Sched
	const sections = 200
	rng := rand.New(rand.NewSource(27))
	for s := 0; s < sections; s++ {
		root, n := flatProgram(rng)
		threads := 1 + rng.Intn(8)
		check := func(sched, key omprt.Sched) {
			pred, syn, real, err := ffSynthAndReal(root, threads, sched)
			if err == nil && pred == real && syn == real {
				return
			}
			m := misses[key]
			if m == nil {
				m = &miss{first: fmt.Sprintf("section %d (%d tasks, %d threads): FF %d, Synthesizer %d, Real %d (err %v)", s, n, threads, pred, syn, real, err)}
				misses[key] = m
				order = append(order, key)
			}
			m.count++
		}
		check(omprt.SchedStatic, omprt.SchedStatic)
		for j, c := range []int{1, 3, 4, n + 1, 1 << 62} {
			for _, kind := range []omprt.ScheduleKind{omprt.StaticChunk, omprt.Dynamic, omprt.Guided} {
				sched, key := omprt.Sched{Kind: kind, Chunk: c}, omprt.Sched{Kind: kind, Chunk: c}
				if j == 3 {
					key.Chunk = -1 // group "one past the loop" across sections
				}
				check(sched, key)
			}
		}
	}
	for _, sched := range order {
		name := sched.String()
		if sched.Kind == omprt.Guided {
			name = fmt.Sprintf("(guided) chunk %d", sched.Chunk)
		}
		if sched.Chunk == -1 {
			name = map[omprt.ScheduleKind]string{omprt.StaticChunk: "(static,n+1)", omprt.Dynamic: "(dynamic,n+1)", omprt.Guided: "(guided) chunk n+1"}[sched.Kind]
		}
		m := misses[sched]
		t.Errorf("%s: FF or Synthesizer != Real on %d of %d sections; first %s", name, m.count, sections, m.first)
	}
}

// FuzzFFMatchesReal drives the same three-way check from fuzz input: a
// flat section drawn from the bytes, 1 to 8 threads, any schedule kind
// and chunk.
func FuzzFFMatchesReal(f *testing.F) {
	f.Add(uint8(0), uint8(0), int64(0), []byte{})
	f.Add(uint8(2), uint8(3), int64(3), []byte{40, 2, 7, 9, 1, 3, 0, 200, 5, 2, 11, 4})
	f.Add(uint8(7), uint8(1), int64(1<<62), []byte{79, 1, 30, 3, 2, 8, 16})
	f.Fuzz(func(t *testing.T, threads8, kind8 uint8, chunk int64, data []byte) {
		root, n := flatProgram(&byteSource{data: data})
		threads := 1 + int(threads8)%8
		sched := omprt.Sched{Kind: omprt.ScheduleKind(kind8 % 4), Chunk: int(chunk & math.MaxInt64)}
		pred, syn, real, err := ffSynthAndReal(root, threads, sched)
		if err != nil || pred != real || syn != real {
			t.Fatalf("%v, %d tasks, %d threads: FF %d, Synthesizer %d, Real %d (err %v)", sched, n, threads, pred, syn, real, err)
		}
	})
}

// source is what flatProgram draws from: a seeded *rand.Rand, or the
// fuzzer's bytes.
type source interface{ Intn(n int) int }

// byteSource draws from fuzz input; it reads zeros once the input ends.
type byteSource struct{ data []byte }

func (b *byteSource) Intn(n int) int {
	if len(b.data) == 0 {
		return 0
	}
	v := int(b.data[0])
	b.data = b.data[1:]
	return v % n
}

// flatProgram draws a program of one flat section of 1 to 80 logical
// tasks, each of 1 to 3 U segments, with Repeat-compressed runs, and
// returns it with its task count.
func flatProgram(src source) (root *tree.Node, n int) {
	sec := tree.NewSec("loop")
	for want := 1 + src.Intn(80); n < want; {
		segs := make([]*tree.Node, 1+src.Intn(3))
		for i := range segs {
			segs[i] = tree.NewU(clock.Cycles(1000 + src.Intn(50_000)))
		}
		task := tree.NewTask("it", segs...)
		task.Repeat = min(1+src.Intn(4), want-n)
		sec.Children = append(sec.Children, task)
		n += task.Repeat
	}
	return tree.NewRoot(sec), n
}

// ffSynthAndReal returns the FF's prediction, the synthesizer's (without
// burden factors) and the ground truth for root at the runtime's default
// overheads, on the 12-core default machine (threads <= 8). A run that
// wraps its loop counter around would spin: the event budget ends it.
func ffSynthAndReal(root *tree.Node, threads int, sched omprt.Sched) (pred, syn, real clock.Cycles, err error) {
	ctx := context.Background()
	ov := omprt.DefaultOverheads()
	machine := sim.Config{MaxEvents: 1_000_000}
	e := &ff.Emulator{Threads: threads, Sched: sched, Ov: ov}
	if pred, err = e.PredictTimeCtx(ctx, root); err != nil {
		return 0, 0, 0, err
	}
	s := &synth.Synthesizer{Threads: threads, Sched: sched, Machine: machine, OmpOv: ov}
	if syn, err = s.PredictTimeCtx(ctx, root); err != nil {
		return 0, 0, 0, err
	}
	real, err = realrun.TimeCtx(ctx, root, realrun.Config{Machine: machine, Threads: threads, Sched: sched, OmpOv: &ov})
	return pred, syn, real, err
}
