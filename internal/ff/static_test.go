package ff

import (
	"math/rand"
	"testing"

	"prophet/internal/clock"
	"prophet/internal/omprt"
	"prophet/internal/tree"
)

// randomFlatSection builds a flat section: Repeat-compressed tasks of
// zero to three U/W segments (some zero-length, some repeated), with the
// occasional non-Task child the emulator must skip.
func randomFlatSection(rng *rand.Rand) *tree.Node {
	sec := tree.NewSec("s")
	for i, n := 0, rng.Intn(10); i < n; i++ {
		if rng.Intn(12) == 0 {
			sec.Children = append(sec.Children, tree.NewU(clock.Cycles(rng.Intn(500))))
			continue
		}
		task := tree.NewTask("t")
		for j, m := 0, rng.Intn(4); j < m; j++ {
			l := clock.Cycles(rng.Intn(5000))
			if rng.Intn(5) == 0 {
				l = 0
			}
			seg := tree.NewU(l)
			if rng.Intn(4) == 0 {
				seg = &tree.Node{Kind: tree.W, Len: l}
			}
			seg.Repeat = rng.Intn(4)
			task.Children = append(task.Children, seg)
		}
		switch rng.Intn(4) {
		case 0:
			task.Repeat = 0
		case 1:
			task.Repeat = 1 + rng.Intn(8)
		case 2:
			task.Repeat = 1 + rng.Intn(60)
		default:
			task.Repeat = 1 + rng.Intn(400)
		}
		sec.Children = append(sec.Children, task)
	}
	return sec
}

var equivScheds = []omprt.Sched{
	omprt.SchedStatic,
	omprt.SchedStatic1,
	{Kind: omprt.StaticChunk, Chunk: 3},
	{Kind: omprt.StaticChunk, Chunk: 0},
	{Kind: omprt.StaticChunk, Chunk: 1 << 62},
	omprt.SchedDynamic1,
	{Kind: omprt.Dynamic, Chunk: 4},
	{Kind: omprt.Guided},
}

// newTestState is a state as emulateTopSection prepares it.
func newTestState(p int, burden float64, speeds []float64, ov omprt.Overheads, sched omprt.Sched) *state {
	st := &state{}
	st.init(p, burden, speeds, ov, sched, nil, nil)
	return st
}

// checkFlatEquivalent compares emulateSection (closed form for static,
// whole-task heap visits for dynamic/guided) on a flat section with the
// per-segment heap walk.
func checkFlatEquivalent(t *testing.T, sec *tree.Node, start clock.Cycles, p int, burden float64, speeds []float64, ov omprt.Overheads, sched omprt.Sched) {
	t.Helper()
	if _, flat := flatShape(sec); !flat {
		t.Fatalf("generated section is not flat:\n%v", sec)
	}
	got := emulateSection(newTestState(p, burden, speeds, ov, sched), sec, start, p)
	want := emulateHeap(newTestState(p, burden, speeds, ov, sched), sec, start, p, false)
	if got != want {
		t.Fatalf("%v p=%d burden=%g speeds=%v start=%d: fast path %d, heap %d\n%v",
			sched, p, burden, speeds, start, got, want, sec)
	}
}

// TestFlatFastPathsMatchHeap is the equivalence property behind the flat
// fast paths: on seeded random flat sections, the static closed form and
// the dynamic/guided whole-task visits give exactly the per-segment heap
// walk's duration, across thread counts above and below the task count,
// burden factors, heterogeneous CPU speeds and overheads.
func TestFlatFastPathsMatchHeap(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	speedSets := [][]float64{nil, {1, 1, 0.5, 0.5}}
	ovs := []omprt.Overheads{{}, omprt.DefaultOverheads()}
	for i := 0; i < 3000; i++ {
		sec := randomFlatSection(rng)
		p := 1 + rng.Intn(13)
		burden := 1.0
		if rng.Intn(2) == 0 {
			burden = 1 + rng.Float64()
		}
		start := clock.Cycles(0)
		if rng.Intn(3) == 0 {
			start = clock.Cycles(rng.Intn(100_000))
		}
		speeds := speedSets[rng.Intn(len(speedSets))]
		ov := ovs[rng.Intn(len(ovs))]
		for _, sched := range equivScheds {
			checkFlatEquivalent(t, sec, start, p, burden, speeds, ov, sched)
		}
	}
}

// TestFlatShape pins which sections take the fast paths.
func TestFlatShape(t *testing.T) {
	task := func(segs ...*tree.Node) *tree.Node { return tree.NewTask("t", segs...) }
	cases := []struct {
		sec  *tree.Node
		n    int
		flat bool
	}{
		{tree.NewSec("empty"), 0, true},
		{tree.NewSec("u", task(tree.NewU(1), &tree.Node{Kind: tree.W, Len: 2}), task()), 2, true},
		{tree.NewSec("lock", task(tree.NewU(1)), task(tree.NewL(1, 2))), 2, false},
		{tree.NewSec("nested", task(tree.NewSec("in", task(tree.NewU(1))))), 1, false},
	}
	for _, c := range cases {
		c.sec.Children = append(c.sec.Children, tree.NewU(5)) // non-Task children are skipped
		if n, flat := flatShape(c.sec); n != c.n || flat != c.flat {
			t.Errorf("%s: flatShape = (%d, %v), want (%d, %v)", c.sec.Name, n, flat, c.n, c.flat)
		}
	}
}

// FuzzFFStaticClosedForm drives the flat-section equivalence property
// with fuzzer-chosen trees, thread counts and schedules.
func FuzzFFStaticClosedForm(f *testing.F) {
	f.Add(int64(1), uint8(4), uint8(0), false)
	f.Add(int64(2), uint8(13), uint8(1), true)
	f.Add(int64(3), uint8(3), uint8(3), false)
	f.Fuzz(func(t *testing.T, seed int64, p, sched uint8, hetero bool) {
		rng := rand.New(rand.NewSource(seed))
		sec := randomFlatSection(rng)
		var speeds []float64
		if hetero {
			speeds = []float64{1, 1, 0.5, 0.5}
		}
		s := equivScheds[int(sched)%len(equivScheds)]
		checkFlatEquivalent(t, sec, 0, 1+int(p)%16, 1+rng.Float64(), speeds, omprt.DefaultOverheads(), s)
	})
}
