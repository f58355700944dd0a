package ff

import (
	"context"
	"math"
	"testing"

	"prophet/internal/clock"
	"prophet/internal/omprt"
	"prophet/internal/tree"
)

// figure5 builds the paper's Fig. 5 loop: three unequal iterations with a
// critical section, to be parallelized on a dual-core.
//
//	I0: U150  L450  U50   (650)
//	I1: U100  L300  U200  (600)
//	I2: U150  U50   U50   (250)
func figure5() *tree.Node {
	i0 := tree.NewTask("i0", tree.NewU(150), tree.NewL(1, 450), tree.NewU(50))
	i1 := tree.NewTask("i1", tree.NewU(100), tree.NewL(1, 300), tree.NewU(200))
	i2 := tree.NewTask("i2", tree.NewU(150), tree.NewU(50), tree.NewU(50))
	return tree.NewRoot(tree.NewSec("loop", i0, i1, i2))
}

func emu(threads int, sched omprt.Sched) *Emulator {
	return &Emulator{Threads: threads, Sched: sched}
}

// mustTime is e.PredictTimeCtx, failing the test on an error.
func mustTime(t testing.TB, e *Emulator, root *tree.Node) clock.Cycles {
	t.Helper()
	d, err := e.PredictTimeCtx(context.Background(), root)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// mustSpeedup is e.SpeedupCtx, failing the test on an error.
func mustSpeedup(t testing.TB, e *Emulator, root *tree.Node) float64 {
	t.Helper()
	s, err := e.SpeedupCtx(context.Background(), root)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestFigure5Schedules reproduces the paper's Fig. 5 walkthrough with zero
// parallel overhead (the paper's ε): (static,1) -> 1150 cycles,
// (static) -> 1250, (dynamic,1) -> 900 (the paper quotes 950 because its ε
// includes dynamic-scheduling overhead; with ε = 0 the hand-computed
// makespan is 900).
func TestFigure5Schedules(t *testing.T) {
	root := figure5()
	serial := root.TotalLen()
	if serial != 1500 {
		t.Fatalf("serial length = %d, want 1500", serial)
	}
	cases := []struct {
		sched omprt.Sched
		want  clock.Cycles
	}{
		{omprt.SchedStatic1, 1150},
		{omprt.SchedStatic, 1250},
		{omprt.SchedDynamic1, 900},
	}
	for _, c := range cases {
		got := mustTime(t, emu(2, c.sched), root)
		if got != c.want {
			t.Errorf("%v: predicted = %d, want %d", c.sched, got, c.want)
		}
	}
	// Speedups as in the figure (ε=0): 1.30, 1.20, 1.67.
	if s := mustSpeedup(t, emu(2, omprt.SchedStatic1), root); math.Abs(s-1500.0/1150) > 1e-9 {
		t.Errorf("static,1 speedup = %g", s)
	}
}

// TestFigure5WithDynamicOverhead shows that charging the dynamic dispatch
// overhead moves the (dynamic,1) estimate toward the paper's 950 figure.
func TestFigure5WithDynamicOverhead(t *testing.T) {
	root := figure5()
	e := emu(2, omprt.SchedDynamic1)
	e.Ov = omprt.Overheads{Dispatch: 25}
	got := mustTime(t, e, root)
	if got <= 900 || got > 1000 {
		t.Fatalf("dynamic,1 with dispatch overhead = %d, want (900, 1000]", got)
	}
}

// figure7 builds the two-level nested tree of Fig. 7: an outer section of
// two tasks, each containing only a nested two-task section; lengths are
// 10/5 and 5/10 units (scaled so the numbers stay integral).
func figure7(scale clock.Cycles) *tree.Node {
	la := tree.NewSec("LoopA",
		tree.NewTask("a0", tree.NewU(10*scale)),
		tree.NewTask("a1", tree.NewU(5*scale)),
	)
	lb := tree.NewSec("LoopB",
		tree.NewTask("b0", tree.NewU(5*scale)),
		tree.NewTask("b1", tree.NewU(10*scale)),
	)
	return tree.NewRoot(tree.NewSec("Loop1",
		tree.NewTask("t0", la),
		tree.NewTask("t1", lb),
	))
}

// TestFigure7FFLimitation verifies the FF reproduces its documented
// limitation: predicted speedup 1.5 on a dual-core for the Fig. 7 tree
// whose real (preemptively scheduled) speedup is 2.0.
func TestFigure7FFLimitation(t *testing.T) {
	root := figure7(1)
	if root.TotalLen() != 30 {
		t.Fatalf("serial = %d, want 30", root.TotalLen())
	}
	got := mustTime(t, emu(2, omprt.SchedStatic1), root)
	if got != 20 {
		t.Fatalf("FF predicted %d, want 20 (speedup 1.5 as the paper reports)", got)
	}
	if s := mustSpeedup(t, emu(2, omprt.SchedStatic1), root); math.Abs(s-1.5) > 1e-9 {
		t.Fatalf("FF speedup = %g, want 1.5", s)
	}
}

func TestPerfectlyBalancedLoopScales(t *testing.T) {
	tasks := make([]*tree.Node, 12)
	for i := range tasks {
		tasks[i] = tree.NewTask("t", tree.NewU(10_000))
	}
	root := tree.NewRoot(tree.NewSec("s", tasks...))
	for _, p := range []int{1, 2, 3, 4, 6, 12} {
		s := mustSpeedup(t, emu(p, omprt.SchedStatic), root)
		if math.Abs(s-float64(p)) > 1e-9 {
			t.Errorf("p=%d: speedup = %g, want %d", p, s, p)
		}
	}
}

func TestAmdahlSerialFraction(t *testing.T) {
	// Half the program serial: speedup on many cores approaches 2.
	root := tree.NewRoot(
		tree.NewU(100_000),
		tree.NewSec("s",
			tree.NewTask("t", tree.NewU(25_000)),
			tree.NewTask("t", tree.NewU(25_000)),
			tree.NewTask("t", tree.NewU(25_000)),
			tree.NewTask("t", tree.NewU(25_000)),
		),
	)
	s := mustSpeedup(t, emu(4, omprt.SchedStatic), root)
	want := 200_000.0 / 125_000.0 // 1.6
	if math.Abs(s-want) > 1e-9 {
		t.Fatalf("speedup = %g, want %g", s, want)
	}
}

func TestBurdenFactorSlowsSection(t *testing.T) {
	tasks := make([]*tree.Node, 4)
	for i := range tasks {
		tasks[i] = tree.NewTask("t", tree.NewU(10_000))
	}
	sec := tree.NewSec("s", tasks...)
	sec.Burden = map[int]float64{4: 1.5}
	root := tree.NewRoot(sec)

	plain := emu(4, omprt.SchedStatic)
	plain.UseBurden = false
	if s := mustSpeedup(t, plain, root); math.Abs(s-4) > 1e-9 {
		t.Fatalf("Pred speedup = %g, want 4", s)
	}
	bur := emu(4, omprt.SchedStatic)
	bur.UseBurden = true
	if s := mustSpeedup(t, bur, root); math.Abs(s-4/1.5) > 1e-6 {
		t.Fatalf("PredM speedup = %g, want %g", s, 4/1.5)
	}
}

func TestRepeatCompressedTasksEmulate(t *testing.T) {
	// A compressed uniform loop must emulate identically to the expanded
	// one.
	expanded := make([]*tree.Node, 100)
	for i := range expanded {
		expanded[i] = tree.NewTask("t", tree.NewU(1_000))
	}
	rootA := tree.NewRoot(tree.NewSec("s", expanded...))
	ctask := tree.NewTask("t", tree.NewU(1_000))
	ctask.Repeat = 100
	rootB := tree.NewRoot(tree.NewSec("s", ctask))
	for _, sched := range []omprt.Sched{omprt.SchedStatic, omprt.SchedStatic1, omprt.SchedDynamic1} {
		a := mustTime(t, emu(8, sched), rootA)
		b := mustTime(t, emu(8, sched), rootB)
		if a != b {
			t.Errorf("%v: expanded %d != compressed %d", sched, a, b)
		}
	}
}

func TestRepeatedSegmentsInsideTask(t *testing.T) {
	// Compression can also produce repeated U segments inside a task.
	seg := tree.NewU(500)
	seg.Repeat = 4
	root := tree.NewRoot(tree.NewSec("s", tree.NewTask("t", seg)))
	got := mustTime(t, emu(1, omprt.SchedStatic), root)
	if got != 2_000 {
		t.Fatalf("predicted = %d, want 2000", got)
	}
}

func TestGuidedSchedule(t *testing.T) {
	tasks := make([]*tree.Node, 64)
	for i := range tasks {
		tasks[i] = tree.NewTask("t", tree.NewU(1_000))
	}
	root := tree.NewRoot(tree.NewSec("s", tasks...))
	s := mustSpeedup(t, emu(4, omprt.SchedGuided), root)
	if s < 3.5 || s > 4.0+1e-9 {
		t.Fatalf("guided speedup = %g, want ~4", s)
	}
}

func TestMoreThreadsThanTasks(t *testing.T) {
	root := tree.NewRoot(tree.NewSec("s",
		tree.NewTask("t", tree.NewU(1_000)),
		tree.NewTask("t", tree.NewU(1_000)),
	))
	s := mustSpeedup(t, emu(12, omprt.SchedStatic), root)
	if math.Abs(s-2) > 1e-9 {
		t.Fatalf("speedup = %g, want 2 (only 2 tasks)", s)
	}
}

func TestEmptyAndDegenerate(t *testing.T) {
	empty := tree.NewRoot()
	if got := mustTime(t, emu(4, omprt.SchedStatic), empty); got != 0 {
		t.Errorf("empty tree predicted %d", got)
	}
	if s := mustSpeedup(t, emu(4, omprt.SchedStatic), empty); s != 1 {
		t.Errorf("empty tree speedup %g", s)
	}
	emptySec := tree.NewRoot(tree.NewSec("s"))
	if got := mustTime(t, emu(4, omprt.SchedStatic), emptySec); got != 0 {
		t.Errorf("empty section predicted %d", got)
	}
	zeroThreads := &Emulator{Threads: 0, Sched: omprt.SchedStatic}
	one := tree.NewRoot(tree.NewSec("s", tree.NewTask("t", tree.NewU(100))))
	if got := mustTime(t, zeroThreads, one); got != 100 {
		t.Errorf("0-thread emulator predicted %d, want 100", got)
	}
}

func TestOverheadsReduceSpeedup(t *testing.T) {
	tasks := make([]*tree.Node, 1000)
	for i := range tasks {
		tasks[i] = tree.NewTask("t", tree.NewU(500))
	}
	root := tree.NewRoot(tree.NewSec("s", tasks...))
	ideal := mustSpeedup(t, emu(4, omprt.SchedDynamic1), root)
	loaded := &Emulator{Threads: 4, Sched: omprt.SchedDynamic1, Ov: omprt.DefaultOverheads()}
	s := mustSpeedup(t, loaded, root)
	if s >= ideal {
		t.Fatalf("overheads did not reduce speedup: %g vs %g", s, ideal)
	}
	// With 150-cycle dispatch per 500-cycle task, efficiency drops hard.
	if s > 3.5 {
		t.Errorf("tiny-task speedup = %g, want visibly degraded", s)
	}
}

func TestLockContentionLimitsSpeedup(t *testing.T) {
	// Every task spends 80% of its time in the same lock: speedup is
	// bounded near 1/0.8 regardless of thread count.
	tasks := make([]*tree.Node, 24)
	for i := range tasks {
		tasks[i] = tree.NewTask("t", tree.NewU(200), tree.NewL(1, 800))
	}
	root := tree.NewRoot(tree.NewSec("s", tasks...))
	s := mustSpeedup(t, emu(12, omprt.SchedStatic1), root)
	if s > 1.3 {
		t.Fatalf("lock-bound speedup = %g, want <= ~1.25", s)
	}
	if s < 1.0 {
		t.Fatalf("speedup below 1: %g", s)
	}
}

func TestMultipleLocksIndependent(t *testing.T) {
	// Two disjoint locks: pairs of tasks serialize within their lock but
	// the two pairs run in parallel.
	mk := func(lock int) *tree.Node {
		return tree.NewTask("t", tree.NewL(lock, 1_000))
	}
	root := tree.NewRoot(tree.NewSec("s", mk(1), mk(2), mk(1), mk(2)))
	got := mustTime(t, emu(4, omprt.SchedStatic1), root)
	if got != 2_000 {
		t.Fatalf("two-lock makespan = %d, want 2000", got)
	}
}

func TestMultipleTopLevelSections(t *testing.T) {
	sec := func() *tree.Node {
		return tree.NewSec("s",
			tree.NewTask("t", tree.NewU(1_000)),
			tree.NewTask("t", tree.NewU(1_000)),
		)
	}
	root := tree.NewRoot(tree.NewU(500), sec(), tree.NewU(500), sec())
	got := mustTime(t, emu(2, omprt.SchedStatic), root)
	// Each section halves to 1000; serial parts stay: 500+1000+500+1000.
	if got != 3_000 {
		t.Fatalf("predicted = %d, want 3000", got)
	}
}

// TestSpeedsHeterogeneous: per-CPU speed ratios scale computation on the
// abstract CPUs. With zero overheads and (static,1) on two CPUs, Fig. 5's
// iterations land I0,I2 on CPU 0 and I1 on CPU 1; doubling CPU 0's clock
// halves its work, and nil Speeds stays bit-identical to the legacy path.
func TestSpeedsHeterogeneous(t *testing.T) {
	root := figure5()
	base := mustTime(t, emu(2, omprt.SchedStatic1), root)

	// Speeds of all ones must not change anything even though the scaled
	// path runs (division by 1 then +0.5 rounding matches st.scaled).
	ones := &Emulator{Threads: 2, Sched: omprt.SchedStatic1, Speeds: []float64{1, 1}}
	if got := mustTime(t, ones, root); got != base {
		t.Errorf("unit speeds predicted %d, want %d (legacy)", got, base)
	}

	// A 2x CPU 0: I0 (650) and I2 (250) take 325 and 125 cycles of clock;
	// the lock FIFO still serializes L segments in pseudo-time order.
	fast := &Emulator{Threads: 2, Sched: omprt.SchedStatic1, Speeds: []float64{2, 1}}
	gotFast := mustTime(t, fast, root)
	if gotFast >= base {
		t.Errorf("2x CPU 0 predicted %d, want < %d", gotFast, base)
	}

	// Slowing a CPU makes the section slower, and the asymmetric
	// prediction is deterministic.
	slow := &Emulator{Threads: 2, Sched: omprt.SchedStatic1, Speeds: []float64{1, 0.5}}
	gotSlow := mustTime(t, slow, root)
	if gotSlow <= base {
		t.Errorf("0.5x CPU 1 predicted %d, want > %d", gotSlow, base)
	}
	for i := 0; i < 3; i++ {
		if again := mustTime(t, fast, root); again != gotFast {
			t.Fatalf("asymmetric FF not deterministic: %d vs %d", again, gotFast)
		}
	}
}
