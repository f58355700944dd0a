package synth

import (
	"context"
	"math"
	"testing"

	"prophet/internal/clock"
	"prophet/internal/ff"
	"prophet/internal/omprt"
	"prophet/internal/sim"
	"prophet/internal/tree"
)

func mcfg(cores int) sim.Config {
	return sim.Config{Cores: cores, Quantum: 10_000, ContextSwitch: -1}
}

// newSyn returns a synthesizer with zero runtime overheads and minimal
// traversal cost, for exact-ish assertions.
func newSyn(threads, cores int) *Synthesizer {
	return &Synthesizer{
		Threads:       threads,
		Machine:       mcfg(cores),
		AccessNode:    1,
		RecursiveCall: 1,
	}
}

// mustTime is s.PredictTimeCtx, failing the test on an error.
func mustTime(t *testing.T, s *Synthesizer, root *tree.Node) clock.Cycles {
	t.Helper()
	d, err := s.PredictTimeCtx(context.Background(), root)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// mustSpeedup is s.SpeedupCtx, failing the test on an error.
func mustSpeedup(t *testing.T, s *Synthesizer, root *tree.Node) float64 {
	t.Helper()
	sp, err := s.SpeedupCtx(context.Background(), root)
	if err != nil {
		t.Fatal(err)
	}
	return sp
}

func balancedLoop(nTasks int, l clock.Cycles) *tree.Node {
	tasks := make([]*tree.Node, nTasks)
	for i := range tasks {
		tasks[i] = tree.NewTask("t", tree.NewU(l))
	}
	return tree.NewRoot(tree.NewSec("s", tasks...))
}

func TestBalancedLoopScalesOMP(t *testing.T) {
	root := balancedLoop(48, 100_000)
	for _, p := range []int{1, 2, 4, 8, 12} {
		s := newSyn(p, 12)
		s.Sched = omprt.SchedStatic
		got := mustSpeedup(t, s, root)
		if got < 0.93*float64(p) || got > float64(p)*1.01 {
			t.Errorf("p=%d: speedup = %.2f, want ~%d", p, got, p)
		}
	}
}

func TestBalancedLoopScalesCilk(t *testing.T) {
	root := balancedLoop(48, 100_000)
	for _, p := range []int{1, 4, 8} {
		s := newSyn(p, 12)
		s.Paradigm = Cilk
		got := mustSpeedup(t, s, root)
		if got < 0.90*float64(p) || got > float64(p)*1.01 {
			t.Errorf("cilk p=%d: speedup = %.2f, want ~%d", p, got, p)
		}
	}
}

// figure7 is the same nested tree as in internal/ff's tests, scaled so
// tasks are large relative to the OS quantum.
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

// TestFigure7SynthesizerFixesFF is the paper's headline §IV-D/E story: the
// FF predicts 1.5x for the two-level nested loop, the synthesizer —
// because the (simulated) OS preemptively time-slices the oversubscribed
// nested teams — predicts ~2.0x.
func TestFigure7SynthesizerFixesFF(t *testing.T) {
	root := figure7(20_000) // tasks of 200k/100k cycles, quantum 10k

	ffPred, err := (&ff.Emulator{Threads: 2, Sched: omprt.SchedStatic1}).SpeedupCtx(context.Background(), root)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(ffPred-1.5) > 1e-9 {
		t.Fatalf("FF speedup = %g, want exactly 1.5", ffPred)
	}

	s := newSyn(2, 2)
	s.Sched = omprt.SchedStatic1
	got := mustSpeedup(t, s, root)
	if got < 1.8 || got > 2.05 {
		t.Fatalf("synthesizer speedup = %.3f, want ~2.0 (paper Fig. 7)", got)
	}
}

func TestLockContentionEmulated(t *testing.T) {
	// Tasks that are 100% critical section: no speedup possible.
	tasks := make([]*tree.Node, 8)
	for i := range tasks {
		tasks[i] = tree.NewTask("t", tree.NewL(1, 50_000))
	}
	root := tree.NewRoot(tree.NewSec("s", tasks...))
	s := newSyn(4, 4)
	s.Sched = omprt.SchedStatic1
	got := mustSpeedup(t, s, root)
	if got > 1.1 {
		t.Fatalf("fully locked loop speedup = %.2f, want ~1", got)
	}
}

func TestImbalanceScheduleSensitivity(t *testing.T) {
	// Triangular workload: dynamic,1 must beat (static).
	tasks := make([]*tree.Node, 16)
	for i := range tasks {
		tasks[i] = tree.NewTask("t", tree.NewU(clock.Cycles((i+1)*20_000)))
	}
	root := tree.NewRoot(tree.NewSec("s", tasks...))
	st := newSyn(4, 4)
	st.Sched = omprt.SchedStatic
	dy := newSyn(4, 4)
	dy.Sched = omprt.SchedDynamic1
	sStatic := mustSpeedup(t, st, root)
	sDyn := mustSpeedup(t, dy, root)
	if sDyn <= sStatic {
		t.Fatalf("dynamic (%.2f) should beat static (%.2f) on triangular work", sDyn, sStatic)
	}
}

func TestBurdenFactorApplied(t *testing.T) {
	root := balancedLoop(8, 100_000)
	sec := root.TopLevelSections()[0]
	sec.Burden = map[int]float64{4: 1.5}
	plain := newSyn(4, 4)
	plain.Sched = omprt.SchedStatic
	withB := newSyn(4, 4)
	withB.Sched = omprt.SchedStatic
	withB.UseBurden = true
	sp := mustSpeedup(t, plain, root)
	sb := mustSpeedup(t, withB, root)
	if ratio := sp / sb; math.Abs(ratio-1.5) > 0.1 {
		t.Fatalf("burden did not scale prediction: plain %.2f vs burdened %.2f", sp, sb)
	}
}

func TestSerialRegionsIncluded(t *testing.T) {
	root := tree.NewRoot(
		tree.NewU(100_000),
		tree.NewSec("s",
			tree.NewTask("t", tree.NewU(50_000)),
			tree.NewTask("t", tree.NewU(50_000)),
		),
	)
	s := newSyn(2, 2)
	s.Sched = omprt.SchedStatic
	got := mustSpeedup(t, s, root)
	want := 200_000.0 / 150_000.0
	if math.Abs(got-want) > 0.05 {
		t.Fatalf("speedup = %.3f, want ~%.3f (Amdahl with serial part)", got, want)
	}
}

func TestTraversalOverheadSubtracted(t *testing.T) {
	// Huge per-node overhead with tiny tasks: without subtraction the
	// prediction would collapse; with subtraction it must stay sane.
	root := balancedLoop(64, 10_000)
	heavy := &Synthesizer{
		Threads:    4,
		Machine:    mcfg(4),
		Sched:      omprt.SchedStatic,
		AccessNode: 5_000, // half a task per node visit
	}
	light := newSyn(4, 4)
	light.Sched = omprt.SchedStatic
	sH := mustSpeedup(t, heavy, root)
	sL := mustSpeedup(t, light, root)
	if sH < 0.7*sL {
		t.Fatalf("overhead subtraction failed: heavy %.2f vs light %.2f", sH, sL)
	}
}

func TestRepeatCompressedEquivalence(t *testing.T) {
	expanded := balancedLoop(60, 30_000)
	ctask := tree.NewTask("t", tree.NewU(30_000))
	ctask.Repeat = 60
	compressed := tree.NewRoot(tree.NewSec("s", ctask))
	a := newSyn(6, 12)
	a.Sched = omprt.SchedDynamic1
	b := newSyn(6, 12)
	b.Sched = omprt.SchedDynamic1
	sa := mustSpeedup(t, a, expanded)
	sb := mustSpeedup(t, b, compressed)
	if math.Abs(sa-sb)/sa > 0.02 {
		t.Fatalf("compressed tree emulates differently: %.3f vs %.3f", sa, sb)
	}
}

func TestEmptyTree(t *testing.T) {
	root := tree.NewRoot()
	s := newSyn(4, 4)
	if got := mustTime(t, s, root); got != 0 {
		t.Fatalf("empty tree predicted %d", got)
	}
	if got := mustSpeedup(t, s, root); got != 1 {
		t.Fatalf("empty tree speedup %g", got)
	}
}

func TestParadigmString(t *testing.T) {
	if OpenMP.String() != "openmp" || Cilk.String() != "cilk" {
		t.Fatal("paradigm names wrong")
	}
}

func TestRecursiveTreeCilk(t *testing.T) {
	// FFT-like recursion depth 4: each level spawns two nested sections.
	var build func(depth int) *tree.Node
	build = func(depth int) *tree.Node {
		if depth == 0 {
			return tree.NewTask("leaf", tree.NewU(40_000))
		}
		return tree.NewTask("rec",
			tree.NewSec("inner", build(depth-1), build(depth-1)),
			tree.NewU(5_000),
		)
	}
	root := tree.NewRoot(tree.NewSec("top", build(4)))
	s := newSyn(4, 4)
	s.Paradigm = Cilk
	got := mustSpeedup(t, s, root)
	if got < 2.4 {
		t.Fatalf("recursive cilk speedup = %.2f, want >= 2.4", got)
	}
	if got > 4.01 {
		t.Fatalf("speedup %.2f exceeds core count", got)
	}
}
