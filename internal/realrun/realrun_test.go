package realrun

import (
	"context"
	"math"
	"testing"

	"prophet/internal/cilkrt"
	"prophet/internal/clock"
	"prophet/internal/omprt"
	"prophet/internal/sim"
	"prophet/internal/synth"
	"prophet/internal/tree"
)

func mcfg(cores int) sim.Config {
	return sim.Config{Cores: cores, Quantum: 10_000, ContextSwitch: -1}
}

var zeroOmp = &omprt.Overheads{}

// mustTime is TimeCtx, failing the test on a simulation error.
func mustTime(t *testing.T, root *tree.Node, cfg Config) clock.Cycles {
	t.Helper()
	end, err := TimeCtx(context.Background(), root, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return end
}

// mustSpeedup is SpeedupCtx, failing the test on a simulation error.
func mustSpeedup(t *testing.T, root *tree.Node, cfg Config) float64 {
	t.Helper()
	s, err := SpeedupCtx(context.Background(), root, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func balanced(n int, l clock.Cycles) *tree.Node {
	tasks := make([]*tree.Node, n)
	for i := range tasks {
		tasks[i] = tree.NewTask("t", tree.NewU(l))
	}
	return tree.NewRoot(tree.NewSec("s", tasks...))
}

func TestBalancedSpeedup(t *testing.T) {
	root := balanced(24, 60_000)
	for _, p := range []int{1, 2, 4, 8, 12} {
		s := mustSpeedup(t, root, Config{Machine: mcfg(12), Threads: p, Sched: omprt.SchedStatic, OmpOv: zeroOmp})
		if math.Abs(s-float64(p)) > 0.05*float64(p) {
			t.Errorf("p=%d speedup = %.2f", p, s)
		}
	}
}

func TestSerialPartsLimitSpeedup(t *testing.T) {
	root := tree.NewRoot(
		tree.NewU(120_000),
		balanced(12, 10_000).Children[0],
	)
	s := mustSpeedup(t, root, Config{Machine: mcfg(12), Threads: 12, Sched: omprt.SchedStatic, OmpOv: zeroOmp})
	want := 240_000.0 / 130_000.0
	if math.Abs(s-want) > 0.1 {
		t.Fatalf("speedup = %.2f, want ~%.2f", s, want)
	}
}

func TestMemoryBoundSectionSaturates(t *testing.T) {
	// Tasks that are pure streaming: speedup must saturate near
	// B / b1 = 5 regardless of having 12 cores.
	tasks := make([]*tree.Node, 24)
	for i := range tasks {
		u := tree.NewU(0)
		u.Mem = tree.MemTraits{Instructions: 0, LLCMisses: 10_000}
		u.Len = 400_000 // profiled: 10k misses at ω0=40
		tasks[i] = tree.NewTask("t", u)
	}
	root := tree.NewRoot(tree.NewSec("s", tasks...))
	s12 := mustSpeedup(t, root, Config{Machine: mcfg(12), Threads: 12, Sched: omprt.SchedStatic, OmpOv: zeroOmp})
	s2 := mustSpeedup(t, root, Config{Machine: mcfg(12), Threads: 2, Sched: omprt.SchedStatic, OmpOv: zeroOmp})
	if s2 < 1.8 {
		t.Fatalf("2-thread memory speedup = %.2f, want ~2 (below saturation)", s2)
	}
	if s12 > 6.5 {
		t.Fatalf("12-thread memory speedup = %.2f, want saturated ~5", s12)
	}
	if s12 < 4 {
		t.Fatalf("12-thread memory speedup = %.2f, implausibly low", s12)
	}
}

func TestFigure7RealIsTwo(t *testing.T) {
	// The ground truth for Fig. 7: two-level nested loop on a dual-core
	// really achieves ~2.0 thanks to OS time slicing.
	scale := clock.Cycles(20_000)
	la := tree.NewSec("LoopA",
		tree.NewTask("a0", tree.NewU(10*scale)),
		tree.NewTask("a1", tree.NewU(5*scale)),
	)
	lb := tree.NewSec("LoopB",
		tree.NewTask("b0", tree.NewU(5*scale)),
		tree.NewTask("b1", tree.NewU(10*scale)),
	)
	root := tree.NewRoot(tree.NewSec("Loop1",
		tree.NewTask("t0", la),
		tree.NewTask("t1", lb),
	))
	s := mustSpeedup(t, root, Config{Machine: mcfg(2), Threads: 2, Sched: omprt.SchedStatic1, OmpOv: zeroOmp})
	if s < 1.85 || s > 2.05 {
		t.Fatalf("real nested speedup = %.3f, want ~2.0", s)
	}
}

func TestCilkParadigm(t *testing.T) {
	root := balanced(32, 50_000)
	s := mustSpeedup(t, root, Config{Machine: mcfg(8), Threads: 8, Paradigm: synth.Cilk})
	if s < 6.5 || s > 8.1 {
		t.Fatalf("cilk speedup = %.2f, want ~8", s)
	}
}

func TestLockedTreeSerializes(t *testing.T) {
	tasks := make([]*tree.Node, 8)
	for i := range tasks {
		tasks[i] = tree.NewTask("t", tree.NewL(1, 50_000))
	}
	root := tree.NewRoot(tree.NewSec("s", tasks...))
	s := mustSpeedup(t, root, Config{Machine: mcfg(8), Threads: 8, Sched: omprt.SchedStatic1, OmpOv: zeroOmp})
	if s > 1.05 {
		t.Fatalf("locked speedup = %.2f, want ~1", s)
	}
}

func TestCompressedTreeRunsIdentically(t *testing.T) {
	expanded := balanced(64, 20_000)
	ct := tree.NewTask("t", tree.NewU(20_000))
	ct.Repeat = 64
	compressed := tree.NewRoot(tree.NewSec("s", ct))
	cfg := Config{Machine: mcfg(4), Threads: 4, Sched: omprt.SchedDynamic1, OmpOv: zeroOmp}
	a := mustTime(t, expanded, cfg)
	b := mustTime(t, compressed, cfg)
	if a != b {
		t.Fatalf("compressed %d != expanded %d", b, a)
	}
}

func TestSpeedupDegenerate(t *testing.T) {
	if got := mustSpeedup(t, tree.NewRoot(), Config{Machine: mcfg(2), Threads: 2}); got != 1 {
		t.Fatalf("empty tree speedup = %g", got)
	}
}

func TestNestedCilkSections(t *testing.T) {
	inner := tree.NewSec("in",
		tree.NewTask("a", tree.NewU(40_000)),
		tree.NewTask("b", tree.NewU(40_000)),
	)
	root := tree.NewRoot(tree.NewSec("out",
		tree.NewTask("t", inner, tree.NewU(10_000)),
		tree.NewTask("u", tree.NewU(50_000)),
	))
	s := mustSpeedup(t, root, Config{Machine: mcfg(4), Threads: 4, Paradigm: synth.Cilk})
	if s < 1.5 || s > 3.0 {
		t.Fatalf("nested cilk speedup = %.2f", s)
	}
}

func TestCilkLockedSegments(t *testing.T) {
	tasks := make([]*tree.Node, 6)
	for i := range tasks {
		tasks[i] = tree.NewTask("t", tree.NewL(2, 30_000))
	}
	root := tree.NewRoot(tree.NewSec("s", tasks...))
	end := mustTime(t, root, Config{Machine: mcfg(6), Threads: 6, Paradigm: synth.Cilk})
	if end < 180_000 {
		t.Fatalf("cilk locked sections overlapped: %d", end)
	}
}

func TestPipelineSectionGroundTruth(t *testing.T) {
	tasks := make([]*tree.Node, 16)
	for i := range tasks {
		tasks[i] = tree.NewTask("it", tree.NewU(10_000), tree.NewU(10_000))
	}
	sec := tree.NewSec("pipe", tasks...)
	sec.Pipeline = true
	root := tree.NewRoot(sec)
	end := mustTime(t, root, Config{Machine: mcfg(2), Threads: 2, OmpOv: zeroOmp})
	// Two balanced stages on two workers: ~17 stage-times.
	if end < 160_000 || end > 180_000 {
		t.Fatalf("pipeline ground truth = %d, want ~170000", end)
	}
}

func TestPipelineWithLockedStage(t *testing.T) {
	tasks := make([]*tree.Node, 8)
	for i := range tasks {
		tasks[i] = tree.NewTask("it", tree.NewU(5_000), tree.NewL(3, 5_000))
	}
	sec := tree.NewSec("pipe", tasks...)
	sec.Pipeline = true
	root := tree.NewRoot(sec)
	end := mustTime(t, root, Config{Machine: mcfg(2), Threads: 2, OmpOv: zeroOmp})
	if end <= 0 || end > 8*10_000+10_000 {
		t.Fatalf("locked pipeline = %d", end)
	}
}

func TestConfigOverrides(t *testing.T) {
	// Custom overheads flow through: a huge fork cost must slow things.
	root := balanced(8, 10_000)
	slowOv := omprt.DefaultOverheads()
	slowOv.ForkPerThread = 100_000
	fast := mustTime(t, root, Config{Machine: mcfg(4), Threads: 4, OmpOv: zeroOmp})
	slow := mustTime(t, root, Config{Machine: mcfg(4), Threads: 4, OmpOv: &slowOv})
	if slow <= fast {
		t.Fatalf("custom overheads ignored: %d vs %d", slow, fast)
	}
	// Nil overheads select calibrated defaults (non-zero).
	def := mustTime(t, root, Config{Machine: mcfg(4), Threads: 4})
	if def <= fast {
		t.Fatalf("default overheads missing: %d vs %d", def, fast)
	}
	// Cilk custom overheads.
	co := cilkrt.DefaultOverheads()
	co.StealScan = 50_000
	slowCilk := mustTime(t, root, Config{Machine: mcfg(4), Threads: 4, Paradigm: synth.Cilk, CilkOv: &co})
	fastCilk := mustTime(t, root, Config{Machine: mcfg(4), Threads: 4, Paradigm: synth.Cilk, CilkOv: &cilkrt.Overheads{}})
	if slowCilk <= fastCilk {
		t.Fatalf("cilk overheads ignored: %d vs %d", slowCilk, fastCilk)
	}
}

func TestThreadsDefaultToOne(t *testing.T) {
	root := balanced(4, 10_000)
	end := mustTime(t, root, Config{Machine: mcfg(4), OmpOv: zeroOmp}) // Threads: 0
	if end != 40_000 {
		t.Fatalf("unspecified threads = %d, want serial 40000", end)
	}
}
