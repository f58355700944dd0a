package ff

import (
	"testing"

	"prophet/internal/clock"
	"prophet/internal/omprt"
	"prophet/internal/tree"
)

func pipeTree(n int, stages ...clock.Cycles) *tree.Node {
	tasks := make([]*tree.Node, n)
	for i := range tasks {
		segs := make([]*tree.Node, len(stages))
		for s, l := range stages {
			segs[s] = tree.NewU(l)
		}
		tasks[i] = tree.NewTask("it", segs...)
	}
	sec := tree.NewSec("pipe", tasks...)
	sec.Pipeline = true
	return tree.NewRoot(sec)
}

func TestPipelineBalancedTwoStages(t *testing.T) {
	root := pipeTree(32, 1_000, 1_000)
	e := &Emulator{Threads: 2, Sched: omprt.SchedStatic}
	got := mustTime(t, e, root)
	// Fill (1000) + 32 iterations through a 1000-cycle stage = 33000.
	if got != 33_000 {
		t.Fatalf("predicted = %d, want 33000", got)
	}
	if s := mustSpeedup(t, e, root); s < 1.9 {
		t.Fatalf("pipeline speedup = %.2f, want ~1.94", s)
	}
}

func TestPipelineBottleneck(t *testing.T) {
	root := pipeTree(20, 1_000, 3_000)
	e := &Emulator{Threads: 2, Sched: omprt.SchedStatic}
	got := mustTime(t, e, root)
	// 1000 fill + 20*3000 bottleneck = 61000.
	if got != 61_000 {
		t.Fatalf("predicted = %d, want 61000", got)
	}
}

func TestPipelineVsOrdinarySection(t *testing.T) {
	// The same tasks WITHOUT the pipeline flag are independent: a
	// 4-thread FF must beat the 2-stage pipeline bound.
	plain := pipeTree(24, 1_000, 1_000)
	plain.TopLevelSections()[0].Pipeline = false
	piped := pipeTree(24, 1_000, 1_000)
	e := &Emulator{Threads: 4, Sched: omprt.SchedStatic}
	sPlain := mustSpeedup(t, e, plain)
	sPipe := mustSpeedup(t, e, piped)
	if sPlain < 3.9 {
		t.Fatalf("independent loop speedup = %.2f, want ~4", sPlain)
	}
	// Pipeline parallelism is capped by its depth (2 stages).
	if sPipe > 2.01 {
		t.Fatalf("pipeline speedup = %.2f exceeds depth bound 2", sPipe)
	}
}

func TestPipelineDepthCapsThreads(t *testing.T) {
	root := pipeTree(16, 500, 500, 500)
	e2 := &Emulator{Threads: 3, Sched: omprt.SchedStatic}
	e12 := &Emulator{Threads: 12, Sched: omprt.SchedStatic}
	if a, b := mustTime(t, e2, root), mustTime(t, e12, root); a != b {
		t.Fatalf("threads beyond depth changed prediction: %d vs %d", a, b)
	}
}

func TestPipelineLockedStage(t *testing.T) {
	// A stage that holds a lock is already serialized by the pipeline's
	// in-order property, so the prediction must not double-penalize.
	tasks := make([]*tree.Node, 10)
	for i := range tasks {
		tasks[i] = tree.NewTask("it", tree.NewU(1_000), tree.NewL(1, 500))
	}
	sec := tree.NewSec("pipe", tasks...)
	sec.Pipeline = true
	root := tree.NewRoot(sec)
	e := &Emulator{Threads: 2, Sched: omprt.SchedStatic}
	got := mustTime(t, e, root)
	// Stage 0 bound: 10*1000; stage 1 drains 500 after: >= 10500.
	if got < 10_500 || got > 12_000 {
		t.Fatalf("locked-stage pipeline = %d, want ~10500", got)
	}
}

func TestNestedPipelineInsideTask(t *testing.T) {
	inner := tree.NewSec("pipe",
		tree.NewTask("i", tree.NewU(1_000), tree.NewU(1_000)),
		tree.NewTask("i", tree.NewU(1_000), tree.NewU(1_000)),
		tree.NewTask("i", tree.NewU(1_000), tree.NewU(1_000)),
	)
	inner.Pipeline = true
	root := tree.NewRoot(tree.NewSec("outer", tree.NewTask("t", inner)))
	e := &Emulator{Threads: 4, Sched: omprt.SchedStatic}
	got := mustTime(t, e, root)
	// Pipeline of 3 iterations, 2 stages: fill 1000 + 3*1000 = 4000.
	if got != 4_000 {
		t.Fatalf("nested pipeline predicted = %d, want 4000", got)
	}
}
