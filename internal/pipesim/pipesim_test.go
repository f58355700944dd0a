package pipesim

import (
	"context"
	"testing"

	"prophet/internal/clock"
	"prophet/internal/sim"
	"prophet/internal/tree"
)

func mcfg(cores int) sim.Config {
	return sim.Config{Cores: cores, Quantum: 10_000, ContextSwitch: -1}
}

// mustRun runs main on a machine built from c, failing the test on a
// simulation error.
func mustRun(t testing.TB, c sim.Config, main func(*sim.Thread)) (clock.Cycles, sim.Stats) {
	t.Helper()
	end, st, err := sim.Run(context.Background(), c, sim.RunOpts{}, main)
	if err != nil {
		t.Fatal(err)
	}
	return end, st
}

// pipe builds a pipeline section of n iterations with the given stage
// lengths per iteration.
func pipe(n int, stages ...clock.Cycles) *tree.Node {
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
	return sec
}

// run executes the section with a plain Work exec and returns the makespan.
func run(t *testing.T, sec *tree.Node, cores, threads int) clock.Cycles {
	end, _ := mustRun(t, mcfg(cores), func(main *sim.Thread) {
		Run(main, sec, threads, func(w *sim.Thread, seg *tree.Node) {
			w.Work(seg.Len)
		})
	})
	return end
}

func TestBalancedTwoStagePipeline(t *testing.T) {
	// 32 iterations, two 1000-cycle stages, 2 workers: steady-state
	// throughput one iteration per 1000 cycles => ~33k total.
	sec := pipe(32, 1_000, 1_000)
	got := run(t, sec, 2, 2)
	if got < 33_000 || got > 36_000 {
		t.Fatalf("2-stage pipeline makespan = %d, want ~33000", got)
	}
	// Serial: 64k. Speedup ~1.94.
	if serial := sec.TotalLen(); serial != 64_000 {
		t.Fatalf("serial = %d", serial)
	}
}

func TestBottleneckStageLimitsThroughput(t *testing.T) {
	// Stage 1 takes 3x stage 0: throughput bound by the slow stage.
	sec := pipe(20, 1_000, 3_000)
	got := run(t, sec, 2, 2)
	// Bound: 20 iterations through a 3000-cycle bottleneck + fill.
	if got < 60_000 {
		t.Fatalf("makespan %d below bottleneck bound 60000", got)
	}
	if got > 66_000 {
		t.Fatalf("makespan %d, want ~61000 (bottleneck-limited)", got)
	}
}

func TestSingleWorkerSerializes(t *testing.T) {
	sec := pipe(10, 500, 500, 500)
	got := run(t, sec, 4, 1)
	if got != 15_000 {
		t.Fatalf("1-worker pipeline = %d, want 15000 (serial)", got)
	}
}

func TestMoreWorkersThanStagesClamped(t *testing.T) {
	sec := pipe(16, 1_000, 1_000)
	a := run(t, sec, 8, 2)
	b := run(t, sec, 8, 8) // only 2 stages -> 2 workers used
	if a != b {
		t.Fatalf("extra workers changed makespan: %d vs %d", a, b)
	}
}

func TestDependenciesRespected(t *testing.T) {
	// Record stage completion order; stage 1 of iteration i must come
	// after stage 0 of iteration i.
	const n = 12
	done := make(map[[2]int]clock.Cycles)
	idx := map[*tree.Node][2]int{}
	tasks := make([]*tree.Node, n)
	for i := range tasks {
		s0 := tree.NewU(100)
		s1 := tree.NewU(100)
		idx[s0] = [2]int{i, 0}
		idx[s1] = [2]int{i, 1}
		tasks[i] = tree.NewTask("it", s0, s1)
	}
	sec := tree.NewSec("pipe", tasks...)
	sec.Pipeline = true
	mustRun(t, mcfg(4), func(main *sim.Thread) {
		Run(main, sec, 2, func(w *sim.Thread, seg *tree.Node) {
			w.Work(seg.Len)
			done[idx[seg]] = w.Now()
		})
	})
	for i := 0; i < n; i++ {
		if done[[2]int{i, 1}] < done[[2]int{i, 0}]+100 {
			t.Fatalf("iter %d: stage 1 at %d before stage 0 at %d finished",
				i, done[[2]int{i, 1}], done[[2]int{i, 0}])
		}
		if i > 0 && done[[2]int{i, 0}] < done[[2]int{i - 1, 0}] {
			t.Fatalf("stage 0 out of iteration order at %d", i)
		}
	}
}

func TestRaggedIterations(t *testing.T) {
	// Iterations with fewer stages than the pipeline depth must drain
	// without deadlock.
	t0 := tree.NewTask("wide", tree.NewU(500), tree.NewU(500), tree.NewU(500))
	t1 := tree.NewTask("narrow", tree.NewU(500))
	t2 := tree.NewTask("wide", tree.NewU(500), tree.NewU(500), tree.NewU(500))
	sec := tree.NewSec("pipe", t0, t1, t2)
	sec.Pipeline = true
	got := run(t, sec, 4, 3)
	if got <= 0 || got > 3_500 {
		t.Fatalf("ragged pipeline makespan = %d", got)
	}
}

func TestRepeatCompressedIterations(t *testing.T) {
	task := tree.NewTask("it", tree.NewU(1_000), tree.NewU(1_000))
	task.Repeat = 32
	secC := tree.NewSec("pipe", task)
	secC.Pipeline = true
	secE := pipe(32, 1_000, 1_000)
	a := run(t, secC, 2, 2)
	b := run(t, secE, 2, 2)
	if a != b {
		t.Fatalf("compressed pipeline %d != expanded %d", a, b)
	}
}

func TestEmptySection(t *testing.T) {
	sec := tree.NewSec("pipe")
	sec.Pipeline = true
	if got := run(t, sec, 2, 2); got != 0 {
		t.Fatalf("empty pipeline makespan = %d", got)
	}
}

func TestDepthAndSlots(t *testing.T) {
	sec := pipe(3, 10, 20, 30)
	if Depth(sec) != 3 {
		t.Fatalf("depth = %d", Depth(sec))
	}
	seg := tree.NewU(5)
	seg.Repeat = 4
	task := tree.NewTask("t", seg)
	if got := len(StageSlots(task)); got != 4 {
		t.Fatalf("slots with repeat = %d, want 4", got)
	}
}

func TestPartitionStages(t *testing.T) {
	// Stage weights 20/90/30 over 64 iterations, 2 workers: optimal
	// contiguous partition is {20,90 | 30} (max 110), not {20 | 90,30}.
	sec := pipe(64, 20, 90, 30)
	g := PartitionStages(sec, 2)
	want := []int{0, 0, 1}
	if len(g) != 3 || g[0] != want[0] || g[1] != want[1] || g[2] != want[2] {
		t.Fatalf("partition = %v, want %v", g, want)
	}
	// One worker: all stages in group 0.
	g1 := PartitionStages(sec, 1)
	for _, v := range g1 {
		if v != 0 {
			t.Fatalf("single-worker partition = %v", g1)
		}
	}
	// Workers >= depth: one stage per group, ascending.
	g4 := PartitionStages(sec, 4)
	for s, v := range g4 {
		if v != s {
			t.Fatalf("wide partition = %v", g4)
		}
	}
	// Groups are contiguous and ascending for any worker count.
	wide := pipe(8, 10, 20, 30, 40, 50, 60, 70)
	for nt := 1; nt <= 9; nt++ {
		g := PartitionStages(wide, nt)
		for i := 1; i < len(g); i++ {
			if g[i] < g[i-1] || g[i] > g[i-1]+1 {
				t.Fatalf("nt=%d: non-contiguous groups %v", nt, g)
			}
		}
	}
	if PartitionStages(tree.NewSec("empty"), 2) != nil {
		t.Fatal("empty section should partition to nil")
	}
}

func TestImbalancedStagesBottleneckMatchesPartition(t *testing.T) {
	// Weights 20/90/30, 2 workers: bound = serial/maxgroup = 140/110.
	sec := pipe(64, 2_000, 9_000, 3_000)
	got := run(t, sec, 2, 2)
	// Group {s0,s1} does 11000 per iteration: ~64*11000.
	if got < 64*11_000 || got > 64*11_000+15_000 {
		t.Fatalf("makespan = %d, want ~%d", got, 64*11_000)
	}
}
