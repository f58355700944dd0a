package prophet

import (
	"context"
	"math"
	"testing"
)

// pipelineProgram is an annotated 3-stage pipeline: read (fast), process
// (slow bottleneck), write (fast) — the §VIII extension end to end.
func pipelineProgram(ctx Context) {
	ctx.PipeBegin("stream-pipeline")
	for i := 0; i < 40; i++ {
		ctx.TaskBegin("item")
		ctx.Compute(10_000, 0) // stage 0: read
		ctx.StageBreak()
		ctx.Compute(30_000, 0) // stage 1: process (bottleneck)
		ctx.StageBreak()
		ctx.Compute(10_000, 0) // stage 2: write
		ctx.TaskEnd()
	}
	ctx.PipeEnd()
}

func TestPipelineEndToEnd(t *testing.T) {
	prof, err := ProfileProgramCtx(context.Background(), pipelineProgram, &Options{Machine: testMachine(4)})
	if err != nil {
		t.Fatalf("profile: %v", err)
	}
	sec := prof.Tree.TopLevelSections()[0]
	if !sec.Pipeline {
		t.Fatal("pipeline flag lost in profiling")
	}
	if sec.Tasks() != 40 {
		t.Fatalf("tasks = %d, want 40", sec.Tasks())
	}
	// Serial: 40 * 50k = 2M cycles.
	if prof.SerialCycles != 2_000_000 {
		t.Fatalf("serial = %d", prof.SerialCycles)
	}
	// Theoretical: throughput bound by the 30k stage => ~40*30k + fill
	// = ~1.22M => speedup ~1.63.
	req := Request{Threads: 3, Sched: Static}
	ffPred := mustEstimate(t, prof, Request{Method: FastForward, Threads: 3, Sched: Static}).Speedup
	synPred := mustEstimate(t, prof, Request{Method: Synthesizer, Threads: 3, Sched: Static}).Speedup
	real := mustReal(t, prof, req)
	want := 2_000_000.0 / (40*30_000 + 20_000)
	for name, got := range map[string]float64{"FF": ffPred, "synthesizer": synPred, "real": real} {
		if math.Abs(got-want)/want > 0.15 {
			t.Errorf("%s pipeline speedup = %.2f, want ~%.2f", name, got, want)
		}
	}
	// FF and the machine must agree closely (same schedule model).
	if math.Abs(ffPred-real)/real > 0.1 {
		t.Errorf("FF %.2f vs real %.2f diverge", ffPred, real)
	}
}

func TestPipelineCompressionPreservesSemantics(t *testing.T) {
	// The 40 identical iterations compress to one Repeat=40 task; the
	// prediction must be unchanged.
	compressed, err := ProfileProgramCtx(context.Background(), pipelineProgram, &Options{Machine: testMachine(4)})
	if err != nil {
		t.Fatal(err)
	}
	raw, err := ProfileProgramCtx(context.Background(), pipelineProgram, &Options{Machine: testMachine(4), CompressTolerance: -1})
	if err != nil {
		t.Fatal(err)
	}
	if compressed.Compression.NodesAfter >= compressed.Compression.NodesBefore {
		t.Fatal("pipeline tree did not compress")
	}
	a := mustEstimate(t, compressed, Request{Method: FastForward, Threads: 3, Sched: Static}).Speedup
	b := mustEstimate(t, raw, Request{Method: FastForward, Threads: 3, Sched: Static}).Speedup
	if math.Abs(a-b) > 1e-9 {
		t.Fatalf("compressed %.4f != raw %.4f", a, b)
	}
}

func TestStageBreakInOrdinaryTaskIsHarmless(t *testing.T) {
	prog := func(ctx Context) {
		ctx.SecBegin("s")
		ctx.TaskBegin("t")
		ctx.Compute(1_000, 0)
		ctx.StageBreak()
		ctx.Compute(1_000, 0)
		ctx.TaskEnd()
		ctx.SecEnd(false)
	}
	prof, err := ProfileProgramCtx(context.Background(), prog, &Options{Machine: testMachine(2), CompressTolerance: -1})
	if err != nil {
		t.Fatal(err)
	}
	if prof.SerialCycles != 2_000 {
		t.Fatalf("serial = %d", prof.SerialCycles)
	}
	task := prof.Tree.TopLevelSections()[0].Children[0]
	if len(task.Children) != 2 {
		t.Fatalf("StageBreak should split the U node: %d children", len(task.Children))
	}
}

func TestStageBreakOutsideTaskFails(t *testing.T) {
	prog := func(ctx Context) { ctx.StageBreak() }
	if _, err := ProfileProgramCtx(context.Background(), prog, nil); err == nil {
		t.Fatal("StageBreak outside a task accepted")
	}
}
