package prophet

import (
	"context"
	"testing"
)

// ioProgram is a loop whose tasks spend most of their time blocked on I/O:
// the §VIII extension's target shape (think: fetch, compute, store).
func ioProgram(nTasks int) Program {
	return func(ctx Context) {
		ctx.SecBegin("io-loop")
		for i := 0; i < nTasks; i++ {
			ctx.TaskBegin("t")
			ctx.Compute(20_000, 0) // compute
			ctx.IOWait(80_000)     // blocked on I/O, no CPU
			ctx.Compute(20_000, 0)
			ctx.TaskEnd()
		}
		ctx.SecEnd(false)
	}
}

func TestIOWaitProfilesAsWNode(t *testing.T) {
	p, err := ProfileProgramCtx(context.Background(), ioProgram(4), &Options{
		Machine: testMachine(2), DisableMemoryModel: true, CompressTolerance: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Serial time includes the waits: 4 * 120k.
	if p.SerialCycles != 480_000 {
		t.Fatalf("serial = %d, want 480000", p.SerialCycles)
	}
	task := p.Tree.TopLevelSections()[0].Children[0]
	if len(task.Children) != 3 {
		t.Fatalf("task children = %d, want U W U", len(task.Children))
	}
	w := task.Children[1]
	if w.Kind.String() != "W" || w.Len != 80_000 {
		t.Fatalf("middle child = %v %d, want W 80000", w.Kind, w.Len)
	}
}

// TestIOWaitOverlapsOnMachine: with 8 I/O-heavy tasks on 2 cores, the
// machine overlaps waits with other tasks' compute — the real speedup
// exceeds the core count; the synthesizer captures this, the FF
// (conservatively) does not.
func TestIOWaitOverlapsOnMachine(t *testing.T) {
	p, err := ProfileProgramCtx(context.Background(), ioProgram(8), &Options{
		Machine: testMachine(2), DisableMemoryModel: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	req := Request{Threads: 8, Sched: Static1} // oversubscribe: 8 threads, 2 cores
	real := mustReal(t, p, req)
	// Compute is 8*40k = 320k on 2 cores => >= 160k; waits overlap, so
	// the bound is ~960k/160k+waits = up to 5.1 with perfect overlap.
	if real <= 2.2 {
		t.Fatalf("real speedup = %.2f; I/O waits did not overlap (core count is 2)", real)
	}
	syn := mustEstimate(t, p, Request{Method: Synthesizer, Threads: 8, Sched: Static1}).Speedup
	if syn <= 2.2 {
		t.Fatalf("synthesizer speedup = %.2f; W nodes not overlapped", syn)
	}
	ffPred := mustEstimate(t, p, Request{Method: FastForward, Threads: 8, Sched: Static1}).Speedup
	// The FF treats waits as compute on abstract workers with no core
	// limit, so under oversubscription it misses the machine effects in
	// one direction or the other; it must at least stay sane.
	if ffPred <= 0 {
		t.Fatalf("ff speedup = %.2f", ffPred)
	}
	// Synthesizer must be the closer predictor of the two (the W story
	// is another Fig. 7-style case where the machine-backed emulator
	// wins).
	if dFF, dSyn := absf(ffPred-real), absf(syn-real); dSyn > dFF {
		t.Fatalf("synthesizer (%.2f) further from real (%.2f) than FF (%.2f)", syn, real, ffPred)
	}
}

// TestIOWaitPipelineStage: a W stage in a pipeline releases its worker.
func TestIOWaitPipelineStage(t *testing.T) {
	prog := func(ctx Context) {
		ctx.PipeBegin("pipe")
		for i := 0; i < 16; i++ {
			ctx.TaskBegin("t")
			ctx.Compute(10_000, 0)
			ctx.StageBreak()
			ctx.IOWait(10_000)
			ctx.StageBreak()
			ctx.Compute(10_000, 0)
			ctx.TaskEnd()
		}
		ctx.PipeEnd()
	}
	p, err := ProfileProgramCtx(context.Background(), prog, &Options{Machine: testMachine(4), DisableMemoryModel: true})
	if err != nil {
		t.Fatal(err)
	}
	real := mustReal(t, p, Request{Threads: 3, Sched: Static})
	if real < 2.0 {
		t.Fatalf("pipeline with W stage speedup = %.2f", real)
	}
}

func TestIOWaitOutsideTaskFails(t *testing.T) {
	bad := func(ctx Context) { ctx.IOWait(100) }
	if _, err := ProfileProgramCtx(context.Background(), bad, nil); err == nil {
		t.Fatal("IOWait outside a task accepted")
	}
}

func absf(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
