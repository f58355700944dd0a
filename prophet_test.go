package prophet

import (
	"context"
	"fmt"
	"math"
	"strings"
	"testing"

	"prophet/internal/sim"
	"prophet/internal/tree"
)

// testMachine is a small, overhead-free machine so assertions are tight.
func testMachine(cores int) MachineConfig {
	return MachineConfig{Cores: cores, Quantum: 10_000, ContextSwitch: -1}
}

// mustEstimate is p.EstimateCtx, failing the test on a failed estimate.
func mustEstimate(t testing.TB, p *Profile, req Request) Estimate {
	t.Helper()
	est, err := p.EstimateCtx(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	return est
}

// mustReal is p.RealSpeedupCtx, failing the test on a failed run.
func mustReal(t testing.TB, p *Profile, req Request) float64 {
	t.Helper()
	s, err := p.RealSpeedupCtx(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// mustAdvise is p.AdviseCtx, failing the test on an error.
func mustAdvise(t testing.TB, p *Profile, opts *AdviseOptions) Advice {
	t.Helper()
	adv, err := p.AdviseCtx(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	return adv
}

// balancedProgram is a simple annotated loop: n tasks of `work` cycles.
func balancedProgram(n int, work int64) Program {
	return func(ctx Context) {
		ctx.SecBegin("loop")
		for i := 0; i < n; i++ {
			ctx.TaskBegin("it")
			ctx.Compute(work, 0)
			ctx.TaskEnd()
		}
		ctx.SecEnd(false)
	}
}

func TestProfileAndEstimateRoundTrip(t *testing.T) {
	p, err := ProfileProgramCtx(context.Background(), balancedProgram(48, 100_000), &Options{Machine: testMachine(12)})
	if err != nil {
		t.Fatalf("ProfileProgramCtx: %v", err)
	}
	if p.SerialCycles != 4_800_000 {
		t.Fatalf("serial = %d", p.SerialCycles)
	}
	if p.Compression.NodesAfter >= p.Compression.NodesBefore {
		t.Error("uniform loop did not compress")
	}
	for _, m := range []Method{FastForward, Synthesizer} {
		est := mustEstimate(t, p, Request{Method: m, Threads: 8, Sched: Static})
		if est.Speedup < 6.5 || est.Speedup > 8.1 {
			t.Errorf("%v speedup = %.2f, want ~8", m, est.Speedup)
		}
		if est.Time <= 0 || est.Time >= p.SerialCycles {
			t.Errorf("%v predicted time %d out of range", m, est.Time)
		}
	}
}

func TestEstimateDefaultsToMachineCores(t *testing.T) {
	p, err := ProfileProgramCtx(context.Background(), balancedProgram(24, 50_000), &Options{Machine: testMachine(4)})
	if err != nil {
		t.Fatal(err)
	}
	est := mustEstimate(t, p, Request{Method: FastForward, Sched: Static})
	if est.Threads != 4 {
		t.Fatalf("defaulted threads = %d, want 4", est.Threads)
	}
}

func TestCurve(t *testing.T) {
	p, err := ProfileProgramCtx(context.Background(), balancedProgram(24, 50_000), &Options{Machine: testMachine(12)})
	if err != nil {
		t.Fatal(err)
	}
	curve, err := p.CurveCtx(context.Background(), Request{Method: FastForward, Sched: Static}, []int{1, 2, 4, 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(curve) != 4 {
		t.Fatalf("curve length %d", len(curve))
	}
	for i := 1; i < len(curve); i++ {
		if curve[i].Speedup < curve[i-1].Speedup {
			t.Errorf("curve not monotone on balanced loop: %+v", curve)
		}
	}
}

func TestRealSpeedupMatchesPredictionOnSimpleLoop(t *testing.T) {
	p, err := ProfileProgramCtx(context.Background(), balancedProgram(48, 100_000), &Options{Machine: testMachine(12)})
	if err != nil {
		t.Fatal(err)
	}
	req := Request{Threads: 6, Sched: Static}
	real := mustReal(t, p, req)
	pred := mustEstimate(t, p, req).Speedup
	if e := math.Abs(pred-real) / real; e > 0.15 {
		t.Fatalf("pred %.2f vs real %.2f: %.0f%% error", pred, real, 100*e)
	}
}

func TestMemoryModelChangesMemoryBoundEstimate(t *testing.T) {
	// A streaming program: with the memory model the 12-thread estimate
	// must drop, without it it must not.
	streaming := func(ctx Context) {
		ctx.SecBegin("stream")
		for i := 0; i < 48; i++ {
			ctx.TaskBegin("it")
			ctx.Compute(10_000, 2_500) // heavy misses
			ctx.TaskEnd()
		}
		ctx.SecEnd(false)
	}
	p, err := ProfileProgramCtx(context.Background(), streaming, &Options{Machine: testMachine(12)})
	if err != nil {
		t.Fatal(err)
	}
	plain := mustEstimate(t, p, Request{Method: FastForward, Threads: 12, Sched: Static})
	withMem := mustEstimate(t, p, Request{Method: FastForward, Threads: 12, Sched: Static, MemoryModel: true})
	if withMem.Speedup >= plain.Speedup {
		t.Fatalf("memory model did not reduce estimate: %.2f vs %.2f", withMem.Speedup, plain.Speedup)
	}
	real := mustReal(t, p, Request{Threads: 12, Sched: Static})
	// PredM must be closer to reality than Pred (the Fig. 2/12 story).
	if math.Abs(withMem.Speedup-real) >= math.Abs(plain.Speedup-real) {
		t.Fatalf("PredM %.2f not closer to real %.2f than Pred %.2f", withMem.Speedup, real, plain.Speedup)
	}
}

func TestDisableMemoryModel(t *testing.T) {
	p, err := ProfileProgramCtx(context.Background(), balancedProgram(8, 200_000), &Options{Machine: testMachine(4), DisableMemoryModel: true})
	if err != nil {
		t.Fatal(err)
	}
	if p.Model != nil {
		t.Fatal("model present despite DisableMemoryModel")
	}
	est := mustEstimate(t, p, Request{Method: FastForward, Threads: 4, Sched: Static, MemoryModel: true})
	if est.Speedup < 3.5 {
		t.Fatalf("estimate should ignore missing model: %.2f", est.Speedup)
	}
}

func TestBaselineMethods(t *testing.T) {
	prog := func(ctx Context) {
		ctx.Compute(400_000, 0) // serial half
		ctx.SecBegin("par")
		for i := 0; i < 8; i++ {
			ctx.TaskBegin("t")
			ctx.Compute(50_000, 0)
			ctx.TaskEnd()
		}
		ctx.SecEnd(false)
	}
	p, err := ProfileProgramCtx(context.Background(), prog, &Options{Machine: testMachine(8)})
	if err != nil {
		t.Fatal(err)
	}
	amdahl := mustEstimate(t, p, Request{Method: AmdahlLaw, Threads: 8})
	want := 1 / (0.5 + 0.5/8.0)
	if math.Abs(amdahl.Speedup-want) > 0.01 {
		t.Fatalf("Amdahl = %.3f, want %.3f", amdahl.Speedup, want)
	}
	cp := mustEstimate(t, p, Request{Method: CriticalPathBound, Threads: 8})
	if cp.Speedup < amdahl.Speedup-0.01 {
		t.Fatalf("critical-path bound %.3f below Amdahl %.3f", cp.Speedup, amdahl.Speedup)
	}
	suit := mustEstimate(t, p, Request{Method: Suitability, Threads: 8})
	if suit.Speedup <= 1 || suit.Speedup > 2 {
		t.Fatalf("suitability = %.3f", suit.Speedup)
	}
}

func TestAnnotationErrorsSurface(t *testing.T) {
	bad := func(ctx Context) { ctx.TaskBegin("orphan") }
	if _, err := ProfileProgramCtx(context.Background(), bad, &Options{Machine: testMachine(2)}); err == nil {
		t.Fatal("annotation error not surfaced")
	}
}

func TestProfileTree(t *testing.T) {
	p1, err := ProfileProgramCtx(context.Background(), balancedProgram(12, 20_000), &Options{Machine: testMachine(4)})
	if err != nil {
		t.Fatal(err)
	}
	p2, err := ProfileTreeCtx(context.Background(), p1.Tree.Clone(), &Options{Machine: testMachine(4)})
	if err != nil {
		t.Fatal(err)
	}
	a := mustEstimate(t, p1, Request{Method: FastForward, Threads: 4, Sched: Static}).Speedup
	b := mustEstimate(t, p2, Request{Method: FastForward, Threads: 4, Sched: Static}).Speedup
	if a != b {
		t.Fatalf("tree round trip changed estimate: %g vs %g", a, b)
	}
	// Invalid trees are rejected.
	bad := tree.NewRoot(tree.NewTask("task-under-root"))
	if _, err := ProfileTreeCtx(context.Background(), bad, nil); err == nil {
		t.Fatal("invalid tree accepted")
	}
}

func TestMethodStrings(t *testing.T) {
	for m, want := range map[Method]string{
		FastForward: "ff", Synthesizer: "synthesizer", Suitability: "suitability",
		AmdahlLaw: "amdahl", CriticalPathBound: "critical-path",
	} {
		if m.String() != want {
			t.Errorf("%d.String() = %q, want %q", m, m.String(), want)
		}
	}
}

func TestModelCacheReuse(t *testing.T) {
	mc := sim.Config{Cores: 4, Quantum: 10_000, ContextSwitch: -1}
	m1, err := modelFor(context.Background(), mc, []int{2, 4})
	if err != nil {
		t.Fatal(err)
	}
	m2, err := modelFor(context.Background(), mc, []int{2, 4})
	if err != nil {
		t.Fatal(err)
	}
	if m1 != m2 {
		t.Fatal("calibration not cached")
	}
}

func TestEstimateOnHost(t *testing.T) {
	// Short tasks (~1ms of nominal cycles) so the host run is quick; on
	// an unknown host we only assert sanity, not speedup.
	prog := func(ctx Context) {
		ctx.SecBegin("loop")
		for i := 0; i < 4; i++ {
			ctx.TaskBegin("t")
			ctx.Compute(int64(2_400_000), 0) // 1 ms at 2.4 GHz
			ctx.TaskEnd()
		}
		ctx.SecEnd(false)
	}
	p, err := ProfileProgramCtx(context.Background(), prog, &Options{Machine: testMachine(4), DisableMemoryModel: true})
	if err != nil {
		t.Fatal(err)
	}
	est, err := p.EstimateOnHostCtx(context.Background(), Request{Threads: 2, Sched: Dynamic1})
	if err != nil {
		t.Fatal(err)
	}
	if est.Speedup <= 0 || est.Time <= 0 {
		t.Fatalf("host estimate = %+v", est)
	}
	if est.Method != Synthesizer || est.Threads != 2 {
		t.Fatalf("host estimate metadata = %+v", est.Request)
	}
}

func TestExplainBurdenAndRegions(t *testing.T) {
	streaming := func(ctx Context) {
		ctx.SecBegin("hot")
		for i := 0; i < 16; i++ {
			ctx.TaskBegin("it")
			ctx.Compute(10_000, 2_000)
			ctx.TaskEnd()
		}
		ctx.SecEnd(false)
		ctx.Compute(5_000, 0)
	}
	p, err := ProfileProgramCtx(context.Background(), streaming, &Options{Machine: testMachine(12)})
	if err != nil {
		t.Fatal(err)
	}
	e, ok := p.ExplainBurden("hot", 12)
	if !ok {
		t.Fatal("section not found")
	}
	if e.Gate != "" {
		t.Fatalf("unexpected gate: %s", e.Gate)
	}
	if e.Burden <= 1 {
		t.Fatalf("hot section burden = %g, want > 1", e.Burden)
	}
	// Burden must agree with what the estimate actually uses.
	sec := p.Tree.TopLevelSections()[0]
	if e.Burden != sec.BurdenFor(12) {
		t.Fatalf("ExplainBurden %g != assigned %g", e.Burden, sec.BurdenFor(12))
	}
	if _, ok := p.ExplainBurden("nope", 4); ok {
		t.Fatal("unknown section found")
	}

	regs := p.Regions()
	if len(regs) != 1 || regs[0].Name != "hot" {
		t.Fatalf("regions = %+v", regs)
	}
	if regs[0].SelfParallelism < 15 || regs[0].SelfParallelism > 16.5 {
		t.Fatalf("self-parallelism = %g, want ~16", regs[0].SelfParallelism)
	}
}

// TestConcurrentUseOfLibrary: independent profiles and estimates may run
// from multiple goroutines (the calibration cache is shared).
func TestConcurrentUseOfLibrary(t *testing.T) {
	done := make(chan error, 8)
	for g := 0; g < 8; g++ {
		g := g
		go func() {
			prog := balancedProgram(8+g, 50_000)
			p, err := ProfileProgramCtx(context.Background(), prog, &Options{Machine: testMachine(4)})
			if err != nil {
				done <- err
				return
			}
			est := mustEstimate(t, p, Request{Method: FastForward, Threads: 4, Sched: Static, MemoryModel: true})
			if est.Speedup <= 0 {
				done <- errNonPositive
				return
			}
			done <- nil
		}()
	}
	for g := 0; g < 8; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

var errNonPositive = fmt.Errorf("non-positive speedup")

func TestAverageBurdensByNameOption(t *testing.T) {
	// Two dynamic executions of "mix": one memory-hot, one cold. The
	// averaged policy must give both the same factor.
	prog := func(ctx Context) {
		for exec := 0; exec < 2; exec++ {
			ctx.SecBegin("mix")
			for i := 0; i < 8; i++ {
				ctx.TaskBegin("t")
				if exec == 0 {
					ctx.Compute(10_000, 2_500) // hot
				} else {
					ctx.Compute(100_000, 0) // cold
				}
				ctx.TaskEnd()
			}
			ctx.SecEnd(false)
		}
	}
	avg, err := ProfileProgramCtx(context.Background(), prog, &Options{Machine: testMachine(12), AverageBurdensByName: true, CompressTolerance: -1})
	if err != nil {
		t.Fatal(err)
	}
	secs := avg.Tree.TopLevelSections()
	if len(secs) != 2 {
		t.Fatalf("sections = %d", len(secs))
	}
	if secs[0].BurdenFor(12) != secs[1].BurdenFor(12) {
		t.Fatalf("averaged burdens differ: %g vs %g", secs[0].BurdenFor(12), secs[1].BurdenFor(12))
	}
	perExec, err := ProfileProgramCtx(context.Background(), prog, &Options{Machine: testMachine(12), CompressTolerance: -1})
	if err != nil {
		t.Fatal(err)
	}
	pe := perExec.Tree.TopLevelSections()
	if pe[0].BurdenFor(12) == pe[1].BurdenFor(12) {
		t.Fatal("per-execution burdens unexpectedly equal")
	}
	// The average lies between the per-execution factors.
	lo, hi := pe[1].BurdenFor(12), pe[0].BurdenFor(12)
	if lo > hi {
		lo, hi = hi, lo
	}
	got := secs[0].BurdenFor(12)
	if got < lo-1e-9 || got > hi+1e-9 {
		t.Fatalf("average %g outside [%g, %g]", got, lo, hi)
	}
}

func TestHostProfilePublicAPI(t *testing.T) {
	hp := NewHostProfile()
	ctx := hp.Context()
	// A tiny real computation, annotated.
	data := make([]float64, 1<<14)
	ctx.SecBegin("fill")
	for b := 0; b < 8; b++ {
		ctx.TaskBegin("block")
		for i := b * len(data) / 8; i < (b+1)*len(data)/8; i++ {
			data[i] = float64(i) * 1.5
		}
		ctx.TaskEnd()
	}
	ctx.SecEnd(false)
	prof, err := hp.Finish(&Options{Machine: testMachine(4), DisableMemoryModel: true})
	if err != nil {
		t.Fatal(err)
	}
	if data[100] != 150 {
		t.Fatal("real computation did not run")
	}
	if prof.SerialCycles <= 0 {
		t.Fatal("no time measured")
	}
	sec := prof.Tree.TopLevelSections()
	if len(sec) != 1 || sec[0].Tasks() > 8 {
		t.Fatalf("tree shape: %d sections", len(sec))
	}
	est := mustEstimate(t, prof, Request{Method: FastForward, Threads: 4, Sched: Static})
	if est.Speedup <= 0 {
		t.Fatalf("estimate %+v", est)
	}
}

func TestHostProfileErrorsSurface(t *testing.T) {
	hp := NewHostProfileHz(1e9)
	hp.Context().TaskBegin("orphan")
	if _, err := hp.Finish(nil); err == nil {
		t.Fatal("annotation error not surfaced")
	}
}

func TestTimeline(t *testing.T) {
	p, err := ProfileProgramCtx(context.Background(), balancedProgram(8, 50_000), &Options{Machine: testMachine(4), DisableMemoryModel: true})
	if err != nil {
		t.Fatal(err)
	}
	gantt, util, err := p.TimelineCtx(context.Background(), Request{Threads: 4, Sched: Static}, 60)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(gantt, "core  0") || !strings.Contains(gantt, "core  3") {
		t.Fatalf("timeline missing cores:\n%s", gantt)
	}
	if len(util) == 0 {
		t.Fatal("no utilization")
	}
	for core, u := range util {
		if u <= 0 || u > 1.01 {
			t.Fatalf("core %d utilization %.2f out of range", core, u)
		}
	}
}
