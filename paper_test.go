package prophet_test

// This file consolidates the paper's headline claims into one suite, so a
// reviewer can check the reproduction's fidelity in a single place. Each
// test names the claim, the paper location, and what "reproduced" means
// here (exact number, or shape). Deeper variants live next to the
// implementing packages; EXPERIMENTS.md holds the full numbers.

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"prophet"
	"prophet/internal/compress"
	"prophet/internal/ff"
	"prophet/internal/memmodel"
	"prophet/internal/omprt"
	"prophet/internal/sim"
	"prophet/internal/trace"
	"prophet/internal/tree"
	"prophet/internal/workloads"
)

// mustEstimate is p.EstimateCtx, failing the test on a failed estimate.
func mustEstimate(t testing.TB, p *prophet.Profile, req prophet.Request) prophet.Estimate {
	t.Helper()
	est, err := p.EstimateCtx(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	return est
}

// mustReal is p.RealSpeedupCtx, failing the test on a failed run.
func mustReal(t testing.TB, p *prophet.Profile, req prophet.Request) float64 {
	t.Helper()
	s, err := p.RealSpeedupCtx(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// Claim (Fig. 5): for the three-iteration loop with a lock on two cores,
// the FF emulates (static,1) to 1150 cycles, (static) to 1250 and
// (dynamic,1) to 900 (the paper's 950 includes its dispatch-overhead ε).
func TestClaimFig5ExactSchedules(t *testing.T) {
	i0 := tree.NewTask("i0", tree.NewU(150), tree.NewL(1, 450), tree.NewU(50))
	i1 := tree.NewTask("i1", tree.NewU(100), tree.NewL(1, 300), tree.NewU(200))
	i2 := tree.NewTask("i2", tree.NewU(150), tree.NewU(50), tree.NewU(50))
	root := tree.NewRoot(tree.NewSec("loop", i0, i1, i2))
	want := map[string]int64{"(static,1)": 1150, "(static)": 1250, "(dynamic,1)": 900}
	for _, sched := range []omprt.Sched{omprt.SchedStatic1, omprt.SchedStatic, omprt.SchedDynamic1} {
		e := &ff.Emulator{Threads: 2, Sched: sched}
		d, err := e.PredictTimeCtx(context.Background(), root)
		if err != nil {
			t.Fatal(err)
		}
		if got := int64(d); got != want[sched.String()] {
			t.Errorf("%v: %d cycles, paper walkthrough says %d", sched, got, want[sched.String()])
		}
	}
}

// Claim (Fig. 7, §IV-D/E): a two-level nested loop on a dual-core really
// achieves ~2.0x; the FF and Suitability predict ~1.5x; the synthesizer
// matches reality.
func TestClaimFig7NestedLimitation(t *testing.T) {
	scale := prophet.Cycles(20_000)
	la := tree.NewSec("A", tree.NewTask("a0", tree.NewU(10*scale)), tree.NewTask("a1", tree.NewU(5*scale)))
	lb := tree.NewSec("B", tree.NewTask("b0", tree.NewU(5*scale)), tree.NewTask("b1", tree.NewU(10*scale)))
	root := tree.NewRoot(tree.NewSec("L1", tree.NewTask("t0", la), tree.NewTask("t1", lb)))
	mc := sim.Config{Cores: 2, Quantum: 10_000, ContextSwitch: -1}
	p, err := prophet.ProfileTreeCtx(context.Background(), root, &prophet.Options{Machine: mc, DisableMemoryModel: true, CompressTolerance: -1})
	if err != nil {
		t.Fatal(err)
	}
	ffS, err := (&ff.Emulator{Threads: 2, Sched: omprt.SchedStatic1}).SpeedupCtx(context.Background(), root)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(ffS-1.5) > 1e-9 {
		t.Errorf("FF = %.3f, paper says exactly 1.5", ffS)
	}
	real := mustReal(t, p, prophet.Request{Threads: 2, Sched: prophet.Static1})
	syn := mustEstimate(t, p, prophet.Request{Method: prophet.Synthesizer, Threads: 2, Sched: prophet.Static1}).Speedup
	if real < 1.9 || syn < 1.9 {
		t.Errorf("real %.2f / synthesizer %.2f, paper says ~2.0", real, syn)
	}
}

// Claim (§V-D, Eq. 7): the per-miss stall is a negative power law of the
// achieved traffic, ω = a·δ^b with b ≈ −1 (the paper fits −0.964 on real
// hardware; the streaming identity gives exactly −1).
func TestClaimEq7PowerLaw(t *testing.T) {
	m, _, err := memmodel.CalibrateCtx(context.Background(), sim.Config{Cores: 12, Quantum: 10_000, ContextSwitch: -1},
		[]int{2, 4, 6, 8, 10, 12})
	if err != nil {
		t.Fatal(err)
	}
	if m.Phi.B > -0.9 || m.Phi.B < -1.1 {
		t.Errorf("Phi exponent = %.3f, want ~-1 (paper: -0.964)", m.Phi.B)
	}
}

// Claim (Fig. 2): NPB-FT's speedup saturates from memory traffic; without
// the memory model the prediction badly overestimates, with it the
// prediction tracks reality.
func TestClaimFig2FTSaturation(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	w, _ := workloads.ByName("NPB-FT")
	mc := sim.Config{Cores: 12, Quantum: 10_000, ContextSwitch: -1}
	p, err := prophet.ProfileProgramCtx(context.Background(), w.Program, &prophet.Options{Machine: mc})
	if err != nil {
		t.Fatal(err)
	}
	base := prophet.Request{Threads: 12, Paradigm: w.Paradigm, Sched: w.Sched}
	real := mustReal(t, p, base)
	predReq := base
	predReq.Method = prophet.Synthesizer
	pred := mustEstimate(t, p, predReq).Speedup
	predMReq := predReq
	predMReq.MemoryModel = true
	predM := mustEstimate(t, p, predMReq).Speedup
	if real > 9 {
		t.Errorf("FT real = %.1f on 12 cores; should saturate well below 12", real)
	}
	if pred < real*1.3 {
		t.Errorf("Pred = %.1f should clearly overestimate real %.1f", pred, real)
	}
	if e := math.Abs(predM-real) / real; e > 0.30 {
		t.Errorf("PredM %.1f vs real %.1f: %.0f%% (paper bound: ~30%%)", predM, real, 100*e)
	}
}

// Claim (§VI-B): regular benchmark trees compress almost entirely (the
// paper: 93% for CG, IS the largest tree); irregular recursion compresses
// less.
func TestClaimCompressionRegularVsIrregular(t *testing.T) {
	reduction := func(name string) float64 {
		w, _ := workloads.ByName(name)
		root, _, err := trace.Profile(w.Program, sim.Config{}.Normalized().DRAM)
		if err != nil {
			t.Fatal(err)
		}
		st := compress.Compress(root, compress.Options{Tolerance: compress.DefaultTolerance})
		return st.Reduction()
	}
	if r := reduction("NPB-IS"); r < 0.99 {
		t.Errorf("IS reduction = %.3f, want >= 0.99", r)
	}
	if r := reduction("NPB-CG"); r < 0.93 {
		t.Errorf("CG reduction = %.3f, want >= 0.93 (the paper's figure)", r)
	}
	if r := reduction("QSort-Cilk"); r > 0.90 {
		t.Errorf("QSort reduction = %.3f; irregular recursion should compress less", r)
	}
}

// Claim (§VII-B): the FF's average error on single-level random programs
// (Test1) is a few percent — small enough for interactive use.
func TestClaimTest1Accuracy(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	mc := sim.Config{Cores: 12, Quantum: 10_000, ContextSwitch: -1}
	var sumErr float64
	n := 0
	// 20 samples keep the suite fast; cmd/ppexp runs the full 300.
	rng := rand.New(rand.NewSource(20120521))
	for i := 0; i < 20; i++ {
		prog := workloads.RandomTest1(rng).Program()
		p, err := prophet.ProfileProgramCtx(context.Background(), prog, &prophet.Options{Machine: mc, DisableMemoryModel: true})
		if err != nil {
			t.Fatal(err)
		}
		req := prophet.Request{Threads: 8, Sched: prophet.Static1}
		real := mustReal(t, p, req)
		pred := mustEstimate(t, p, req).Speedup
		sumErr += math.Abs(pred-real) / real
		n++
	}
	if avg := sumErr / float64(n); avg > 0.06 {
		t.Errorf("Test1 FF avg error = %.1f%%, paper reports <4%%", 100*avg)
	}
}
