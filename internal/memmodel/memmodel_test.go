package memmodel

import (
	"context"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"prophet/internal/clock"
	"prophet/internal/counters"
	"prophet/internal/machine"
	"prophet/internal/sim"
	"prophet/internal/tree"
)

func TestPaperModelPhiMatchesEq7(t *testing.T) {
	m := PaperModel()
	// Eq. (7): ω = 101481·δ^-0.964; spot-check δ = 2000 MB/s.
	want := 101481 * math.Pow(2000, -0.964)
	if got := m.Omega(2000); math.Abs(got-want)/want > 1e-9 {
		t.Fatalf("Omega(2000) = %g, want %g", got, want)
	}
}

func TestPaperModelPsiMatchesEq6(t *testing.T) {
	m := PaperModel()
	// Eq. (6): δ2 = (1.35·δ + 1758)/2 at δ = 4000 -> 3579.
	p := m.Psi[2]
	if got, want := p.Eval(4000), (1.35*4000+1758)/2; math.Abs(got-want) > 1e-9 {
		t.Fatalf("Psi2(4000) = %g, want %g", got, want)
	}
	// δ12 = (6314·ln δ − 39621)/12 at δ = 8000.
	p12 := m.Psi[12]
	want := (6314*math.Log(8000) - 39621) / 12
	if got := p12.Eval(8000); math.Abs(got-want) > 1e-6 {
		t.Fatalf("Psi12(8000) = %g, want %g", got, want)
	}
}

func TestPsiClampedToSerialTraffic(t *testing.T) {
	// Per-thread achieved traffic can never exceed the unconstrained
	// serial traffic.
	p := Psi{Kind: PsiLinear, A: 2, B: 1000} // nonsense fit that overshoots
	if got := p.Eval(500); got > 500 {
		t.Fatalf("Psi not clamped: %g > 500", got)
	}
	if got := p.Eval(0.0001); got < 1 {
		t.Fatalf("Psi floor broken: %g", got)
	}
}

// lowTrafficSample is EP-like: almost no misses.
func lowTrafficSample() counters.Sample {
	return counters.Sample{Instructions: 1_000_000, Cycles: 1_050_000, LLCMisses: 100}
}

// heavyTrafficSample is FT-like: one miss every 20 instructions.
func heavyTrafficSample() counters.Sample {
	n := int64(1_000_000)
	d := n / 20
	return counters.Sample{
		Instructions: n,
		Cycles:       clock.Cycles(float64(n) + 40*float64(d)),
		LLCMisses:    d,
	}
}

func TestBurdenGates(t *testing.T) {
	m := PaperModel()
	if b := m.Burden(lowTrafficSample(), 12); b != 1 {
		t.Fatalf("low-MPI burden = %g, want 1 (Assumption 5)", b)
	}
	if b := m.Burden(heavyTrafficSample(), 1); b != 1 {
		t.Fatalf("single-thread burden = %g, want 1", b)
	}
	if b := m.Burden(counters.Sample{}, 8); b != 1 {
		t.Fatalf("empty-sample burden = %g, want 1", b)
	}
}

func TestBurdenGrowsWithThreads(t *testing.T) {
	m := PaperModel()
	s := heavyTrafficSample()
	b2 := m.Burden(s, 2)
	b4 := m.Burden(s, 4)
	b12 := m.Burden(s, 12)
	if b2 < 1 || b4 < b2-1e-9 || b12 < b4-1e-9 {
		t.Fatalf("burden not monotone: b2=%g b4=%g b12=%g", b2, b4, b12)
	}
	if b12 <= 1.05 {
		t.Fatalf("heavy-traffic 12-thread burden = %g, want clearly > 1", b12)
	}
	if b12 > 6 {
		t.Fatalf("burden implausibly large: %g", b12)
	}
}

func TestBurdenAtLeastOne(t *testing.T) {
	m := PaperModel()
	samples := []counters.Sample{
		lowTrafficSample(),
		heavyTrafficSample(),
		{Instructions: 10, Cycles: 10_000, LLCMisses: 9},
	}
	for _, s := range samples {
		for _, th := range []int{2, 3, 4, 6, 8, 12, 16} {
			if b := m.Burden(s, th); b < 1 {
				t.Fatalf("burden < 1: %g for %+v x%d", b, s, th)
			}
		}
	}
}

func TestPsiInterpolationForUncalibratedCounts(t *testing.T) {
	m := PaperModel() // has 2, 4, 8, 12
	s := heavyTrafficSample()
	b6 := m.Burden(s, 6)
	b4 := m.Burden(s, 4)
	b8 := m.Burden(s, 8)
	lo, hi := math.Min(b4, b8), math.Max(b4, b8)
	if b6 < lo-0.2 || b6 > hi+0.2 {
		t.Fatalf("burden(6)=%g not near [%g, %g]", b6, lo, hi)
	}
	// Above the calibrated range: clamps to the largest.
	if b := m.Burden(s, 64); b < m.Burden(s, 12)-1e-9 {
		t.Fatalf("burden(64)=%g below burden(12)", b)
	}
}

// simCfg is the paper machine with free context switches.
func simCfg() sim.Config {
	s := machine.Default().WithCores("t-memmodel", 12)
	s.ContextSwitch = 0
	return sim.Config{Spec: s}
}

func TestCalibrationShapes(t *testing.T) {
	m, data, err := CalibrateCtx(context.Background(), simCfg(), []int{2, 4, 6, 8, 10, 12})
	if err != nil {
		t.Fatalf("Calibrate: %v", err)
	}
	if len(data.Points) == 0 {
		t.Fatal("no calibration points")
	}
	// Eq. (7) analogue: Φ must be decreasing in δ (negative exponent).
	if m.Phi.B >= 0 {
		t.Fatalf("Phi exponent = %g, want negative (paper: -0.964)", m.Phi.B)
	}
	if m.Phi.B < -1.3 {
		t.Fatalf("Phi exponent = %g, implausibly steep", m.Phi.B)
	}
	// Ψ forms as in Eq. (6).
	if m.Psi[2].Kind != PsiLinear {
		t.Error("Psi[2] should be linear")
	}
	for _, th := range []int{4, 8, 12} {
		if m.Psi[th].Kind != PsiLog {
			t.Errorf("Psi[%d] should be log-linear", th)
		}
	}
	// Saturation: at high serial traffic, per-thread achieved traffic
	// must fall as threads increase.
	d := 3500.0
	p2 := m.Psi[2].Eval(d)
	p12 := m.Psi[12].Eval(d)
	if p12 >= p2 {
		t.Fatalf("Psi not saturating: psi2(%g)=%g <= psi12=%g", d, p2, p12)
	}
}

// TestCalibrationPredictsSaturatedSPMD is the paper's §VII-C validation
// claim: "in more than 300 samples that show speedup saturation, we were
// able to predict the speedups mostly within a 30% error bound". Here,
// SPMD memory-bound programs are run for real on the simulated machine and
// compared against the burden-factor prediction.
func TestCalibrationPredictsSaturatedSPMD(t *testing.T) {
	mc := simCfg()
	m, _, err := CalibrateCtx(context.Background(), mc, []int{2, 4, 6, 8, 10, 12})
	if err != nil {
		t.Fatal(err)
	}
	intensitiesUnderTest := []int64{4, 16, 48}
	threads := []int{4, 8, 12}
	checked, within := 0, 0
	for _, ipm := range intensitiesUnderTest {
		const d = 30_000 // misses per thread
		n := ipm * d
		serial := clock.Cycles(float64(n) + 40*float64(d))
		sample := counters.Sample{Instructions: n, Cycles: serial, LLCMisses: d}
		for _, th := range threads {
			// Real: th symmetric threads on the machine.
			end, _ := mustRun(t, mc, func(main *sim.Thread) {
				var ws []*sim.Thread
				body := func(w *sim.Thread) {
					w.WorkMem(clock.Cycles(n), d)
				}
				for i := 1; i < th; i++ {
					ws = append(ws, main.Spawn(body))
				}
				body(main)
				for _, w := range ws {
					main.Join(w)
				}
			})
			realSpeedup := float64(serial) * float64(th) / float64(end)
			// Predicted: ideal division by th, dilated by β.
			beta := m.Burden(sample, th)
			predSpeedup := float64(th) / beta
			checked++
			relErr := math.Abs(predSpeedup-realSpeedup) / realSpeedup
			if relErr <= 0.30 {
				within++
			}
		}
	}
	if checked == 0 {
		t.Fatal("no cases checked")
	}
	if frac := float64(within) / float64(checked); frac < 0.75 {
		t.Fatalf("only %.0f%% of saturated SPMD predictions within 30%% (paper: 'mostly')", 100*frac)
	}
}

func TestAssignBurdens(t *testing.T) {
	m := PaperModel()
	sec1 := tree.NewSec("hot", tree.NewTask("t", tree.NewU(100)))
	s := heavyTrafficSample()
	sec1.Counters = &s
	sec2 := tree.NewSec("cold", tree.NewTask("t", tree.NewU(100)))
	root := tree.NewRoot(sec1, sec2)
	m.AssignBurdens(root, []int{2, 4, 8, 12})
	if sec1.Burden == nil || sec1.Burden[12] <= 1 {
		t.Fatalf("hot section burden not assigned: %v", sec1.Burden)
	}
	if sec2.Burden != nil {
		t.Fatalf("counter-less section got burdens: %v", sec2.Burden)
	}
	if sec1.BurdenFor(12) != sec1.Burden[12] {
		t.Fatal("BurdenFor disagrees with map")
	}
}

func TestModelString(t *testing.T) {
	s := PaperModel().String()
	for _, want := range []string{"Phi:", "Psi[ 2]", "Psi[12]", "ln(d)"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() missing %q:\n%s", want, s)
		}
	}
}

// TestAssignBurdensAveraged: §V — multiple executions of the same static
// section share one averaged burden factor.
func TestAssignBurdensAveraged(t *testing.T) {
	m := PaperModel()
	hot := heavyTrafficSample()
	// Two executions of section "x": one hot, one cold.
	sec1 := tree.NewSec("x", tree.NewTask("t", tree.NewU(100)))
	sec1.Counters = &hot
	cold := counters.Sample{Instructions: 1_000_000, Cycles: 1_050_000, LLCMisses: 10}
	sec2 := tree.NewSec("x", tree.NewTask("t", tree.NewU(100)))
	sec2.Counters = &cold
	// A differently named section keeps its own factor.
	other := tree.NewSec("y", tree.NewTask("t", tree.NewU(100)))
	oc := hot
	other.Counters = &oc
	root := tree.NewRoot(sec1, sec2, other)

	m.AssignBurdensAveraged(root, []int{12})
	bHot := m.Burden(hot, 12)
	bCold := m.Burden(cold, 12)
	wantAvg := (bHot + bCold) / 2
	if math.Abs(sec1.Burden[12]-wantAvg) > 1e-12 || math.Abs(sec2.Burden[12]-wantAvg) > 1e-12 {
		t.Fatalf("averaged burden = %g/%g, want %g", sec1.Burden[12], sec2.Burden[12], wantAvg)
	}
	if math.Abs(other.Burden[12]-bHot) > 1e-12 {
		t.Fatalf("independent section burden = %g, want %g", other.Burden[12], bHot)
	}
}

// TestAssignBurdensAveragedWeightsRepeats: a Repeat-compressed section
// counts as Reps executions in the average.
func TestAssignBurdensAveragedWeightsRepeats(t *testing.T) {
	m := PaperModel()
	hot := heavyTrafficSample()
	cold := counters.Sample{Instructions: 1_000_000, Cycles: 1_050_000, LLCMisses: 10}
	s1 := tree.NewSec("x", tree.NewTask("t", tree.NewU(100)))
	s1.Counters = &hot
	s1.Repeat = 3
	s2 := tree.NewSec("x", tree.NewTask("t", tree.NewU(100)))
	s2.Counters = &cold
	root := tree.NewRoot(s1, s2)
	m.AssignBurdensAveraged(root, []int{12})
	bHot := m.Burden(hot, 12)
	bCold := m.Burden(cold, 12)
	want := (3*bHot + bCold) / 4
	if math.Abs(s1.Burden[12]-want) > 1e-12 {
		t.Fatalf("weighted average = %g, want %g", s1.Burden[12], want)
	}
}

// TestModelJSONRoundTrip: calibrate once, save, reload, identical burdens.
func TestModelJSONRoundTrip(t *testing.T) {
	orig := PaperModel()
	data, err := json.Marshal(orig)
	if err != nil {
		t.Fatal(err)
	}
	var back Model
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	s := heavyTrafficSample()
	for _, th := range []int{2, 4, 6, 8, 12} {
		a, b := orig.Burden(s, th), back.Burden(s, th)
		if math.Abs(a-b) > 1e-12 {
			t.Fatalf("t=%d: burden %g != %g after round trip", th, a, b)
		}
	}
	if _, err := json.Marshal(&back); err != nil {
		t.Fatal(err)
	}
	var bad Model
	if err := json.Unmarshal([]byte(`{"psi":[{"threads":2,"kind":"bogus"}]}`), &bad); err == nil {
		t.Fatal("bogus Psi kind accepted")
	}
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
