package baseline

import (
	"context"
	"math"
	"testing"
	"testing/quick"

	"prophet/internal/clock"
	"prophet/internal/omprt"
	"prophet/internal/tree"
)

func TestAmdahlKnownValues(t *testing.T) {
	if got := Amdahl(1, 8); math.Abs(got-8) > 1e-12 {
		t.Errorf("fully parallel on 8 = %g, want 8", got)
	}
	if got := Amdahl(0, 8); got != 1 {
		t.Errorf("fully serial = %g, want 1", got)
	}
	// Classic: f=0.95, p=inf-ish -> bounded by 20.
	if got := Amdahl(0.95, 1_000_000); math.Abs(got-20) > 0.01 {
		t.Errorf("f=0.95 bound = %g, want ~20", got)
	}
	// Clamps.
	if got := Amdahl(1.5, 4); math.Abs(got-4) > 1e-12 {
		t.Errorf("clamped f: %g", got)
	}
	if got := Amdahl(0.5, 0); got != 1 {
		t.Errorf("p=0: %g", got)
	}
}

// karpFlatt returns the experimentally determined serial fraction e from
// a measured speedup s on p processors, e = (1/s − 1/p) / (1 − 1/p): the
// Karp–Flatt metric, the inverse of Amdahl's law that
// TestAmdahlKarpFlattInverse checks Amdahl against.
func karpFlatt(s float64, p int) float64 {
	if p <= 1 || s <= 0 {
		return 1
	}
	return (1/s - 1/float64(p)) / (1 - 1/float64(p))
}

func TestKarpFlatt(t *testing.T) {
	// Perfect speedup => serial fraction 0.
	if got := karpFlatt(8, 8); math.Abs(got) > 1e-12 {
		t.Errorf("perfect: %g, want 0", got)
	}
	// No speedup => serial fraction 1.
	if got := karpFlatt(1, 8); math.Abs(got-1) > 1e-12 {
		t.Errorf("none: %g, want 1", got)
	}
	if got := karpFlatt(2, 1); got != 1 {
		t.Errorf("p=1 degenerate: %g", got)
	}
}

// Property: Amdahl <= p always; Karp-Flatt inverts Amdahl.
func TestAmdahlKarpFlattInverse(t *testing.T) {
	f := func(fr uint8, p8 uint8) bool {
		fv := float64(fr%101) / 100
		p := int(p8%31) + 2
		s := Amdahl(fv, p)
		if s > float64(p)+1e-9 {
			return false
		}
		e := karpFlatt(s, p)
		return math.Abs(e-(1-fv)) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestParallelFraction(t *testing.T) {
	root := tree.NewRoot(
		tree.NewU(300),
		tree.NewSec("s", tree.NewTask("t", tree.NewU(700))),
	)
	if got := ParallelFraction(root); math.Abs(got-0.7) > 1e-12 {
		t.Fatalf("fraction = %g, want 0.7", got)
	}
	if got := ParallelFraction(tree.NewRoot()); got != 0 {
		t.Fatalf("empty fraction = %g", got)
	}
	if got := AmdahlFromTree(root, 1000000); math.Abs(got-1/0.3) > 0.01 {
		t.Fatalf("Amdahl bound = %g, want ~3.33", got)
	}
}

func TestCriticalPath(t *testing.T) {
	// Section with tasks 100 and 300: T1=400, Tinf=300.
	root := tree.NewRoot(tree.NewSec("s",
		tree.NewTask("a", tree.NewU(100)),
		tree.NewTask("b", tree.NewU(300)),
	))
	t1, tinf := CriticalPath(root)
	if t1 != 400 || tinf != 300 {
		t.Fatalf("critical path = (%d, %d), want (400, 300)", t1, tinf)
	}
}

func TestCriticalPathNested(t *testing.T) {
	// Task = U100 then nested section of two 200-tasks: span = 100+200.
	inner := tree.NewSec("in",
		tree.NewTask("x", tree.NewU(200)),
		tree.NewTask("y", tree.NewU(200)),
	)
	root := tree.NewRoot(tree.NewSec("out",
		tree.NewTask("t", tree.NewU(100), inner),
	))
	t1, tinf := CriticalPath(root)
	if t1 != 500 {
		t.Fatalf("t1 = %d, want 500", t1)
	}
	if tinf != 300 {
		t.Fatalf("tinf = %d, want 300", tinf)
	}
}

func TestKismetBoundIsUpperBound(t *testing.T) {
	root := tree.NewRoot(tree.NewSec("s",
		tree.NewTask("a", tree.NewU(100)),
		tree.NewTask("b", tree.NewU(300)),
	))
	// p=2: bound = 400/max(300, 200) = 1.33.
	if got := KismetBound(root, 2); math.Abs(got-400.0/300) > 1e-12 {
		t.Fatalf("bound = %g, want %g", got, 400.0/300)
	}
	// p huge: bound -> T1/Tinf.
	if got := KismetBound(root, 1024); math.Abs(got-400.0/300) > 1e-12 {
		t.Fatalf("asymptotic bound = %g", got)
	}
	// Kismet can only bound from above: it ignores locks' serialization,
	// so a fully lock-bound loop still gets a bound of ~p.
	locked := tree.NewRoot(tree.NewSec("s",
		tree.NewTask("a", tree.NewL(1, 100)),
		tree.NewTask("b", tree.NewL(1, 100)),
	))
	if got := KismetBound(locked, 2); got < 1.99 {
		t.Fatalf("lock-blind bound = %g, want ~2 (Table I: upper bound only)", got)
	}
}

func TestSuitabilityIgnoresRequestedSchedule(t *testing.T) {
	// Suitability has one scheduling model; the paper found it close to
	// (dynamic,1). Its estimate must match the FF's dynamic,1 shape
	// rather than static's on an imbalanced loop.
	tasks := make([]*tree.Node, 16)
	for i := range tasks {
		tasks[i] = tree.NewTask("t", tree.NewU(clock.Cycles((i+1)*10_000)))
	}
	root := tree.NewRoot(tree.NewSec("s", tasks...))
	got := suitability(t, 4, root)
	if got < 3.0 || got > 4.0 {
		t.Fatalf("suitability on imbalanced loop = %g, want dynamic-like ~3.5+", got)
	}
}

// suitability is the Suitability estimate at threads, failing the test on
// an error.
func suitability(t *testing.T, threads int, root *tree.Node) float64 {
	t.Helper()
	s, err := (&Suitability{Threads: threads}).SpeedupCtx(context.Background(), root)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestSuitabilityOverheadsCoarser(t *testing.T) {
	so := SuitabilityOverheads()
	// Must be strictly coarser than the calibrated runtime constants.
	base := omprt.DefaultOverheads()
	if so.ForkPerThread <= base.ForkPerThread || so.JoinBarrier <= base.JoinBarrier {
		t.Fatalf("suitability overheads not coarser: %+v", so)
	}
}

// TestSuitabilityPowerOfTwoInterpolation: the paper's Fig. 12 caption —
// Suitability only reports 2^N CPU counts; 6/10/12 are interpolated.
func TestSuitabilityPowerOfTwoInterpolation(t *testing.T) {
	tasks := make([]*tree.Node, 64)
	for i := range tasks {
		tasks[i] = tree.NewTask("t", tree.NewU(clock.Cycles(50_000)))
	}
	root := tree.NewRoot(tree.NewSec("s", tasks...))
	s4 := suitability(t, 4, root)
	s6 := suitability(t, 6, root)
	s8 := suitability(t, 8, root)
	// 6 is exactly the midpoint of the 4 and 8 estimates.
	if math.Abs(s6-(s4+s8)/2) > 1e-9 {
		t.Fatalf("interp(6) = %g, want midpoint of %g and %g", s6, s4, s8)
	}
	// 12 interpolates between 8 and 16.
	s12 := suitability(t, 12, root)
	s16 := suitability(t, 16, root)
	if math.Abs(s12-(s8+s16)/2) > 1e-9 {
		t.Fatalf("interp(12) = %g, want midpoint of %g and %g", s12, s8, s16)
	}
	// Powers of two are native (no interpolation artifacts).
	if s8 <= s4 {
		t.Fatalf("suitability not scaling: s4=%g s8=%g", s4, s8)
	}
}
