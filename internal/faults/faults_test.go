// The stability suite: under seeded fault injection the prediction
// pipeline must (a) stay byte-for-byte reproducible for a fixed seed,
// (b) drift only boundedly under measurement noise, and (c) fail only
// with typed errors — never a panic, never a hang — under structural
// faults. Run with -race in CI (the fault-injection job).
package faults_test

import (
	"context"
	"errors"
	"math"
	"reflect"
	"testing"
	"time"

	"prophet"
	"prophet/internal/clock"
	"prophet/internal/faults"
	"prophet/internal/machine"
	"prophet/internal/sim"
	"prophet/internal/trace"
	"prophet/internal/tree"
)

// memProg is a memory-heavy annotated program: sections of parallel
// tasks whose counter deltas are large relative to ±2% noise, so the
// memory model has a real signal to perturb.
func memProg(sections, tasks int) trace.Program {
	return func(ctx trace.Context) {
		for s := 0; s < sections; s++ {
			ctx.Compute(50_000, 0)
			ctx.SecBegin("hot")
			for t := 0; t < tasks; t++ {
				ctx.TaskBegin("iter")
				ctx.Compute(200_000, 4_000)
				ctx.TaskEnd()
			}
			ctx.SecEnd(false)
		}
		ctx.Compute(50_000, 0)
	}
}

// profileNoisy profiles prog under the injector's tracer hooks and wraps
// the tree in a prophet Profile (burdens assigned from the per-section
// counters the noise perturbed).
func profileNoisy(t *testing.T, in *faults.Injector, prog trace.Program) *prophet.Profile {
	t.Helper()
	p := trace.NewSimProfiler(machine.Default())
	p.WithHooks(in.TraceHooks())
	prog(p)
	root, err := p.Finish()
	if err != nil {
		t.Fatalf("Finish: %v", err)
	}
	prof, err := prophet.ProfileTreeCtx(context.Background(), root, &prophet.Options{})
	if err != nil {
		t.Fatalf("ProfileTreeCtx: %v", err)
	}
	return prof
}

func estimate(t *testing.T, prof *prophet.Profile) float64 {
	t.Helper()
	est, err := prof.EstimateCtx(context.Background(), prophet.Request{
		Method: prophet.FastForward, Threads: 8, MemoryModel: true,
	})
	if err != nil {
		t.Fatalf("EstimateCtx: %v", err)
	}
	if est.Speedup <= 0 {
		t.Fatalf("Speedup = %v, want > 0", est.Speedup)
	}
	return est.Speedup
}

// TestSeededNoiseIsReproducible: the whole faulty pipeline — noisy
// counters, then burden assignment, then FF emulation — must be byte for
// byte identical across two injectors built from the same config: same
// tree, bit-identical speedup.
func TestSeededNoiseIsReproducible(t *testing.T) {
	cfg := faults.Config{Seed: 42, CounterNoise: 0.02}
	prog := memProg(4, 16)

	prof1 := profileNoisy(t, faults.New(cfg), prog)
	prof2 := profileNoisy(t, faults.New(cfg), prog)
	if !reflect.DeepEqual(prof1.Tree, prof2.Tree) {
		t.Fatal("same seed produced different program trees")
	}
	s1, s2 := estimate(t, prof1), estimate(t, prof2)
	if math.Float64bits(s1) != math.Float64bits(s2) {
		t.Fatalf("same seed: speedup %v vs %v (bits differ)", s1, s2)
	}

	// A different seed must be allowed to differ — the injector is not
	// secretly ignoring its stream.
	prof3 := profileNoisy(t, faults.New(faults.Config{Seed: 43, CounterNoise: 0.02}), prog)
	if reflect.DeepEqual(prof1.Tree, prof3.Tree) {
		// Trees hold counters; 2% noise on 4 sections changing nothing
		// would mean the hook never ran.
		t.Fatal("different seeds produced identical noisy trees")
	}
}

// TestCounterNoiseBoundedSpeedupDrift: ±2% counter noise may move the
// predicted speedup, but only boundedly — the memory model must not
// amplify measurement noise into a qualitatively different prediction.
func TestCounterNoiseBoundedSpeedupDrift(t *testing.T) {
	prog := memProg(4, 16)
	clean := estimate(t, profileNoisy(t, faults.New(faults.Config{}), prog))

	for seed := int64(1); seed <= 5; seed++ {
		in := faults.New(faults.Config{Seed: seed, CounterNoise: 0.02})
		noisy := estimate(t, profileNoisy(t, in, prog))
		drift := math.Abs(noisy-clean) / clean
		if drift > 0.10 {
			t.Errorf("seed %d: speedup %.4f vs clean %.4f — drift %.1f%% exceeds 10%%",
				seed, noisy, clean, 100*drift)
		}
	}
}

// TestDroppedAndDuplicatedEventsFailTyped: structural annotation faults
// must yield either a typed error (errors.Is against the prophet
// sentinels) or a tree that still validates — never a panic, never a
// silently corrupt profile.
func TestDroppedAndDuplicatedEventsFailTyped(t *testing.T) {
	prog := memProg(3, 8)
	cases := []faults.Config{
		{Seed: 1, DropEveryN: 3},
		{Seed: 2, DropEveryN: 5},
		{Seed: 3, DropEveryN: 7},
		{Seed: 4, DupEveryN: 3},
		{Seed: 5, DupEveryN: 5},
		{Seed: 6, DropEveryN: 4, DupEveryN: 9},
	}
	for _, cfg := range cases {
		in := faults.New(cfg)
		prof, err := prophet.ProfileProgramCtx(context.Background(), in.Program(prog), &prophet.Options{
			DisableMemoryModel: true,
		})
		switch {
		case err == nil:
			if verr := prof.Tree.Validate(); verr != nil {
				t.Errorf("%+v: accepted profile with invalid tree: %v", cfg, verr)
			}
		case errors.Is(err, prophet.ErrAnnotationMismatch),
			errors.Is(err, prophet.ErrMalformedTree):
			// typed failure — the contract
		default:
			t.Errorf("%+v: untyped error %[2]T: %[2]v", cfg, err)
		}
	}
}

// exactMachine is the paper machine cut to two cores, with a 10k-cycle
// quantum and free context switches.
func exactMachine() sim.Config {
	s := machine.Default().WithCores("t-faults2", 2)
	s.Quantum, s.ContextSwitch = 10_000, 0
	return sim.Config{Spec: s}
}

// TestQuantumJitterIsDeterministic: jittered machine runs reproduce
// exactly for a fixed seed; the jitter stream actually perturbs the
// schedule (different seeds may differ).
func TestQuantumJitterIsDeterministic(t *testing.T) {
	cfg := exactMachine()
	run := func(seed int64) clock.Cycles {
		in := faults.New(faults.Config{Seed: seed, QuantumJitter: 0.25})
		total, _, err := sim.Run(context.Background(), cfg, sim.RunOpts{Faults: in.SimFaults()}, func(th *sim.Thread) {
			a := th.Spawn(func(th *sim.Thread) { th.Work(300_000) })
			b := th.Spawn(func(th *sim.Thread) { th.Work(300_000) })
			th.Work(300_000)
			th.Join(a)
			th.Join(b)
		})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		return total
	}
	if a, b := run(7), run(7); a != b {
		t.Fatalf("same seed: makespan %d vs %d", a, b)
	}
}

// TestBandwidthDegradeSlowsMemoryBoundRun: halving DRAM bandwidth must
// not speed a memory-bound parallel run up, and should measurably slow
// it down.
func TestBandwidthDegradeSlowsMemoryBoundRun(t *testing.T) {
	cfg := sim.Config{Spec: machine.Default().WithCores("t-faults8", 8)}
	run := func(hooks *sim.FaultHooks) clock.Cycles {
		total, _, err := sim.Run(context.Background(), cfg, sim.RunOpts{Faults: hooks}, func(th *sim.Thread) {
			var ts []*sim.Thread
			for i := 0; i < 7; i++ {
				ts = append(ts, th.Spawn(func(th *sim.Thread) {
					th.WorkMem(100_000, 10_000)
				}))
			}
			th.WorkMem(100_000, 10_000)
			for _, o := range ts {
				th.Join(o)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return total
	}
	clean := run(nil)
	degraded := run(faults.New(faults.Config{Seed: 1, BandwidthDegrade: 0.5}).SimFaults())
	if degraded <= clean {
		t.Fatalf("degraded bus finished in %d cycles, clean in %d — degradation had no effect", degraded, clean)
	}
}

// TestClockSkewStillProducesValidTree: a profiler reading a skewed clock
// (the paper's cross-core rdtsc hazard) must still emit a structurally
// valid tree — skew perturbs lengths, never structure, and the clock
// layer's monotonicity clamp keeps every gap non-negative.
func TestClockSkewStillProducesValidTree(t *testing.T) {
	in := faults.New(faults.Config{Seed: 11, ClockSkewCycles: 500})
	v := &clock.Virtual{}
	tr := trace.New(in.Clock(v), nil)

	const tasks = 10
	v.Advance(10_000)
	tr.SecBegin("sec")
	for i := 0; i < tasks; i++ {
		tr.TaskBegin("t")
		v.Advance(30_000)
		tr.TaskEnd()
	}
	tr.SecEnd(false)
	v.Advance(10_000)
	root, err := tr.Finish()
	if err != nil {
		t.Fatalf("Finish under clock skew: %v", err)
	}
	if err := root.Validate(); err != nil {
		t.Fatalf("skewed tree invalid: %v", err)
	}
	var secs int
	for _, c := range root.Children {
		if c.Kind == tree.Sec {
			secs++
			if len(c.Children) != tasks {
				t.Fatalf("section has %d tasks, want %d", len(c.Children), tasks)
			}
		}
	}
	if secs != 1 {
		t.Fatalf("%d sections, want 1", secs)
	}
}

// TestFaultsComposeWithTypedFailures: with jitter active, a deadlocked
// run still comes back as ErrDeadlock well inside its deadline, and a
// runaway loop still trips the event budget — fault injection must not
// degrade the failure taxonomy.
func TestFaultsComposeWithTypedFailures(t *testing.T) {
	in := faults.New(faults.Config{Seed: 3, QuantumJitter: 0.25})
	cfg := exactMachine()

	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	start := time.Now()
	_, _, err := sim.Run(ctx, cfg, sim.RunOpts{Faults: in.SimFaults()}, func(th *sim.Thread) {
		o := th.Spawn(func(th *sim.Thread) {
			th.Lock(2)
			th.Work(10_000)
			th.Lock(1)
		})
		th.Lock(1)
		th.Work(10_000)
		th.Lock(2)
		th.Join(o)
	})
	if !errors.Is(err, sim.ErrDeadlock) {
		t.Fatalf("deadlock under jitter: err = %v, want ErrDeadlock", err)
	}
	if el := time.Since(start); el >= time.Second {
		t.Fatalf("deadlock detection took %v, want well under the 1s deadline", el)
	}

	budget := cfg
	budget.MaxEvents = 1_000
	_, _, err = sim.Run(context.Background(), budget, sim.RunOpts{Faults: in.SimFaults()}, func(th *sim.Thread) {
		for {
			th.Work(1)
		}
	})
	if !errors.Is(err, sim.ErrBudgetExceeded) {
		t.Fatalf("runaway loop under jitter: err = %v, want ErrBudgetExceeded", err)
	}
}

// TestZeroConfigIsPassThrough: a zero config must return nil/pass-through
// adapters so the hooks cost nothing in production paths.
func TestZeroConfigIsPassThrough(t *testing.T) {
	in := faults.New(faults.Config{})
	if h := in.TraceHooks(); h.OnEvent != nil || h.CounterNoise != nil {
		t.Error("zero config produced non-nil trace hooks")
	}
	if in.SimFaults() != nil {
		t.Error("zero config produced non-nil sim hooks")
	}
	v := &clock.Virtual{}
	if in.Clock(v) != clock.Clock(v) {
		t.Error("zero config wrapped the clock")
	}
}
