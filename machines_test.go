package prophet

import (
	"context"
	"errors"
	"testing"
)

// memoryHeavyProgram is an annotated loop whose tasks stream enough LLC
// misses to saturate a narrow memory bus — the workload that separates
// machines differing in bandwidth or core layout.
func memoryHeavyProgram(n int) Program {
	return func(ctx Context) {
		ctx.SecBegin("stream")
		for i := 0; i < n; i++ {
			ctx.TaskBegin("it")
			ctx.Compute(20_000, 600)
			ctx.TaskEnd()
		}
		ctx.SecEnd(false)
	}
}

// TestOneCalibrationPerMachine: a nil Spec and DefaultMachineSpec() are
// one machine, so they share one calibration and one name.
func TestOneCalibrationPerMachine(t *testing.T) {
	ctx := context.Background()
	configs := []MachineConfig{{}, {Spec: DefaultMachineSpec()}}
	var models []*MemModel
	for _, mc := range configs {
		m, err := CalibrateModelCtx(ctx, mc)
		if err != nil {
			t.Fatal(err)
		}
		models = append(models, m)
		p, err := ProfileProgramCtx(ctx, memoryHeavyProgram(4), &Options{Machine: mc, DisableMemoryModel: true})
		if err != nil {
			t.Fatal(err)
		}
		if got := p.MachineName(); got != DefaultMachineName {
			t.Errorf("MachineName() with %+v = %q, want %q", mc, got, DefaultMachineName)
		}
	}
	if models[0] != models[1] {
		t.Error("the default machine was calibrated twice: nil Spec and DefaultMachineSpec() returned different models")
	}
}

// TestEstimateMachineVariants drives the machine dimension end-to-end
// through the public API: naming the profile's own machine changes
// nothing, naming a preset re-profiles against it and yields a distinct
// deterministic prediction, and the estimate echoes the requested name.
func TestEstimateMachineVariants(t *testing.T) {
	p, err := ProfileProgramCtx(context.Background(), memoryHeavyProgram(24), nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := p.MachineName(); got != DefaultMachineName {
		t.Fatalf("MachineName() = %q, want %q", got, DefaultMachineName)
	}
	base := Request{Method: FastForward, Sched: Static, MemoryModel: true, Threads: 8}

	def := mustEstimate(t, p, base)

	// Naming the default machine explicitly is the identity: same
	// profile, same numbers, name echoed on the wire.
	named := base
	named.Machine = DefaultMachineName
	if got := mustEstimate(t, p, named); got.Speedup != def.Speedup || got.Time != def.Time {
		t.Errorf("explicit %s estimate %+v, want the default-machine result %+v", DefaultMachineName, got, def)
	}

	variants := map[string]Estimate{}
	for _, name := range []string{"embedded4+4", "hbm12"} {
		req := base
		req.Machine = name
		est := mustEstimate(t, p, req)
		if est.Machine != name {
			t.Errorf("%s: estimate carries machine %q", name, est.Machine)
		}
		if est.Speedup == def.Speedup {
			t.Errorf("%s: speedup %.3f identical to the default machine", name, est.Speedup)
		}
		// The variant cache makes repeats cheap; they must also be
		// deterministic.
		if again := mustEstimate(t, p, req); again.Speedup != est.Speedup || again.Time != est.Time {
			t.Errorf("%s: repeat estimate %+v differs from %+v", name, again, est)
		}
		variants[name] = est
	}
	// The wider memory bus must beat the embedded part outright.
	if variants["hbm12"].Speedup <= variants["embedded4+4"].Speedup {
		t.Errorf("hbm12 speedup %.3f not above embedded4+4 %.3f",
			variants["hbm12"].Speedup, variants["embedded4+4"].Speedup)
	}

	// Thread default follows the variant machine's core count.
	req := Request{Method: FastForward, Sched: Static, Machine: "embedded4+4"}
	if est := mustEstimate(t, p, req); est.Threads != 8 {
		t.Errorf("embedded4+4 defaulted threads = %d, want 8", est.Threads)
	}

	// Unknown names surface the typed sentinel.
	req = base
	req.Machine = "no-such-machine"
	est, err := p.EstimateCtx(context.Background(), req)
	if !errors.Is(err, ErrUnknownMachine) || !errors.Is(est.Err, ErrUnknownMachine) {
		t.Errorf("unknown machine error = %v (Err field %v), want ErrUnknownMachine", err, est.Err)
	}
}

// TestMachineVariantGroundTruth runs the simulated ground truth on a
// variant machine: the asymmetric embedded part must be slower than the
// default testbed on the same tree.
func TestMachineVariantGroundTruth(t *testing.T) {
	p, err := ProfileProgramCtx(context.Background(), memoryHeavyProgram(24), nil)
	if err != nil {
		t.Fatal(err)
	}
	req := Request{Threads: 8, Sched: Static}
	def := mustReal(t, p, req)
	req.Machine = "embedded4+4"
	emb := mustReal(t, p, req)
	if def <= 0 || emb <= 0 {
		t.Fatalf("ground truth speedups: default %.3f, embedded %.3f", def, emb)
	}
	if emb >= def {
		t.Errorf("embedded4+4 real speedup %.3f not below default %.3f", emb, def)
	}
}

// TestParseMachines covers the -machines list grammar.
func TestParseMachines(t *testing.T) {
	specs, err := ParseMachines(" hbm12, westmere12 ,hbm12")
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 2 || specs[0].Name != "hbm12" || specs[1].Name != "westmere12" {
		t.Errorf("ParseMachines kept %v, want [hbm12 westmere12] in given order", specs)
	}
	if _, err := ParseMachines(""); err == nil {
		t.Error("empty list accepted")
	}
	if _, err := ParseMachines("westmere12,bogus"); !errors.Is(err, ErrUnknownMachine) {
		t.Errorf("unknown entry error = %v, want ErrUnknownMachine", err)
	}
}
