package trace

import (
	"context"
	"testing"

	"prophet/internal/ff"
	"prophet/internal/mem"
	"prophet/internal/omprt"
	"prophet/internal/realrun"
	"prophet/internal/sim"
	"prophet/internal/stats"
)

// mixedProgram has two task flavours of identical *duration* but opposite
// instruction mixes: compute-heavy (all ALU) and memory-heavy (mostly
// stalls). With ω0 = 40, 120k instruction-cycles == 40k instructions +
// 2000 misses in elapsed time.
func mixedProgram(ctx Context) {
	ctx.SecBegin("mix")
	for i := 0; i < 12; i++ {
		ctx.TaskBegin("t")
		if i%2 == 0 {
			ctx.Compute(120_000, 0) // compute-heavy
		} else {
			ctx.Compute(40_000, 2_000) // memory-heavy, same 120k cycles
		}
		ctx.TaskEnd()
	}
	ctx.SecEnd(false)
}

// TestInstructionUnitMispredictsMixes reproduces the §VI-A finding: with
// instruction-count lengths, segments with different instruction mixes get
// wrong relative durations, so the schedule emulation mispredicts — which
// is why the paper settled on time as the unit.
func TestInstructionUnitMispredictsMixes(t *testing.T) {
	mc := sim.Config{Cores: 4, Quantum: 10_000, ContextSwitch: -1}

	profileWith := func(unit LengthUnit) *SimProfiler {
		p := NewSimProfilerWithUnit(mem.DRAMConfig{}, unit)
		mixedProgram(p)
		return p
	}
	pc := profileWith(LengthCycles)
	rootC, err := pc.Finish()
	if err != nil {
		t.Fatal(err)
	}
	pi := profileWith(LengthInstructions)
	rootI, err := pi.Finish()
	if err != nil {
		t.Fatal(err)
	}

	// Counters are identical regardless of the length unit.
	if pc.Counters() != pi.Counters() {
		t.Fatalf("counters depend on length unit: %+v vs %+v", pc.Counters(), pi.Counters())
	}
	// Cycle lengths are uniform (all tasks take 120k); instruction
	// lengths are 3x apart — the distorted view.
	secC := rootC.TopLevelSections()[0]
	if a, b := secC.Children[0].TotalLen(), secC.Children[1].TotalLen(); a != b {
		t.Fatalf("cycle-unit lengths differ: %d vs %d", a, b)
	}
	secI := rootI.TopLevelSections()[0]
	if a, b := secI.Children[0].TotalLen(), secI.Children[1].TotalLen(); a != 3*b {
		t.Fatalf("instruction-unit lengths = %d vs %d, want 3x apart", a, b)
	}

	// Ground truth: schedule(static) on 4 threads over the *real* (cycle)
	// tree — balanced, speedup ~4.
	ctx := context.Background()
	real, err := realrun.SpeedupCtx(ctx, rootC, realrun.Config{
		Machine: mc, Threads: 4, Sched: omprt.SchedStatic, OmpOv: &omprt.Overheads{},
	})
	if err != nil {
		t.Fatal(err)
	}

	e := &ff.Emulator{Threads: 4, Sched: omprt.SchedStatic}
	cyclePred, err := e.SpeedupCtx(ctx, rootC)
	if err != nil {
		t.Fatal(err)
	}
	instrPred, err := e.SpeedupCtx(ctx, rootI)
	if err != nil {
		t.Fatal(err)
	}

	cycleErr := stats.RelErr(cyclePred, real)
	instrErr := stats.RelErr(instrPred, real)
	if cycleErr > 0.05 {
		t.Fatalf("cycle-unit prediction off by %.0f%% (pred %.2f, real %.2f)", 100*cycleErr, cyclePred, real)
	}
	// The paper's observation: the instruction unit causes "a lot of
	// prediction errors" on mixed code. With (static) blocks of 3
	// uniform-duration tasks, the instruction view sees 3x imbalance.
	if instrErr < 2*cycleErr+0.05 {
		t.Fatalf("instruction unit unexpectedly accurate: %.0f%% vs cycle %.0f%%", 100*instrErr, 100*cycleErr)
	}
}
