package prophet

import (
	"prophet/internal/baseline"
	"prophet/internal/clock"
	"prophet/internal/memmodel"
	"prophet/internal/omprt"
	"prophet/internal/sim"
	"prophet/internal/synth"
	"prophet/internal/trace"
	"prophet/internal/tree"
)

// The public surface re-exports the library's building blocks through
// aliases, so user code needs only this package.

// Context is the annotation interface an annotated serial program is
// written against (the paper's Table II plus the Compute cost hook).
type Context = trace.Context

// Program is an annotated serial program.
type Program = trace.Program

// Cycles is a CPU-cycle count.
type Cycles = clock.Cycles

// Tree is a program-tree node (§IV-B, Fig. 4).
type Tree = tree.Node

// MachineConfig selects the simulated target machine (Spec; nil is
// DefaultMachineSpec) and the emulation run budgets.
type MachineConfig = sim.Config

// Paradigm selects the threading model of generated/parallelized code.
type Paradigm = synth.Paradigm

// Threading paradigms.
const (
	// OpenMP uses team-based parallel-for with OpenMP schedules; nested
	// sections spawn nested teams (OpenMP 2.0 behaviour).
	OpenMP = synth.OpenMP
	// Cilk uses a work-stealing runtime (Cilk-Plus-like); the right
	// choice for recursive parallelism.
	Cilk = synth.Cilk
)

// Region is one parallel section's critical-path profile (work, span,
// self-parallelism, coverage), as returned by Profile.Regions.
type Region = baseline.Region

// BurdenExplanation exposes the memory model's Eq. 1–5 intermediates for
// one section, as returned by Profile.ExplainBurden.
type BurdenExplanation = memmodel.Explanation

// MemModel is a calibrated memory performance model (Ψ/Φ fits, §V). It
// marshals to JSON, so a calibration can be saved and reused via
// Options.MemModel.
type MemModel = memmodel.Model

// Sched is an OpenMP loop schedule.
type Sched = omprt.Sched

// The schedules the paper evaluates.
var (
	// Static is schedule(static): one contiguous block per thread.
	Static = omprt.SchedStatic
	// Static1 is schedule(static,1): round-robin single iterations.
	Static1 = omprt.SchedStatic1
	// Dynamic1 is schedule(dynamic,1): first-come first-served.
	Dynamic1 = omprt.SchedDynamic1
	// Guided is schedule(guided): shrinking chunks.
	Guided = omprt.SchedGuided
)
