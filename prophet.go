// Package prophet is a Go reproduction of Parallel Prophet (Kim, Kumar,
// Kim, Brett — "Predicting Potential Speedup of Serial Code via
// Lightweight Profiling and Emulations with Memory Performance Model",
// IPDPS 2012): it predicts the parallel speedup of an *annotated serial
// program* before anyone writes parallel code.
//
// # Workflow (the paper's Fig. 3)
//
//  1. Write the serial program against prophet.Context, wrapping
//     potentially parallel loops in SecBegin/SecEnd, their iterations in
//     TaskBegin/TaskEnd, and protected regions in LockBegin/LockEnd
//     (Table II of the paper). Computation goes through Compute with an
//     (instruction-cycles, LLC-misses) cost.
//  2. ProfileProgramCtx runs the program serially under interval profiling,
//     builds and compresses the program tree, collects per-section
//     counters and calibrates the memory performance model (burden
//     factors β_t).
//  3. EstimateCtx emulates the parallel behaviour for a chosen method (the
//     fast-forwarding emulator or the program-synthesis emulator),
//     threading paradigm (OpenMP or Cilk), schedule and thread count, and
//     returns the predicted speedup.
//
// The "machine" is a deterministic discrete-event simulation of a
// 12-core, two-socket Westmere-class system (internal/sim), standing in
// for the paper's testbed; see DESIGN.md for the substitution table.
package prophet

import (
	"context"
	"sort"
	"sync"

	"prophet/internal/clock"
	"prophet/internal/compress"
	"prophet/internal/counters"
	"prophet/internal/machine"
	"prophet/internal/memmodel"
	"prophet/internal/obs"
	"prophet/internal/sim"
	"prophet/internal/surrogate"
	"prophet/internal/sweep"
	"prophet/internal/trace"
	"prophet/internal/tree"
)

// Options configures profiling and prediction.
type Options struct {
	// Machine is the simulated target machine. The zero value (nil Spec)
	// is westmere12, the paper's 12-core machine.
	Machine sim.Config
	// ThreadCounts are the CPU counts predictions will be requested for;
	// the memory model assigns one burden factor per count. Default:
	// 2, 4, 6, 8, 10, 12 (the paper's x-axis).
	ThreadCounts []int
	// CompressTolerance is the program-tree compression tolerance
	// (default 0.05, the paper's 5%; negative disables compression).
	CompressTolerance float64
	// MaxTreeNodes, when > 0, arms the lossy compression fallback.
	MaxTreeNodes int64
	// MemModel overrides the memory performance model; nil selects a
	// model calibrated against Machine (cached per machine config).
	MemModel *memmodel.Model
	// DisableMemoryModel skips calibration and burden assignment
	// entirely (every estimate behaves as MemoryModel: false).
	DisableMemoryModel bool
	// AverageBurdensByName applies the paper's exact §V policy: burden
	// factors of same-named top-level sections are averaged across their
	// dynamic executions. The default assigns per-execution factors,
	// which is strictly finer-grained.
	AverageBurdensByName bool
	// Observer attaches observability sinks: an execution tracer fed by
	// every simulated machine run and emulation made through the profile,
	// and a metrics registry aggregating stage wall times and DES
	// counters. The zero value disables observability at no cost.
	Observer Observer
	// Surrogate, when non-nil, arms the learned surrogate predictor:
	// EstimateCtx (through Lookup) serves confident predictions from it
	// in microseconds instead of emulating, and feeds every real
	// emulation result back into its training store. Machine-variant
	// profiles (Request.Machine) share the predictor and are looked up
	// and trained through the variant profile, in the partition keyed by
	// its tree. Nil (the default) changes nothing — all estimates
	// emulate exactly as before.
	Surrogate *Surrogate
}

// DefaultThreadCounts is the paper's evaluation grid.
func DefaultThreadCounts() []int { return []int{2, 4, 6, 8, 10, 12} }

func (o *Options) withDefaults() Options {
	var out Options
	if o != nil {
		out = *o
	}
	if len(out.ThreadCounts) == 0 {
		out.ThreadCounts = DefaultThreadCounts()
	}
	if out.CompressTolerance == 0 {
		out.CompressTolerance = compress.DefaultTolerance
	}
	return out
}

// Profile is the result of profiling an annotated serial program: the
// compressed program tree with per-section counters and burden factors.
type Profile struct {
	// Tree is the program tree (Fig. 4 of the paper).
	Tree *tree.Node
	// Counters are the whole-run totals.
	Counters counters.Sample
	// Compression reports the §VI-B tree compression.
	Compression compress.Stats
	// Model is the memory performance model used for burden factors
	// (nil when disabled).
	Model *memmodel.Model
	// SerialCycles is the profiled serial execution time.
	SerialCycles clock.Cycles

	opts Options
	// prog is the annotated program the profile came from, retained so
	// machine-variant requests (Request.Machine) can re-profile against
	// the variant's memory parameters; nil for tree-only profiles.
	prog Program
	// variants caches one derived profile per requested machine name.
	// Building a variant re-profiles and recalibrates, which is worth
	// sharing across the estimates of a -machines sweep; singleflight, so
	// concurrent requests for one machine do the work once.
	variants sweep.Cache[string, *Profile]

	// surrOnce lazily computes the surrogate feature inputs: the
	// request-independent tree stats and the partition key derived from
	// the tree fingerprint. Computed once per profile, on its first
	// surrogate query.
	surrOnce  sync.Once
	surrStats *surrogate.TreeStats
	surrKey   string
}

// MachineName returns the name of the profile's target machine spec.
func (p *Profile) MachineName() string { return p.opts.Machine.MachineSpec().Name }

// forMachine resolves a Request.Machine name to the profile to estimate
// against: the receiver itself when the name is empty or already the
// profile's machine, otherwise a cached variant profiled for the named
// preset. Program-backed profiles re-profile (segment lengths depend on
// the machine's unloaded memory latency); tree-only profiles keep the
// profiled lengths on a cloned tree and recalibrate burden factors only.
func (p *Profile) forMachine(ctx context.Context, name string) (*Profile, error) {
	if name == "" || name == p.MachineName() {
		return p, nil
	}
	spec, err := machine.ParseSpec(name)
	if err != nil {
		return nil, err
	}
	return p.variants.Get(ctx, name, func(ctx context.Context) (*Profile, error) {
		vo := p.opts
		vo.Machine.Spec = spec
		vo.MemModel = nil // calibrate against the variant machine
		if p.prog != nil {
			return ProfileProgramCtx(ctx, p.prog, &vo)
		}
		return ProfileTreeCtx(ctx, p.Tree.Clone(), &vo)
	})
}

// peekMachine is forMachine without building: the profile name resolves
// to when it is the receiver's own machine or an already-built variant.
func (p *Profile) peekMachine(name string) (*Profile, bool) {
	if name == "" || name == p.MachineName() {
		return p, true
	}
	return p.variants.Peek(name)
}

// calibrated caches one memory model per machine configuration —
// calibration runs a microbenchmark sweep and is worth reusing. It is
// keyed on the resolved configuration (spec pointer plus run budgets), so
// a nil Spec and machine.Default() share one calibration. The
// singleflight cache matters under the parallel experiment sweeps:
// concurrent profiles of the same machine share one calibration run
// instead of racing to duplicate it.
var calibrated sweep.Cache[sim.Config, *memmodel.Model]

func modelFor(ctx context.Context, mc sim.Config, threads []int) (*memmodel.Model, error) {
	mc.Spec = mc.MachineSpec()
	return calibrated.Get(ctx, mc, func(ctx context.Context) (*memmodel.Model, error) {
		// Calibrate over a full ladder up to the core count, not just the
		// requested thread counts: the Φ power-law fit needs several
		// saturated operating points to be well-conditioned (§V-D).
		cores := mc.Spec.Cores()
		ladder := map[int]bool{}
		for _, t := range threads {
			if t >= 2 && t <= cores {
				ladder[t] = true
			}
		}
		for t := 2; t <= cores; t += 2 {
			ladder[t] = true
		}
		var ts []int
		for t := range ladder {
			ts = append(ts, t)
		}
		sort.Ints(ts)
		m, _, err := memmodel.CalibrateCtx(ctx, mc, ts)
		return m, err
	})
}

// ProfileProgramCtx profiles prog (serially, on the virtual cycle clock),
// compresses the tree, and attaches counters and burden factors. ctx gates
// the profiling run and the memory-model calibration (the expensive part;
// a canceled calibration is not cached, so a later call with a live
// context recalibrates). All errors are typed — errors.Is against the
// prophet sentinels — and panics anywhere below this boundary, including
// in the user's annotated program body, return as *PanicError instead of
// crashing the caller.
func ProfileProgramCtx(ctx context.Context, prog Program, opts *Options) (p *Profile, err error) {
	defer recoverToError(&err)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	o := opts.withDefaults()
	tm := o.Observer.Metrics.StartTimer(obs.MStageProfile)
	root, prof, err := trace.Profile(prog, o.Machine.MachineSpec())
	tm.Stop()
	if err != nil {
		return nil, err
	}
	p = &Profile{
		Tree:         root,
		Counters:     prof.Counters(),
		SerialCycles: root.TotalLen(),
		opts:         o,
		prog:         prog,
	}
	if o.CompressTolerance >= 0 {
		tm := o.Observer.Metrics.StartTimer(obs.MStageCompress)
		p.Compression = compress.Compress(root, compress.Options{
			Tolerance: o.CompressTolerance,
			MaxNodes:  o.MaxTreeNodes,
		})
		tm.Stop()
	}
	if !o.DisableMemoryModel {
		m, err := o.memModel(ctx)
		if err != nil {
			return nil, err
		}
		p.Model = m
		if o.AverageBurdensByName {
			m.AssignBurdensAveraged(root, o.ThreadCounts)
		} else {
			m.AssignBurdens(root, o.ThreadCounts)
		}
	}
	return p, nil
}

// memModel returns o.MemModel, or else the calibration of o.Machine under
// ctx (timed as the calibrate stage).
func (o Options) memModel(ctx context.Context) (*memmodel.Model, error) {
	if o.MemModel != nil {
		return o.MemModel, nil
	}
	tm := o.Observer.Metrics.StartTimer(obs.MStageCalibrate)
	defer tm.Stop()
	return modelFor(ctx, o.Machine, o.ThreadCounts)
}

// CalibrateModelCtx runs the §V-D microbenchmark against the given
// machine and returns the fitted memory performance model (the
// reproduction of Eq. 6/7). Results are cached per machine configuration;
// pass the model to Options.MemModel, or marshal it to JSON for reuse
// across processes. A canceled calibration is not cached.
func CalibrateModelCtx(ctx context.Context, machine MachineConfig) (m *MemModel, err error) {
	defer recoverToError(&err)
	return modelFor(ctx, machine, DefaultThreadCounts())
}

// ProfileTreeCtx wraps an already-built program tree (e.g. loaded from
// JSON) in a Profile so it can be estimated with the same API. Panics
// below it return as *PanicError.
func ProfileTreeCtx(ctx context.Context, root *tree.Node, opts *Options) (p *Profile, err error) {
	defer recoverToError(&err)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := root.Validate(); err != nil {
		return nil, err
	}
	o := opts.withDefaults()
	p = &Profile{
		Tree:         root,
		SerialCycles: root.TotalLen(),
		opts:         o,
	}
	if !o.DisableMemoryModel {
		m, err := o.memModel(ctx)
		if err != nil {
			return nil, err
		}
		p.Model = m
		m.AssignBurdens(root, o.ThreadCounts)
	}
	return p, nil
}
