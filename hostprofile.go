package prophet

import (
	"context"

	"prophet/internal/compress"
	"prophet/internal/trace"
)

// HostProfile profiles an annotated program that performs *real*
// computation on the host machine: intervals are measured with the
// monotonic clock at a nominal frequency (the rdtsc substitute of §VI-A),
// and the profiler's own annotation overhead is excluded from the recorded
// lengths. This is the paper's original deployment flow — profile real
// code where it runs — as opposed to ProfileProgramCtx's deterministic
// cost-model profiling.
//
// Usage:
//
//	hp := prophet.NewHostProfile()
//	myAnnotatedProgram(hp.Context()) // does real work, annotated
//	prof, err := hp.Finish(nil)
//	est, err := prof.EstimateCtx(ctx, ...)
//
// Host timings carry host noise; on a busy machine expect the measured
// lengths (not the tree shape) to wobble accordingly.
type HostProfile struct {
	p *trace.HostProfiler
}

// NewHostProfile starts a host profiling session at the default nominal
// frequency (2.4 GHz, the paper machine's clock).
func NewHostProfile() *HostProfile {
	return NewHostProfileHz(0)
}

// NewHostProfileHz starts a session converting wall time to cycles at hz
// (non-positive selects the default).
func NewHostProfileHz(hz float64) *HostProfile {
	return &HostProfile{p: trace.NewHostProfiler(hz)}
}

// Context returns the annotation context to drive the program with. Its
// Compute method burns real time (FakeDelay); real computation between
// annotation calls is simply measured.
func (h *HostProfile) Context() Context { return h.p }

// Finish closes profiling and builds a Profile ready for estimation.
// Hardware counters are unavailable on the host (no PAPI substitute), so
// unless the program reported misses through Compute the memory model
// gates to β = 1; pass Options.MemModel to supply an external model.
// Panics below the boundary return as *PanicError.
func (h *HostProfile) Finish(opts *Options) (p *Profile, err error) {
	defer recoverToError(&err)
	root, err := h.p.Finish()
	if err != nil {
		return nil, err
	}
	o := opts.withDefaults()
	prof := &Profile{
		Tree:         root,
		Counters:     h.p.Counters(),
		SerialCycles: root.TotalLen(),
		opts:         o,
	}
	if o.CompressTolerance >= 0 {
		prof.Compression = compress.Compress(root, compress.Options{
			Tolerance: o.CompressTolerance,
			MaxNodes:  o.MaxTreeNodes,
		})
	}
	if !o.DisableMemoryModel {
		m := o.MemModel
		if m == nil {
			m, err = modelFor(context.Background(), o.Machine, o.ThreadCounts)
			if err != nil {
				return nil, err
			}
		}
		prof.Model = m
		if o.AverageBurdensByName {
			m.AssignBurdensAveraged(root, o.ThreadCounts)
		} else {
			m.AssignBurdens(root, o.ThreadCounts)
		}
	}
	return prof, nil
}
