package prophet

import (
	"context"

	"prophet/internal/trace"
	"prophet/internal/tree"
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
//	prof, err := hp.FinishCtx(ctx, nil)
//	est, err := prof.EstimateCtx(ctx, ...)
//
// Host timings carry host noise; on a busy machine expect the measured
// lengths (not the tree shape) to wobble accordingly.
type HostProfile struct {
	p *trace.HostProfiler
	// root is the closed session's tree while FinishCtx has not yet
	// succeeded with it.
	root *tree.Node
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

// FinishCtx closes profiling and builds a Profile ready for estimation.
// Hardware counters are unavailable on the host (no PAPI substitute), so
// unless the program reported misses through Compute the memory model
// gates to β = 1; pass Options.MemModel to supply an external model.
// ctx gates the memory-model calibration. A failed calibration (a
// canceled ctx) keeps the measured tree, so FinishCtx can be called again
// with a live context; after a success the session is spent. Panics below
// the boundary return as *PanicError.
func (h *HostProfile) FinishCtx(ctx context.Context, opts *Options) (p *Profile, err error) {
	defer recoverToError(&err)
	if h.root == nil {
		if h.root, err = h.p.Finish(); err != nil {
			return nil, err
		}
	}
	if p, err = build(ctx, h.root, h.p.Counters(), nil, true, opts.withDefaults()); err != nil {
		return nil, err
	}
	h.root = nil
	return p, nil
}
