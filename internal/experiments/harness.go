package experiments

import (
	"context"
	"fmt"

	"prophet"
	"prophet/internal/obs"
	"prophet/internal/sweep"
	"prophet/internal/workloads"
)

// Harness evaluates the paper's experiment grids on a bounded worker
// pool (internal/sweep). Every (workload, seed, cores, schedule) cell is
// an independent deterministic profile→emulate pipeline, so cells run
// concurrently and results are merged in cell order — the rendered
// tables and CSVs are byte-identical to a serial run at any worker
// count.
//
// The harness also carries keyed profile caches shared across figures:
// Fig. 11's six panels reuse the same random Test1/Test2 trees, and
// Fig. 12 / Table III share benchmark profiles, so each input is
// profiled exactly once per harness no matter how many cells consume it.
type Harness struct {
	cfg Config
	ctx context.Context
	eng sweep.Engine

	// Profile caches, keyed by the cell fingerprint that fully
	// determines the profile (the generator parameters / the benchmark
	// name — machine and thread counts are fixed per harness).
	t1    sweep.Cache[workloads.Test1Params, *prophet.Profile]
	t2    sweep.Cache[workloads.Test2Params, *prophet.Profile]
	bench sweep.Cache[string, *prophet.Profile]
}

// NewCtx builds a harness for cfg whose sweeps honour ctx. cfg.Workers
// bounds the worker pool (0 = GOMAXPROCS, 1 = serial). Once ctx fires, no
// new cell starts, in-flight cells drain, and unclaimed cells come back
// marked Skipped. With cfg.FailFast the first cell error cancels the rest
// of the sweep the same way.
func NewCtx(ctx context.Context, cfg Config) *Harness {
	cfg = cfg.withDefaults()
	if ctx == nil {
		ctx = context.Background()
	}
	h := &Harness{
		cfg: cfg,
		ctx: ctx,
		eng: sweep.Engine{Workers: cfg.Workers, FailFast: cfg.FailFast, Metrics: cfg.Metrics},
	}
	// One set of cache counters, shared by all three profile caches (nil
	// handles — a no-op — when metrics are disabled).
	ctrs := sweep.CacheCounters{
		Hits:   cfg.Metrics.Counter(obs.MCacheHits),
		Misses: cfg.Metrics.Counter(obs.MCacheMisses),
		Dedups: cfg.Metrics.Counter(obs.MCacheDedups),
	}
	h.t1.Instrument(ctrs)
	h.t2.Instrument(ctrs)
	h.bench.Instrument(ctrs)
	return h
}

// Config returns the harness configuration with defaults applied.
func (h *Harness) Config() Config { return h.cfg }

// validationOpts are the profiling options of the §VII-B validation
// sweeps (Fig. 11, ranking): the memory model is off, as the generated
// Test1/Test2 programs carry no memory traffic.
func (h *Harness) validationOpts() *prophet.Options {
	return &prophet.Options{
		Machine:            h.cfg.Machine,
		DisableMemoryModel: true,
		Observer:           prophet.Observer{Metrics: h.cfg.Metrics},
	}
}

// benchOpts are the profiling options of the benchmark sweeps (Fig. 12,
// Table III): full memory model over the configured thread counts.
func (h *Harness) benchOpts() *prophet.Options {
	return &prophet.Options{
		Machine:      h.cfg.Machine,
		ThreadCounts: h.cfg.Cores,
		Observer:     prophet.Observer{Metrics: h.cfg.Metrics},
	}
}

// profileTest1 profiles one Test1 sample through the shared cache.
// Cancellation errors are never cached, so a canceled sweep does not
// poison the cache for a later run.
func (h *Harness) profileTest1(ctx context.Context, p workloads.Test1Params) (*prophet.Profile, error) {
	return h.t1.Get(ctx, p, func(ctx context.Context) (*prophet.Profile, error) {
		return prophet.ProfileProgramCtx(ctx, p.Program(), h.validationOpts())
	})
}

// profileTest2 profiles one Test2 sample through the shared cache.
func (h *Harness) profileTest2(ctx context.Context, p workloads.Test2Params) (*prophet.Profile, error) {
	return h.t2.Get(ctx, p, func(ctx context.Context) (*prophet.Profile, error) {
		return prophet.ProfileProgramCtx(ctx, p.Program(), h.validationOpts())
	})
}

// profileBench profiles one named benchmark through the shared cache.
func (h *Harness) profileBench(ctx context.Context, w *workloads.Workload) (*prophet.Profile, error) {
	return h.bench.Get(ctx, w.Name, func(ctx context.Context) (*prophet.Profile, error) {
		return prophet.ProfileProgramCtx(ctx, w.Program, h.benchOpts())
	})
}

// CacheStats describes the harness's profile caches (for logs and the
// scaling benchmark).
func (h *Harness) CacheStats() string {
	t1h, t1m := h.t1.Stats()
	t2h, t2m := h.t2.Stats()
	bh, bm := h.bench.Stats()
	return fmt.Sprintf("profile cache: test1 %d/%d hit, test2 %d/%d hit, bench %d/%d hit, %d deduped in flight",
		t1h, t1h+t1m, t2h, t2h+t2m, bh, bh+bm,
		h.t1.Dedups()+h.t2.Dedups()+h.bench.Dedups())
}
