package prophet

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"strings"

	"prophet/internal/obs"
	"prophet/internal/sweep"
)

// Advice is the outcome of a configuration sweep plus the causal region
// experiments: every (paradigm, schedule, thread-count) estimate, the
// best configuration, the per-region marginal speedups, and the
// diagnosis the paper's workflow is meant to support — should this
// program be parallelized at all, what limits it, and which region
// should be parallelized first?
type Advice struct {
	// Best is the highest-speedup estimate of the sweep (the zero value
	// when every estimate failed; see Err).
	Best Estimate
	// Sweep holds every estimate, sorted by descending speedup. Errored
	// estimates never rank: they sort after all successful ones.
	Sweep []Estimate
	// ParallelFraction is the tree's Amdahl fraction.
	ParallelFraction float64
	// UpperBound is the Kismet-style critical-path bound at the largest
	// thread count swept.
	UpperBound float64
	// SaturationThreads, when non-zero, is the smallest swept thread
	// count beyond which the best schedule gains less than 10%
	// (the "stop buying cores here" point; memory-bound programs
	// saturate early, Fig. 2).
	SaturationThreads int
	// MemoryLimited reports whether the memory model reduced the best
	// configuration's estimate by more than 10% versus ignoring memory.
	MemoryLimited bool
	// TargetThreads is the core count the region experiments ran at:
	// the largest thread count swept.
	TargetThreads int
	// Regions ranks the candidate regions (top-level sections and serial
	// runs) by marginal speedup at TargetThreads — including
	// anti-recommendations (Marginal < 1) where the memory model
	// predicts parallelizing the region would slow the program down.
	Regions []RegionAdvice
	// Err is the first estimate error of the sweep (nil when every
	// configuration estimated cleanly). With at least one successful
	// estimate the advice is still usable; when everything failed, Best
	// stays zero and AdviseCtx returns this error.
	Err error
}

// AdviseEstimator computes one estimate cell on behalf of AdviseCtx.
// scope is "" for the baseline configuration sweep (prof is the advised
// profile itself) and "region:<kind>:<name>" for a region-variant cell
// (prof is the synthesized variant). Servers plug in their cache
// hierarchy here; nil selects prof.EstimateCtx directly.
type AdviseEstimator func(ctx context.Context, scope string, prof *Profile, req Request) (Estimate, error)

// AdviseOptions shapes the sweep.
type AdviseOptions struct {
	// Threads are the CPU counts to sweep (default: the profile's
	// ThreadCounts), normalized by NormalizeCores: an unsorted input
	// yields the same Advice as a sorted one, and a count below 1 is an
	// error.
	Threads []int
	// Method is the prediction engine. Passing nil AdviseOptions selects
	// the advisor's default, Synthesizer (see AdviseMethod); with
	// explicit options the zero value means FastForward, as everywhere
	// else, and AdviseMethod("") gives the default.
	Method Method
	// Paradigms to sweep (default: OpenMP and Cilk).
	Paradigms []Paradigm
	// Scheds to sweep for OpenMP (default: static, static,1,
	// dynamic,1).
	Scheds []Sched
	// Workers bounds the sweep fan-out (0 = GOMAXPROCS, as in
	// sweep.Engine).
	Workers int
	// Estimator overrides how each cell is computed (see
	// AdviseEstimator); nil estimates against the profile directly.
	Estimator AdviseEstimator
}

// defaultAdviseMethod is the advisor's engine when the caller names none:
// the synthesizer, the paper's "more realistic predictions" choice
// (Table III).
const defaultAdviseMethod = Synthesizer

// AdviseMethod returns the engine an advise request names: the empty name
// selects the advisor's default, Synthesizer, and any other name, with
// surrounding space ignored, reads as ParseMethod reads it. The daemon's
// /v1/advise and prophet -advise resolve their method here.
func AdviseMethod(name string) (Method, error) {
	if name == "" {
		return defaultAdviseMethod, nil
	}
	return ParseMethod(strings.TrimSpace(name))
}

func (o *AdviseOptions) withDefaults(p *Profile) (AdviseOptions, error) {
	out := AdviseOptions{Method: defaultAdviseMethod}
	if o != nil {
		out = *o
	}
	if len(out.Threads) == 0 {
		out.Threads = p.opts.withDefaults().ThreadCounts
	}
	if len(out.Paradigms) == 0 {
		out.Paradigms = []Paradigm{OpenMP, Cilk}
	}
	if len(out.Scheds) == 0 {
		out.Scheds = []Sched{Static, Static1, Dynamic1}
	}
	// The largest-count lookups and the saturation walk assume a
	// monotone curve; an unsorted -cores input used to corrupt both.
	ts, err := NormalizeCores(out.Threads)
	out.Threads = ts
	return out, err
}

// AdviseCtx sweeps parallelization configurations with the memory model
// applied and returns the ranked results plus a diagnosis: the
// configuration sweep and the causal region experiments both fan out
// through internal/sweep. Cancellation returns the partial Advice
// accumulated so far along with ctx's error; a sweep where no
// configuration could be estimated returns the first cell error (also on
// Advice.Err). Per-cell failures with at least one success are not an
// error: they surface on Advice.Err and in the errored tail of
// Sweep/Regions. Thread counts NormalizeCores rejects return its error
// before any cell runs.
func (p *Profile) AdviseCtx(ctx context.Context, opts *AdviseOptions) (Advice, error) {
	o, err := opts.withDefaults(p)
	if err != nil {
		return Advice{Err: err}, err
	}
	met := p.opts.Observer.Metrics
	met.Counter(obs.MAdviseRuns).Inc()
	tm := met.StartTimer(obs.MAdviseLatency)
	defer tm.Stop()

	estFn := o.Estimator
	if estFn == nil {
		estFn = func(ctx context.Context, _ string, prof *Profile, req Request) (Estimate, error) {
			return prof.EstimateCtx(ctx, req)
		}
	}
	eng := sweep.Engine{Workers: o.Workers, Metrics: met}

	var adv Advice
	maxT := o.Threads[len(o.Threads)-1]
	adv.TargetThreads = maxT

	// The configuration grid in deterministic order: paradigm → sched →
	// threads, threads innermost (each paradigm/sched run traces one
	// speedup curve).
	var grid []Request
	for _, paradigm := range o.Paradigms {
		scheds := o.Scheds
		if paradigm == Cilk {
			scheds = []Sched{{}} // work stealing has no OpenMP schedule
		}
		for _, sched := range scheds {
			for _, t := range o.Threads {
				grid = append(grid, Request{
					Method: o.Method, Threads: t,
					Paradigm: paradigm, Sched: sched,
					MemoryModel: true,
				})
			}
		}
	}
	outs := sweep.RunCtx(ctx, eng, len(grid), func(cctx context.Context, i int) (Estimate, error) {
		return estFn(cctx, "", p, grid[i])
	})

	// Merge in grid order. Errored estimates are kept (the report shows
	// what failed) but never rank: they cannot become Best and sort after
	// every successful estimate.
	speedups := make(map[Request]float64, len(outs))
	for i, out := range outs {
		if out.Skipped {
			continue
		}
		e := out.Value
		if e.Request == (Request{}) {
			e.Request = grid[i] // a panicking estimator leaves Value zero
		}
		if out.Err != nil || e.Err != nil {
			if e.Err == nil {
				e.Err = out.Err
			}
			if adv.Err == nil {
				adv.Err = e.Err
			}
			adv.Sweep = append(adv.Sweep, e)
			continue
		}
		adv.Sweep = append(adv.Sweep, e)
		speedups[e.Request] = e.Speedup
		if e.Speedup > adv.Best.Speedup {
			adv.Best = e
		}
	}
	sort.SliceStable(adv.Sweep, func(i, j int) bool {
		ei, ej := adv.Sweep[i], adv.Sweep[j]
		if (ei.Err == nil) != (ej.Err == nil) {
			return ei.Err == nil
		}
		return ei.Speedup > ej.Speedup
	})

	adv.ParallelFraction = parallelFraction(p)
	if ub, err := estFn(ctx, "", p, Request{Method: CriticalPathBound, Threads: maxT}); err == nil && ub.Err == nil {
		adv.UpperBound = ub.Speedup
	}

	if adv.Best.Speedup > 0 {
		// Saturation: walk the best configuration's own curve, reading
		// the already-computed sweep points (Threads are ascending, so
		// the walk sees a monotone axis). Errored or skipped points are
		// unknowable, not evidence of saturation.
		bestReq := adv.Best.Request
		prev := 0.0
		for _, t := range o.Threads {
			r := bestReq
			r.Threads = t
			s, ok := speedups[r]
			if !ok {
				continue
			}
			if prev > 0 && s < prev*1.10 {
				adv.SaturationThreads = t
				break
			}
			prev = s
		}
		// Memory limitation: compare the best configuration with and
		// without burden factors.
		noMem := bestReq
		noMem.MemoryModel = false
		if plain, err := estFn(ctx, "", p, noMem); err == nil && plain.Err == nil && plain.Speedup > 0 {
			adv.MemoryLimited = adv.Best.Speedup < 0.9*plain.Speedup
		}

		// Causal region experiments at the target core count, under the
		// best configuration.
		adv.Regions = p.adviseRegions(ctx, eng, estFn, bestReq, maxT, speedups)
	}

	if err := ctx.Err(); err != nil {
		if adv.Err == nil {
			adv.Err = err
		}
		return adv, err
	}
	if adv.Best.Speedup <= 0 && adv.Err != nil {
		// Nothing estimable: the advice carries only diagnostics.
		return adv, adv.Err
	}
	return adv, nil
}

func parallelFraction(p *Profile) float64 {
	total := p.Tree.TotalLen()
	if total == 0 {
		return 0
	}
	serial := p.Tree.SerialOutsideSections()
	return 1 - float64(serial)/float64(total)
}

// adviceJSON is the stable wire form of Advice.
type adviceJSON struct {
	Best              Estimate       `json:"best"`
	Sweep             []Estimate     `json:"sweep"`
	ParallelFraction  float64        `json:"parallel_fraction"`
	UpperBound        float64        `json:"upper_bound"`
	SaturationThreads int            `json:"saturation_threads,omitempty"`
	MemoryLimited     bool           `json:"memory_limited,omitempty"`
	TargetThreads     int            `json:"target_threads"`
	Regions           []RegionAdvice `json:"regions,omitempty"`
	Err               string         `json:"err,omitempty"`
}

// MarshalJSON writes the advice with Err flattened to its message, like
// Estimate.
func (a Advice) MarshalJSON() ([]byte, error) {
	w := adviceJSON{
		Best: a.Best, Sweep: a.Sweep,
		ParallelFraction: a.ParallelFraction, UpperBound: a.UpperBound,
		SaturationThreads: a.SaturationThreads, MemoryLimited: a.MemoryLimited,
		TargetThreads: a.TargetThreads, Regions: a.Regions,
	}
	if a.Err != nil {
		w.Err = a.Err.Error()
	}
	return json.Marshal(w)
}

// UnmarshalJSON restores an advice; a non-empty err string becomes an
// opaque error carrying the same message.
func (a *Advice) UnmarshalJSON(data []byte) error {
	var w adviceJSON
	if err := json.Unmarshal(data, &w); err != nil {
		return err
	}
	*a = Advice{
		Best: w.Best, Sweep: w.Sweep,
		ParallelFraction: w.ParallelFraction, UpperBound: w.UpperBound,
		SaturationThreads: w.SaturationThreads, MemoryLimited: w.MemoryLimited,
		TargetThreads: w.TargetThreads, Regions: w.Regions,
	}
	if w.Err != "" {
		a.Err = errors.New(w.Err)
	}
	return nil
}

// String renders the advice as a short human-readable report.
func (a Advice) String() string {
	var b strings.Builder
	if a.Best.Speedup <= 0 {
		b.WriteString("no configuration could be estimated")
		if a.Err != nil {
			fmt.Fprintf(&b, ": %v", a.Err)
		}
		fmt.Fprintf(&b, "\nparallel fraction: %.0f%%; critical-path upper bound: %.2fx\n",
			100*a.ParallelFraction, a.UpperBound)
		return b.String()
	}
	fmt.Fprintf(&b, "best: %.2fx with %s on %d threads", a.Best.Speedup, a.Best.Paradigm, a.Best.Threads)
	if a.Best.Paradigm == OpenMP {
		fmt.Fprintf(&b, " %v", a.Best.Sched)
	}
	fmt.Fprintf(&b, "\nparallel fraction: %.0f%%; critical-path upper bound: %.2fx\n",
		100*a.ParallelFraction, a.UpperBound)
	if a.MemoryLimited {
		b.WriteString("memory-limited: bandwidth contention reduces the estimate by >10%\n")
	}
	if a.SaturationThreads > 0 {
		fmt.Fprintf(&b, "diminishing returns beyond %d threads (<10%% gain per step)\n", a.SaturationThreads)
	}
	if a.Err != nil {
		fmt.Fprintf(&b, "some estimates failed (first: %v)\n", a.Err)
	}
	n := len(a.Sweep)
	if n > 5 {
		n = 5
	}
	b.WriteString("top configurations:\n")
	for i := 0; i < n; i++ {
		e := a.Sweep[i]
		if e.Err != nil {
			fmt.Fprintf(&b, "  error  %-6s %2d threads: %v\n", e.Paradigm, e.Threads, e.Err)
			continue
		}
		sched := e.Sched.String()
		if e.Paradigm == Cilk {
			sched = "(steal)"
		}
		fmt.Fprintf(&b, "  %.2fx  %-6s %-11s %2d threads\n", e.Speedup, e.Paradigm, sched, e.Threads)
	}
	if len(a.Regions) > 0 {
		fmt.Fprintf(&b, "regions by marginal speedup at %d threads:\n", a.TargetThreads)
		for _, r := range a.Regions {
			switch {
			case r.Err != nil:
				fmt.Fprintf(&b, "  error  %-7s %-14s %v\n", r.Kind, r.Region, r.Err)
			case r.Recommend:
				fmt.Fprintf(&b, "  %.2fx  %-7s %-14s parallelize (%.0f%% of serial time)\n",
					r.Marginal, r.Kind, r.Region, 100*r.Coverage)
			default:
				fmt.Fprintf(&b, "  %.2fx  %-7s %-14s not worth it (memory model predicts no gain)\n",
					r.Marginal, r.Kind, r.Region)
			}
		}
	}
	return b.String()
}
