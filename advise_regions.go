package prophet

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sort"

	"prophet/internal/clock"
	"prophet/internal/counters"
	"prophet/internal/obs"
	"prophet/internal/sweep"
	"prophet/internal/tree"
)

// Region-candidate kinds: an existing parallel section of the profile
// tree, or a top-level serial computation run that could be wrapped in
// one.
const (
	RegionSection = "section"
	RegionSerial  = "serial"
)

// RegionAdvice is the outcome of one causal region experiment: the
// whole-program speedup with the region parallel vs serial (everything
// else unchanged), and their ratio — the marginal speedup parallelizing
// this one region unlocks at Advice.TargetThreads.
type RegionAdvice struct {
	// Region names the candidate: a top-level section's annotation name
	// (same-named sections are grouped, as the paper's §V policy groups
	// them), or "serial#N" for the N-th top-level serial run.
	Region string `json:"region"`
	// Kind is RegionSection or RegionSerial.
	Kind string `json:"kind"`
	// Work is the candidate's total serial work and Coverage its
	// fraction of the whole profile.
	Work     Cycles  `json:"work_cycles"`
	Coverage float64 `json:"coverage"`
	// WithSpeedup / WithoutSpeedup are the whole-program speedups with
	// the region parallelized vs serialized (the rest of the tree
	// unchanged in both).
	WithSpeedup    float64 `json:"with_speedup"`
	WithoutSpeedup float64 `json:"without_speedup"`
	// Marginal = WithSpeedup / WithoutSpeedup. Below 1.0 the experiment
	// predicts parallelizing this region alone would *slow the program
	// down* (burden factors outweigh the parallelism) — an explicit
	// anti-recommendation.
	Marginal float64 `json:"marginal"`
	// Recommend is Marginal > 1.
	Recommend bool `json:"recommend"`
	// Err is the experiment's failure, nil on success.
	Err error `json:"-"`
}

// regionAdviceJSON is the stable wire form of RegionAdvice.
type regionAdviceJSON struct {
	Region         string  `json:"region"`
	Kind           string  `json:"kind"`
	Work           Cycles  `json:"work_cycles"`
	Coverage       float64 `json:"coverage"`
	WithSpeedup    float64 `json:"with_speedup"`
	WithoutSpeedup float64 `json:"without_speedup"`
	Marginal       float64 `json:"marginal"`
	Recommend      bool    `json:"recommend"`
	Err            string  `json:"err,omitempty"`
}

// MarshalJSON writes the region advice with Err flattened to its
// message, like Estimate.
func (r RegionAdvice) MarshalJSON() ([]byte, error) {
	w := regionAdviceJSON{
		Region: r.Region, Kind: r.Kind, Work: r.Work, Coverage: r.Coverage,
		WithSpeedup: r.WithSpeedup, WithoutSpeedup: r.WithoutSpeedup,
		Marginal: r.Marginal, Recommend: r.Recommend,
	}
	if r.Err != nil {
		w.Err = r.Err.Error()
	}
	return json.Marshal(w)
}

// UnmarshalJSON restores a region advice; a non-empty err string becomes
// an opaque error carrying the same message.
func (r *RegionAdvice) UnmarshalJSON(data []byte) error {
	var w regionAdviceJSON
	if err := json.Unmarshal(data, &w); err != nil {
		return err
	}
	*r = RegionAdvice{
		Region: w.Region, Kind: w.Kind, Work: w.Work, Coverage: w.Coverage,
		WithSpeedup: w.WithSpeedup, WithoutSpeedup: w.WithoutSpeedup,
		Marginal: w.Marginal, Recommend: w.Recommend,
	}
	if w.Err != "" {
		r.Err = errors.New(w.Err)
	}
	return nil
}

// regionCandidate is one enumerated experiment target: the Root-child
// indices it covers, so variant synthesis can replace exactly those
// children on a cloned tree.
type regionCandidate struct {
	name string
	kind string
	work Cycles
	idxs []int
}

// adviseCandidates enumerates the causal experiment targets of a profile
// tree in deterministic first-occurrence order: top-level sections
// grouped by annotation name (one experiment serializes every dynamic
// execution of the static section), and each non-empty top-level serial
// run as its own "serial#N" candidate.
func adviseCandidates(root *tree.Node) []regionCandidate {
	var out []regionCandidate
	secAt := map[string]int{}
	serial := 0
	for i, child := range root.Children {
		switch child.Kind {
		case tree.Sec:
			name := child.Name
			if name == "" {
				name = fmt.Sprintf("sec@%d", i)
			}
			if j, ok := secAt[name]; ok {
				out[j].work += child.TotalLen()
				out[j].idxs = append(out[j].idxs, i)
				continue
			}
			secAt[name] = len(out)
			out = append(out, regionCandidate{name: name, kind: RegionSection, work: child.TotalLen(), idxs: []int{i}})
		case tree.U:
			if child.TotalLen() == 0 {
				continue
			}
			serial++
			out = append(out, regionCandidate{name: fmt.Sprintf("serial#%d", serial), kind: RegionSerial, work: child.TotalLen(), idxs: []int{i}})
		}
	}
	return out
}

// adviseRegions runs one causal experiment per candidate region through
// the sweep engine: estimate the tree variant where the region's
// parallelism is flipped, and compare against the baseline at the same
// configuration. Cancellation mid-fanout returns the experiments that
// completed (partial results); per-region failures rank last with Err
// set.
func (p *Profile) adviseRegions(ctx context.Context, eng sweep.Engine, estFn AdviseEstimator, bestReq Request, targetThreads int, speedups map[Request]float64) []RegionAdvice {
	cands := adviseCandidates(p.Tree)
	met := p.opts.Observer.Metrics
	met.Counter(obs.MAdviseRegions).Add(int64(len(cands)))
	if len(cands) == 0 {
		return nil
	}
	baseReq := bestReq
	baseReq.Threads = targetThreads
	base, ok := speedups[baseReq]
	if !ok {
		e, err := estFn(ctx, "", p, baseReq)
		if err != nil || e.Err != nil {
			return nil
		}
		base = e.Speedup
	}
	if base <= 0 {
		return nil
	}

	outs := sweep.RunCtx(ctx, eng, len(cands), func(cctx context.Context, i int) (RegionAdvice, error) {
		return p.regionExperiment(cctx, estFn, cands[i], baseReq, base)
	})
	regions := make([]RegionAdvice, 0, len(outs))
	anti := 0
	for i, out := range outs {
		if out.Skipped {
			continue // canceled before the experiment ran: partial results
		}
		ra := out.Value
		if ra.Region == "" {
			// A panicking estimator leaves Value zero; keep the label so
			// the report can name what failed.
			c := cands[i]
			ra = RegionAdvice{Region: c.name, Kind: c.kind, Work: c.work, Coverage: p.coverageOf(c.work)}
		}
		if out.Err != nil && ra.Err == nil {
			ra.Err = out.Err
		}
		if ra.Err == nil && !ra.Recommend {
			anti++
		}
		regions = append(regions, ra)
	}
	met.Counter(obs.MAdviseAntiRecs).Add(int64(anti))
	sort.SliceStable(regions, func(i, j int) bool {
		ri, rj := regions[i], regions[j]
		if (ri.Err == nil) != (rj.Err == nil) {
			return ri.Err == nil
		}
		return ri.Marginal > rj.Marginal
	})
	return regions
}

// regionExperiment measures one region's marginal speedup. For a section
// candidate the baseline already has the region parallel, so the variant
// serializes it ("without"); for a serial-run candidate the variant
// wraps it in a synthesized section ("with"). Either way exactly one
// extra estimate per region beyond the shared baseline.
func (p *Profile) regionExperiment(ctx context.Context, estFn AdviseEstimator, c regionCandidate, baseReq Request, base float64) (RegionAdvice, error) {
	ra := RegionAdvice{Region: c.name, Kind: c.kind, Work: c.work, Coverage: p.coverageOf(c.work)}
	variant, err := p.regionVariant(c, baseReq.Threads)
	if err != nil {
		ra.Err = err
		return ra, err
	}
	e, err := estFn(ctx, "region:"+c.kind+":"+c.name, variant, baseReq)
	if err == nil && e.Err != nil {
		err = e.Err
	}
	if err != nil {
		ra.Err = err
		return ra, err
	}
	if c.kind == RegionSerial {
		ra.WithSpeedup, ra.WithoutSpeedup = e.Speedup, base
	} else {
		ra.WithSpeedup, ra.WithoutSpeedup = base, e.Speedup
	}
	if ra.WithoutSpeedup > 0 {
		ra.Marginal = ra.WithSpeedup / ra.WithoutSpeedup
	}
	ra.Recommend = ra.Marginal > 1
	return ra, nil
}

func (p *Profile) coverageOf(work Cycles) float64 {
	if p.SerialCycles == 0 {
		return 0
	}
	return float64(work) / float64(p.SerialCycles)
}

// regionVariant synthesizes the tree variant of one candidate on a clone
// of the profile tree — the baseline is never touched — and wraps it in
// a tree-only Profile sharing the calibrated model, the way
// Profile.forRequest builds machine variants. Total work is conserved
// exactly: only the region's parallel structure changes, so the
// with/without estimates answer a pure causal question.
func (p *Profile) regionVariant(c regionCandidate, targetThreads int) (*Profile, error) {
	clone := p.Tree.Clone()
	for _, idx := range c.idxs {
		if idx >= len(clone.Children) {
			return nil, fmt.Errorf("prophet: advise: region %s index %d out of range", c.name, idx)
		}
		n := clone.Children[idx]
		switch c.kind {
		case RegionSection:
			// Serialize: the section's entire work (repeats folded in) as
			// one top-level serial computation.
			clone.Children[idx] = &tree.Node{Kind: tree.U, Len: n.TotalLen()}
		case RegionSerial:
			clone.Children[idx] = parallelizeRun(n, c.name, targetThreads)
		default:
			return nil, fmt.Errorf("prophet: advise: unknown region kind %q", c.kind)
		}
	}
	if err := clone.Validate(); err != nil {
		return nil, err
	}
	vo := p.opts
	vo.Surrogate = nil // variant trees must not train or answer the surrogate
	v := &Profile{
		Tree:         clone,
		Counters:     p.Counters,
		Model:        p.Model,
		SerialCycles: clone.TotalLen(),
		opts:         vo,
	}
	if v.SerialCycles != p.SerialCycles {
		return nil, fmt.Errorf("prophet: advise: region %s variant changed total work: %d != %d",
			c.name, v.SerialCycles, p.SerialCycles)
	}
	// Recalibrate burden factors exactly as profiling would have:
	// synthesized sections get factors from their synthesized counters;
	// surviving sections recompute to the same values (same model, same
	// counters). Hand-assigned burdens on counter-less sections survive,
	// as everywhere else.
	vo.assignBurdens(p.Model, clone)
	return v, nil
}

// parallelizeRun wraps a top-level serial U run in a synthesized
// parallel section. A Repeat run becomes one task per repetition (the
// natural loop decomposition the profiler itself would have recorded); a
// single long computation splits into min(targetThreads, Len) near-equal
// tasks. Both conserve total work exactly. The section's counter sample
// is synthesized from the node's observed memory traits — per
// repetition, matching the profiler's per-section samples — so burden
// recalibration sees the intensive ratios (MPI, traffic) the real code
// exhibited; a run with no observed memory traffic gets no counters and
// hence burden 1.
func parallelizeRun(n *tree.Node, name string, targetThreads int) *tree.Node {
	sec := &tree.Node{Kind: tree.Sec, Name: name}
	if r := n.Reps(); r > 1 {
		sec.Children = []*tree.Node{{
			Kind: tree.Task, Name: "it", Repeat: r,
			Children: []*tree.Node{{Kind: tree.U, Len: n.Len, Mem: n.Mem}},
		}}
	} else {
		k := targetThreads
		if clock.Cycles(k) > n.Len {
			k = int(n.Len)
		}
		if k < 1 {
			k = 1
		}
		q := n.Len / clock.Cycles(k)
		rem := int(n.Len % clock.Cycles(k))
		// rem tasks of q+1 cycles plus k-rem of q: exact conservation.
		if rem > 0 {
			sec.Children = append(sec.Children, &tree.Node{
				Kind: tree.Task, Name: "it", Repeat: rem,
				Children: []*tree.Node{{Kind: tree.U, Len: q + 1}},
			})
		}
		if k-rem > 0 {
			sec.Children = append(sec.Children, &tree.Node{
				Kind: tree.Task, Name: "it", Repeat: k - rem,
				Children: []*tree.Node{{Kind: tree.U, Len: q}},
			})
		}
	}
	if n.Mem != (tree.MemTraits{}) {
		sec.Counters = &counters.Sample{
			Instructions: n.Mem.Instructions,
			Cycles:       n.Len,
			LLCMisses:    n.Mem.LLCMisses,
		}
	}
	return sec
}
