package experiments

import (
	"context"
	"fmt"
	"math/rand"

	"prophet"
	"prophet/internal/report"
	"prophet/internal/sweep"
	"prophet/internal/workloads"
)

// ScheduleRanking measures what a programmer actually uses the tool for
// (§I: "programmers can interactively use the tool to modify their source
// code"): given a program, does the predictor pick the *right schedule*
// and rank the alternatives correctly — even when absolute speedups are
// off?
//
// For each random Test1 sample, the FF predicts the speedup of every
// schedule; the result counts how often the predicted-best schedule is
// truly best (within a tie tolerance) and how often the full ranking
// matches the machine's. Samples run as sweep cells; Test1 profiles come
// from the harness cache shared with Fig. 11.
func (h *Harness) ScheduleRanking() *report.Table {
	cfg := h.cfg
	rng := rand.New(rand.NewSource(cfg.Seed))

	params := make([]workloads.Test1Params, cfg.Samples)
	for s := range params {
		params[s] = workloads.RandomTest1(rng)
	}

	coresUnder := []int{4, 8, 12}
	type tally struct{ bestHits, fullHits, n int }
	tallies := make([]tally, len(coresUnder))

	const tieTol = 0.03 // 3%: schedules this close count as tied

	type sampleOut struct {
		best, full []bool // per coresUnder entry
	}
	outs := sweep.RunCtx(h.ctx, h.eng, len(params), func(ctx context.Context, s int) (sampleOut, error) {
		var out sampleOut
		prof, err := h.profileTest1(ctx, params[s])
		if err != nil {
			return out, err
		}
		out.best = make([]bool, len(coresUnder))
		out.full = make([]bool, len(coresUnder))
		for ci, cores := range coresUnder {
			var pred, real [3]float64
			for si, sched := range fig11Scheds {
				req := prophet.Request{Method: prophet.FastForward, Threads: cores, Sched: sched}
				est, err := prof.EstimateCtx(ctx, req)
				if err != nil {
					return out, err
				}
				pred[si] = est.Speedup
				if real[si], err = prof.RealSpeedupCtx(ctx, req); err != nil {
					return out, err
				}
			}
			pb, rb := argmax(pred[:]), argmax(real[:])
			// Best-pick hit: the predicted winner is truly best, or
			// within the tie tolerance of the true best.
			out.best[ci] = pb == rb || real[pb] >= real[rb]*(1-tieTol)
			out.full[ci] = sameOrder(pred[:], real[:], tieTol)
		}
		return out, nil
	})
	for _, o := range outs {
		if o.Err != nil {
			continue
		}
		for ci := range coresUnder {
			if o.Value.best[ci] {
				tallies[ci].bestHits++
			}
			if o.Value.full[ci] {
				tallies[ci].fullHits++
			}
			tallies[ci].n++
		}
	}

	t := report.NewTable(
		fmt.Sprintf("Schedule-choice accuracy (FF, %d Test1 samples): does the tool pick the right schedule?", cfg.Samples),
		"cores", "best schedule correct", "full ranking correct")
	for ci, cores := range coresUnder {
		ta := tallies[ci]
		if ta.n == 0 {
			continue
		}
		t.AddRow(fmt.Sprintf("%d", cores),
			fmt.Sprintf("%.0f%%", 100*float64(ta.bestHits)/float64(ta.n)),
			fmt.Sprintf("%.0f%%", 100*float64(ta.fullHits)/float64(ta.n)))
	}
	return t
}

func argmax(xs []float64) int {
	best := 0
	for i, v := range xs {
		if v > xs[best] {
			best = i
		}
		_ = i
	}
	return best
}

// sameOrder reports whether pred ranks the schedules in the same order as
// real, treating real values within tol of each other as interchangeable.
func sameOrder(pred, real []float64, tol float64) bool {
	n := len(pred)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			// If reality clearly separates i and j, the prediction
			// must order them the same way.
			if real[i] > real[j]*(1+tol) && pred[i] < pred[j] {
				return false
			}
			if real[j] > real[i]*(1+tol) && pred[j] < pred[i] {
				return false
			}
		}
	}
	return true
}
