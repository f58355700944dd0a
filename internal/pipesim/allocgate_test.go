//go:build !race

package pipesim

import (
	"context"
	"testing"

	"prophet/internal/sim"
	"prophet/internal/tree"
)

// TestPipelineAllocsIndependentOfIterations is the allocation gate for
// pipeline execution: running a Repeat-compressed pipeline section must
// cost the same allocations at 100 and at 1,000 iterations, so neither
// the stage slots nor the iteration list may be rebuilt per iteration.
// The section alternates two distinct three-stage tasks, one of them with
// a repeated segment, and runs them on three workers, so iterations hand
// off between workers and park.
//
// Excluded under the race detector, which instruments allocations and
// coroutine switches enough to perturb the count.
func TestPipelineAllocsIndependentOfIterations(t *testing.T) {
	section := func(iters int) *tree.Node {
		mid := tree.NewU(3_000)
		mid.Repeat = 2
		a := tree.NewTask("a", tree.NewU(2_000), mid)
		b := tree.NewTask("b", tree.NewU(1_000), tree.NewU(2_000), tree.NewU(1_500))
		a.Repeat, b.Repeat = iters/4, iters/4
		sec := tree.NewSec("pipe", a, b, a, b)
		sec.Pipeline = true
		return sec
	}
	exec := func(w *sim.Thread, seg *tree.Node) { w.Work(seg.Len) }
	mc := mcfg(3)
	allocs := func(iters int) float64 {
		sec := section(iters)
		return testing.AllocsPerRun(10, func() {
			_, _, err := sim.Run(context.Background(), mc, sim.RunOpts{}, func(main *sim.Thread) {
				Run(main, sec, 3, exec)
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
	allocs(100) // warm the machine pool to steady state
	small, large := allocs(100), allocs(1_000)
	// The slack absorbs incidental noise (a GC clearing the machine pool
	// mid-measurement); one allocation per iteration would overshoot it
	// by more than an order of magnitude.
	if large > small+16 {
		t.Errorf("pipeline execution allocates per iteration: %.1f allocs at 100 iterations vs %.1f at 1000", small, large)
	}
}
