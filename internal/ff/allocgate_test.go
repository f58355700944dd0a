//go:build !race

package ff

import (
	"testing"

	"prophet/internal/omprt"
	"prophet/internal/tree"
)

// The race detector makes sync.Pool drop pooled scratch at random, so
// allocation counts are only meaningful without it.

// TestFFAllocsIndependentOfIterations: the heap path fetches static tasks
// by index instead of materializing per-worker queues, so a lock-bearing
// (static,1) section allocates no more at 16384 iterations than at 16.
func TestFFAllocsIndependentOfIterations(t *testing.T) {
	allocs := func(iters int) float64 {
		task := tree.NewTask("t", tree.NewU(100), tree.NewL(1, 10), tree.NewU(50))
		task.Repeat = iters
		root := tree.NewRoot(tree.NewSec("s", task))
		e := &Emulator{Threads: 8, Sched: omprt.SchedStatic1, Ov: omprt.DefaultOverheads()}
		return testing.AllocsPerRun(20, func() { e.PredictTime(root) })
	}
	small, large := allocs(16), allocs(16384)
	if large > small {
		t.Fatalf("allocs/op = %v at 16384 iterations, %v at 16: the heap path allocates per iteration", large, small)
	}
}
