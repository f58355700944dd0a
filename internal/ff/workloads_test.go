package ff_test

import (
	"context"
	"testing"

	"prophet"
	"prophet/internal/ff"
	"prophet/internal/omprt"
	"prophet/internal/workloads"
)

// TestBenchmarksFastPathsMatchHeap checks the flat-section fast paths on
// the profiled trees of the eight paper benchmarks: for every thread count
// 1..16, both static schedules and a dynamic one, with and without burden
// factors, the estimate is exactly the per-segment heap walk's.
func TestBenchmarksFastPathsMatchHeap(t *testing.T) {
	counts := make([]int, 16)
	for i := range counts {
		counts[i] = i + 1
	}
	spec := prophet.DefaultMachineSpec().WithCores("t-ff12", 12)
	spec.Quantum, spec.ContextSwitch = 10_000, 0
	mc := prophet.MachineConfig{Spec: spec}
	for _, name := range workloads.Names() {
		w, err := workloads.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		prof, err := prophet.ProfileProgramCtx(context.Background(), w.Program, &prophet.Options{Machine: mc, ThreadCounts: counts})
		if err != nil {
			t.Fatal(err)
		}
		for _, sched := range []omprt.Sched{omprt.SchedStatic, omprt.SchedStatic1, omprt.SchedDynamic1} {
			for _, burden := range []bool{false, true} {
				for _, p := range counts {
					e := &ff.Emulator{Threads: p, Sched: sched, Ov: omprt.DefaultOverheads(), UseBurden: burden}
					got, err := e.PredictTimeCtx(context.Background(), prof.Tree)
					if err != nil {
						t.Fatal(err)
					}
					if want := ff.HeapPredictTime(e, prof.Tree); got != want {
						t.Errorf("%s %v t=%d mem=%v: fast paths %d, heap %d", name, sched, p, burden, got, want)
					}
				}
			}
		}
	}
}
