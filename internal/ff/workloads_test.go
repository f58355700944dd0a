package ff_test

import (
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
	mc := prophet.MachineConfig{Cores: 12, Quantum: 10_000, ContextSwitch: -1}
	for _, name := range workloads.Names() {
		w, err := workloads.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		prof, err := prophet.ProfileProgram(w.Program, &prophet.Options{Machine: mc, ThreadCounts: counts})
		if err != nil {
			t.Fatal(err)
		}
		for _, sched := range []omprt.Sched{omprt.SchedStatic, omprt.SchedStatic1, omprt.SchedDynamic1} {
			for _, burden := range []bool{false, true} {
				for _, p := range counts {
					e := &ff.Emulator{Threads: p, Sched: sched, Ov: omprt.DefaultOverheads(), UseBurden: burden}
					if got, want := e.PredictTime(prof.Tree), ff.HeapPredictTime(e, prof.Tree); got != want {
						t.Errorf("%s %v t=%d mem=%v: fast paths %d, heap %d", name, sched, p, burden, got, want)
					}
				}
			}
		}
	}
}
