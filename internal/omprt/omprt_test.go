package omprt

import (
	"context"
	"testing"

	"prophet/internal/clock"
	"prophet/internal/sim"
)

// zeroOv removes all runtime overheads so tests can assert exact makespans.
var zeroOv = Overheads{}

func mcfg(cores int) sim.Config {
	return sim.Config{Cores: cores, Quantum: 10_000, ContextSwitch: -1}
}

// mustRun runs main on a machine built from c, failing the test on a
// simulation error.
func mustRun(t testing.TB, c sim.Config, main func(*sim.Thread)) (clock.Cycles, sim.Stats) {
	t.Helper()
	end, st, err := sim.Run(context.Background(), c, sim.RunOpts{}, main)
	if err != nil {
		t.Fatal(err)
	}
	return end, st
}

// runFor executes one parallel-for on a fresh machine and returns makespan.
func runFor(t *testing.T, cores, threads, n int, sched Sched, iter func(i int) clock.Cycles) clock.Cycles {
	rt := New(threads, zeroOv)
	end, _ := mustRun(t, mcfg(cores), func(t *sim.Thread) {
		rt.ParallelFor(t, n, sched, func(w *sim.Thread, i int) {
			w.Work(iter(i))
		})
	})
	return end
}

func TestSchedStrings(t *testing.T) {
	cases := map[string]Sched{
		"(static)":    SchedStatic,
		"(static,1)":  SchedStatic1,
		"(dynamic,1)": SchedDynamic1,
		"(guided)":    SchedGuided,
		"(dynamic,4)": {Kind: Dynamic, Chunk: 4},
	}
	for want, s := range cases {
		if got := s.String(); got != want {
			t.Errorf("String() = %q, want %q", got, want)
		}
	}
}

func TestAllIterationsRunExactlyOnce(t *testing.T) {
	for _, sched := range []Sched{SchedStatic, SchedStatic1, SchedDynamic1, SchedGuided, {Kind: StaticChunk, Chunk: 3}, {Kind: Dynamic, Chunk: 5}} {
		n := 97
		seen := make([]int, n)
		rt := New(4, zeroOv)
		mustRun(t, mcfg(4), func(t *sim.Thread) {
			rt.ParallelFor(t, n, sched, func(w *sim.Thread, i int) {
				seen[i]++
				w.Work(10)
			})
		})
		for i, c := range seen {
			if c != 1 {
				t.Fatalf("%v: iteration %d ran %d times", sched, i, c)
			}
		}
	}
}

func TestStaticBlockPartition(t *testing.T) {
	// 4 threads, 8 equal iterations of 1000: static gives each thread a
	// contiguous pair; makespan 2000.
	end := runFor(t, 4, 4, 8, SchedStatic, func(int) clock.Cycles { return 1000 })
	if end != 2000 {
		t.Fatalf("makespan = %d, want 2000", end)
	}
}

func TestStaticImbalanceTriangular(t *testing.T) {
	// Triangular work: iteration i costs (i+1)*100, n=8, 2 threads.
	// static: T0 gets 0..3 (1000), T1 gets 4..7 (2600) -> 2600.
	// static,1: T0 gets evens (1600), T1 odds (2000) -> 2000.
	iter := func(i int) clock.Cycles { return clock.Cycles((i + 1) * 100) }
	if end := runFor(t, 2, 2, 8, SchedStatic, iter); end != 2600 {
		t.Fatalf("(static) makespan = %d, want 2600", end)
	}
	if end := runFor(t, 2, 2, 8, SchedStatic1, iter); end != 2000 {
		t.Fatalf("(static,1) makespan = %d, want 2000", end)
	}
}

func TestDynamicAdaptsToImbalance(t *testing.T) {
	// One giant iteration plus many small ones: dynamic keeps the other
	// thread busy, static,1 may stack smalls behind the giant's partner.
	iter := func(i int) clock.Cycles {
		if i == 0 {
			return 10_000
		}
		return 1_000
	}
	// n=11: dynamic: T0 takes i0 (10000); T1 does the ten smalls
	// (10000); makespan ~10000.
	end := runFor(t, 2, 2, 11, SchedDynamic1, iter)
	if end != 10_000 {
		t.Fatalf("(dynamic,1) makespan = %d, want 10000", end)
	}
}

func TestGuidedCoversAndBalances(t *testing.T) {
	end := runFor(t, 4, 4, 1000, SchedGuided, func(int) clock.Cycles { return 100 })
	// Perfect would be 25000; guided should be within 25%.
	if end < 25_000 || end > 31_250 {
		t.Fatalf("(guided) makespan = %d, want within [25000, 31250]", end)
	}
}

func TestTeamLargerThanLoopClamped(t *testing.T) {
	// 8 threads but only 3 iterations: must not spawn idle threads that
	// would add join overhead; exact makespan = 1 iteration since 3 run
	// in parallel.
	end := runFor(t, 8, 8, 3, SchedStatic, func(int) clock.Cycles { return 5000 })
	if end != 5000 {
		t.Fatalf("makespan = %d, want 5000", end)
	}
}

func TestSingleThreadRuntime(t *testing.T) {
	end := runFor(t, 4, 1, 5, SchedDynamic1, func(int) clock.Cycles { return 100 })
	if end != 500 {
		t.Fatalf("single-thread makespan = %d, want 500", end)
	}
}

func TestForkJoinOverheadsCharged(t *testing.T) {
	ov := Overheads{ForkPerThread: 1000, JoinBarrier: 2000, WorkerInit: 100}
	rt := New(4, ov)
	end, _ := mustRun(t, mcfg(4), func(t *sim.Thread) {
		rt.ParallelFor(t, 4, SchedStatic, func(w *sim.Thread, i int) {
			w.Work(10_000)
		})
	})
	// Master: 3*1000 fork + init 100 + 10000 + join(workers started
	// 3000 late, each +100 init) ... lower bound: 3000+100+10000+2000.
	if end < 15_100 {
		t.Fatalf("makespan = %d, want >= 15100 with overheads", end)
	}
	rt0 := New(4, zeroOv)
	end0, _ := mustRun(t, mcfg(4), func(t *sim.Thread) {
		rt0.ParallelFor(t, 4, SchedStatic, func(w *sim.Thread, i int) {
			w.Work(10_000)
		})
	})
	if end0 >= end {
		t.Fatalf("overheads had no effect: %d vs %d", end0, end)
	}
}

func TestDispatchOverheadPerChunk(t *testing.T) {
	ov := Overheads{Dispatch: 500}
	rt := New(1, ov)
	end, _ := mustRun(t, mcfg(1), func(t *sim.Thread) {
		rt.ParallelFor(t, 10, SchedDynamic1, func(w *sim.Thread, i int) {
			w.Work(100)
		})
	})
	// 10 fetches + 1 empty fetch = 11 dispatches of 500, plus 1000 work.
	if end != 11*500+10*100 {
		t.Fatalf("makespan = %d, want %d", end, 11*500+10*100)
	}
}

func TestCriticalSerializes(t *testing.T) {
	rt := New(4, zeroOv)
	var inCS, maxCS int
	end, _ := mustRun(t, mcfg(4), func(t *sim.Thread) {
		rt.ParallelFor(t, 4, SchedStatic1, func(w *sim.Thread, i int) {
			rt.Critical(w, 1, func() {
				inCS++
				if inCS > maxCS {
					maxCS = inCS
				}
				w.Work(1000)
				inCS--
			})
		})
	})
	if maxCS != 1 {
		t.Fatalf("critical sections overlapped: max concurrency %d", maxCS)
	}
	if end != 4000 {
		t.Fatalf("makespan = %d, want 4000 (fully serialized)", end)
	}
}

func TestNestedParallelOversubscribes(t *testing.T) {
	// Outer loop of 2 on 2 cores; each iteration runs an inner parallel
	// loop with 2 threads -> 4 threads on 2 cores. With preemptive
	// slicing, total work 4*30000 on 2 cores = 60000 ideal; naive
	// nesting should land within ~25% of that, NOT serialize to 120000.
	rtOuter := New(2, zeroOv)
	rtInner := New(2, zeroOv)
	end, _ := mustRun(t, mcfg(2), func(t *sim.Thread) {
		rtOuter.ParallelFor(t, 2, SchedStatic1, func(w *sim.Thread, i int) {
			rtInner.ParallelFor(w, 2, SchedStatic1, func(w2 *sim.Thread, j int) {
				w2.Work(30_000)
			})
		})
	})
	if end < 60_000 || end > 75_000 {
		t.Fatalf("nested makespan = %d, want [60000, 75000]", end)
	}
}

func TestZeroIterations(t *testing.T) {
	end := runFor(t, 2, 2, 0, SchedStatic, func(int) clock.Cycles { return 1 })
	if end != 0 {
		t.Fatalf("empty loop makespan = %d, want 0", end)
	}
}

func TestRuntimeAccessors(t *testing.T) {
	rt := New(0, DefaultOverheads())
	if rt.Threads() != 1 {
		t.Fatalf("Threads() = %d, want clamp to 1", rt.Threads())
	}
	if rt.Overheads() != DefaultOverheads() {
		t.Fatal("Overheads() mismatch")
	}
}
