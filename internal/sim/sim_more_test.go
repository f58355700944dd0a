package sim

import (
	"math/rand"
	"testing"

	"prophet/internal/clock"
)

// TestWorkMemSplitsAcrossQuanta: a memory segment longer than the quantum
// must be chunked, with contention re-evaluated per chunk — total misses
// are conserved either way.
func TestWorkMemSplitsAcrossQuanta(t *testing.T) {
	c := cfg(1)
	c.Quantum = 1_000 // tiny quantum: many chunks
	end, st := mustRun(t, c, func(th *Thread) {
		th.WorkMem(10_000, 500)
	})
	want := clock.Cycles(10_000 + 500*40)
	// Chunked rounding may add a cycle per chunk.
	if end < want || end > want+clock.Cycles(end/1_000)+50 {
		t.Fatalf("chunked WorkMem = %d, want ~%d", end, want)
	}
	if st.Misses < 499.5 || st.Misses > 500.5 {
		t.Fatalf("misses not conserved: %g", st.Misses)
	}
}

// TestPreemptedMemWorkReleasesBandwidth: while a memory-bound thread is
// preempted it must not count toward DRAM demand; a compute thread
// time-sharing the core doesn't change the streamer's total memory time.
func TestPreemptedMemWorkReleasesBandwidth(t *testing.T) {
	c := cfg(1)
	end, _ := mustRun(t, c, func(th *Thread) {
		w := th.Spawn(func(w *Thread) { w.WorkMem(0, 5_000) }) // 200k cycles of misses
		th.Work(100_000)
		th.Join(w)
	})
	// Serialized on one core: 100k + 200k = 300k (no self-contention).
	if end < 300_000 || end > 302_000 {
		t.Fatalf("makespan = %d, want ~300000", end)
	}
}

// TestLockChain: a chain of threads each holding two locks in order must
// serialize correctly without deadlock (same acquisition order).
func TestLockChain(t *testing.T) {
	end, _ := mustRun(t, cfg(4), func(th *Thread) {
		var ws []*Thread
		for i := 0; i < 4; i++ {
			ws = append(ws, th.Spawn(func(w *Thread) {
				w.Lock(1)
				w.Work(1_000)
				w.Lock(2)
				w.Work(1_000)
				w.Unlock(2)
				w.Unlock(1)
			}))
		}
		for _, w := range ws {
			th.Join(w)
		}
	})
	// Lock 1 serializes everything: 4 * 2000.
	if end != 8_000 {
		t.Fatalf("makespan = %d, want 8000", end)
	}
}

// TestStatsFields: busy cycles and events are populated and consistent.
func TestStatsFields(t *testing.T) {
	_, st := mustRun(t, cfg(2), func(th *Thread) {
		w := th.Spawn(func(w *Thread) { w.Work(30_000) })
		th.Work(30_000)
		th.Join(w)
	})
	if st.BusyCycles != 60_000 {
		t.Fatalf("busy = %d, want 60000", st.BusyCycles)
	}
	if st.Events == 0 {
		t.Fatal("no events recorded")
	}
}

// TestQuantumRefreshWithoutWaiters: a lone thread must not be preempted.
func TestQuantumRefreshWithoutWaiters(t *testing.T) {
	c := cfg(1)
	c.Quantum = 100
	_, st := mustRun(t, c, func(th *Thread) { th.Work(1_000_000) })
	if st.Preemptions != 0 {
		t.Fatalf("lone thread preempted %d times", st.Preemptions)
	}
}

// Property: for pure-compute fork/join programs, total/P <= makespan <=
// total, and instructions are conserved, across random shapes.
func TestMakespanBoundsProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 25; trial++ {
		cores := 1 + rng.Intn(8)
		n := 1 + rng.Intn(20)
		var total clock.Cycles
		lens := make([]clock.Cycles, n)
		for i := range lens {
			lens[i] = clock.Cycles(1_000 * (1 + rng.Intn(50)))
			total += lens[i]
		}
		end, st := mustRun(t, cfg(cores), func(th *Thread) {
			var ws []*Thread
			for _, l := range lens {
				l := l
				ws = append(ws, th.Spawn(func(w *Thread) { w.Work(l) }))
			}
			for _, w := range ws {
				th.Join(w)
			}
		})
		lower := total / clock.Cycles(cores)
		if end < lower {
			t.Fatalf("cores=%d: makespan %d < lower bound %d", cores, end, lower)
		}
		if end > total {
			t.Fatalf("cores=%d: makespan %d > serial %d", cores, end, total)
		}
		if clock.Cycles(st.Instructions) != total {
			t.Fatalf("instructions %g != total %d", st.Instructions, total)
		}
	}
}

// TestJoinMultipleWaiters: several threads joining the same target all
// wake.
func TestJoinMultipleWaiters(t *testing.T) {
	end, _ := mustRun(t, cfg(4), func(th *Thread) {
		target := th.Spawn(func(w *Thread) { w.Work(50_000) })
		var ws []*Thread
		for i := 0; i < 3; i++ {
			ws = append(ws, th.Spawn(func(w *Thread) {
				w.Join(target)
				w.Work(10_000)
			}))
		}
		for _, w := range ws {
			th.Join(w)
		}
	})
	// All three waiters run their 10k after the 50k target, in parallel.
	if end != 60_000 {
		t.Fatalf("makespan = %d, want 60000", end)
	}
}

// TestYieldNoReadyIsNoop: yielding with an empty ready queue keeps running.
func TestYieldNoReadyIsNoop(t *testing.T) {
	end, _ := mustRun(t, cfg(2), func(th *Thread) {
		th.Yield()
		th.Work(100)
	})
	if end != 100 {
		t.Fatalf("makespan = %d", end)
	}
}

// TestManyLocksIndependent: different lock ids never interfere. (9 cores:
// 8 workers plus the spawning main thread, so nobody time-slices.)
func TestManyLocksIndependent(t *testing.T) {
	end, _ := mustRun(t, cfg(9), func(th *Thread) {
		var ws []*Thread
		for i := 0; i < 8; i++ {
			id := i
			ws = append(ws, th.Spawn(func(w *Thread) {
				w.Lock(id)
				w.Work(20_000)
				w.Unlock(id)
			}))
		}
		for _, w := range ws {
			th.Join(w)
		}
	})
	if end != 20_000 {
		t.Fatalf("independent locks serialized: %d", end)
	}
}

// TestNormalizedConfig exposes the defaulted view used by callers.
func TestNormalizedConfig(t *testing.T) {
	n := (Config{}).Normalized()
	if n.Cores != 12 || n.Quantum != 50_000 || n.DRAM.UnloadedLatency != 40 {
		t.Fatalf("normalized = %+v", n)
	}
	n2 := (Config{ContextSwitch: -1}).Normalized()
	if n2.ContextSwitch != 0 {
		t.Fatalf("negative context switch not zeroed: %+v", n2)
	}
}

// TestSleepReleasesCore: a sleeping thread frees its core for others.
func TestSleepReleasesCore(t *testing.T) {
	end, st := mustRun(t, cfg(1), func(th *Thread) {
		w := th.Spawn(func(w *Thread) { w.Work(50_000) })
		th.Sleep(50_000) // core 0 free for w while main sleeps
		th.Join(w)
	})
	if end != 50_000 {
		t.Fatalf("makespan = %d, want 50000 (sleep overlapped work)", end)
	}
	if st.BusyCycles != 50_000 {
		t.Fatalf("busy = %d; sleep must not count as busy", st.BusyCycles)
	}
}

// TestSleepZeroNoop and ordering with events.
func TestSleepZeroNoop(t *testing.T) {
	end, _ := mustRun(t, cfg(1), func(th *Thread) {
		th.Sleep(0)
		th.Sleep(-10)
		th.Work(100)
		th.Sleep(900)
	})
	if end != 1_000 {
		t.Fatalf("makespan = %d, want 1000", end)
	}
}

// TestManySleepersWakeInOrder: staggered sleeps complete at their own
// deadlines.
func TestManySleepersWakeInOrder(t *testing.T) {
	var wakes []clock.Cycles
	mustRun(t, cfg(2), func(th *Thread) {
		var ws []*Thread
		for i := 3; i >= 1; i-- {
			d := clock.Cycles(i * 10_000)
			ws = append(ws, th.Spawn(func(w *Thread) {
				w.Sleep(d)
				wakes = append(wakes, w.Now()) // engine-serialized
			}))
		}
		for _, w := range ws {
			th.Join(w)
		}
	})
	if len(wakes) != 3 {
		t.Fatalf("wakes = %v", wakes)
	}
	for i := 1; i < len(wakes); i++ {
		if wakes[i] < wakes[i-1] {
			t.Fatalf("wake order wrong: %v", wakes)
		}
	}
	if wakes[0] != 10_000 || wakes[2] != 30_000 {
		t.Fatalf("wake times = %v", wakes)
	}
}
