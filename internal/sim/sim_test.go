package sim

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"prophet/internal/clock"
	"prophet/internal/mem"
)

// cfg returns a test machine: cores as given, no context-switch cost so
// makespans are exact, quantum 10k cycles.
func cfg(cores int) Config {
	return Config{Cores: cores, Quantum: 10_000, ContextSwitch: -1, DRAM: mem.DefaultDRAM()}
}

// mustRun is Run without options, failing the test on a simulation error.
func mustRun(t testing.TB, c Config, main func(*Thread)) (clock.Cycles, Stats) {
	t.Helper()
	end, st, err := Run(context.Background(), c, RunOpts{}, main)
	if err != nil {
		t.Fatal(err)
	}
	return end, st
}

func TestSingleThreadWork(t *testing.T) {
	end, st := mustRun(t, cfg(1), func(th *Thread) {
		th.Work(123_456)
	})
	if end != 123_456 {
		t.Fatalf("makespan = %d, want 123456", end)
	}
	if st.Instructions != 123_456 {
		t.Fatalf("instructions = %g, want 123456", st.Instructions)
	}
}

func TestWorkZeroIsNoop(t *testing.T) {
	end, _ := mustRun(t, cfg(1), func(th *Thread) {
		th.Work(0)
		th.Work(-5)
		th.WorkMem(0, 0)
	})
	if end != 0 {
		t.Fatalf("makespan = %d, want 0", end)
	}
}

func TestTwoThreadsTwoCoresParallel(t *testing.T) {
	end, _ := mustRun(t, cfg(2), func(th *Thread) {
		w := th.Spawn(func(w *Thread) { w.Work(80_000) })
		th.Work(50_000)
		th.Join(w)
	})
	if end != 80_000 {
		t.Fatalf("makespan = %d, want 80000 (parallel)", end)
	}
}

func TestOversubscriptionSerializes(t *testing.T) {
	end, st := mustRun(t, cfg(1), func(th *Thread) {
		w := th.Spawn(func(w *Thread) { w.Work(60_000) })
		th.Work(60_000)
		th.Join(w)
	})
	if end != 120_000 {
		t.Fatalf("makespan = %d, want 120000 (serialized)", end)
	}
	if st.Preemptions == 0 {
		t.Error("expected preemptions under oversubscription")
	}
}

func TestPreemptionInterleavesFairly(t *testing.T) {
	// Two 100k threads on one core with a 10k quantum: the FIRST to
	// finish must finish near 190k (fair slicing), not at 100k (FIFO
	// run-to-completion).
	var firstDone clock.Cycles
	mustRun(t, cfg(1), func(th *Thread) {
		w := th.Spawn(func(w *Thread) {
			w.Work(100_000)
			if firstDone == 0 {
				firstDone = w.Now()
			}
		})
		th.Work(100_000)
		if firstDone == 0 {
			firstDone = th.Now()
		}
		th.Join(w)
	})
	if firstDone < 180_000 {
		t.Fatalf("first thread finished at %d; want >= 180000 (time slicing)", firstDone)
	}
}

func TestNowAdvancesAcrossWork(t *testing.T) {
	mustRun(t, cfg(1), func(th *Thread) {
		if th.Now() != 0 {
			t.Errorf("initial Now = %d", th.Now())
		}
		th.Work(500)
		if th.Now() != 500 {
			t.Errorf("Now after Work(500) = %d", th.Now())
		}
	})
}

func TestLockMutualExclusionAndFIFO(t *testing.T) {
	// Three threads on three cores contend for one lock; critical
	// sections must serialize, and waiters acquire in arrival order.
	var order []int
	end, _ := mustRun(t, cfg(3), func(th *Thread) {
		mk := func(id int, arrive clock.Cycles) func(*Thread) {
			return func(w *Thread) {
				w.Work(arrive)
				w.Lock(1)
				order = append(order, id)
				w.Work(10_000)
				w.Unlock(1)
			}
		}
		a := th.Spawn(mk(1, 100))
		b := th.Spawn(mk(2, 200))
		c := th.Spawn(mk(3, 300))
		th.Join(a)
		th.Join(b)
		th.Join(c)
	})
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("acquisition order = %v, want [1 2 3]", order)
	}
	// Serialized critical sections: 100 + 3*10000 = 30100.
	if end != 30_100 {
		t.Fatalf("makespan = %d, want 30100", end)
	}
}

func TestUnlockNotOwnerReturnsTypedError(t *testing.T) {
	_, _, err := Run(context.Background(), cfg(1), RunOpts{}, func(th *Thread) {
		th.Unlock(7)
	})
	if !errors.Is(err, ErrLockMisuse) {
		t.Fatalf("expected ErrLockMisuse, got %v", err)
	}
	var me *LockMisuseError
	if !errors.As(err, &me) {
		t.Fatalf("expected *LockMisuseError, got %T", err)
	}
	if me.Lock != 7 || me.Thread != 0 || me.Owner != -1 {
		t.Fatalf("misuse diagnostic = %+v, want lock 7, thread 0, owner -1", me)
	}
	if !strings.Contains(err.Error(), "unlocks lock") {
		t.Fatalf("error text %q lacks the unlock description", err)
	}
}

func TestDoubleUnlockReturnsTypedError(t *testing.T) {
	_, _, err := Run(context.Background(), cfg(1), RunOpts{}, func(th *Thread) {
		th.Lock(3)
		th.Unlock(3)
		th.Unlock(3) // double unlock: typed error, not a crash
	})
	if !errors.Is(err, ErrLockMisuse) {
		t.Fatalf("expected ErrLockMisuse, got %v", err)
	}
}

func TestJoinAlreadyExited(t *testing.T) {
	end, _ := mustRun(t, cfg(2), func(th *Thread) {
		w := th.Spawn(func(w *Thread) { w.Work(10) })
		th.Work(50_000) // ensure w is long gone
		th.Join(w)      // must not block forever
	})
	if end != 50_000 {
		t.Fatalf("makespan = %d, want 50000", end)
	}
}

func TestParkUnparkToken(t *testing.T) {
	// Unpark before Park banks a token; Park then returns immediately.
	end, _ := mustRun(t, cfg(2), func(th *Thread) {
		var w *Thread
		w = th.Spawn(func(w2 *Thread) {
			w2.Work(10_000)
			w2.Park() // token already banked: no block
		})
		th.Unpark(w) // delivered long before the Park
		th.Join(w)
	})
	if end != 10_000 {
		t.Fatalf("makespan = %d, want 10000 (token consumed)", end)
	}
}

func TestParkBlocksUntilUnpark(t *testing.T) {
	end, _ := mustRun(t, cfg(2), func(th *Thread) {
		w := th.Spawn(func(w *Thread) {
			w.Park()
			w.Work(1_000)
		})
		th.Work(40_000)
		th.Unpark(w)
		th.Join(w)
	})
	if end != 41_000 {
		t.Fatalf("makespan = %d, want 41000", end)
	}
}

func TestDeadlockReturnsTypedError(t *testing.T) {
	// Classic two-thread lock cycle (A: 1 then 2, B: 2 then 1), run under a
	// 1s wall-clock deadline: the engine must detect the cycle, unwind, and
	// return a typed error with a wait graph — well before the deadline.
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	start := time.Now()
	_, _, err := Run(ctx, cfg(2), RunOpts{}, func(th *Thread) {
		a := th.Spawn(func(w *Thread) {
			w.Lock(1)
			w.Work(10_000)
			w.Lock(2)
			w.Unlock(2)
			w.Unlock(1)
		})
		b := th.Spawn(func(w *Thread) {
			w.Lock(2)
			w.Work(10_000)
			w.Lock(1)
			w.Unlock(1)
			w.Unlock(2)
		})
		th.Join(a)
		th.Join(b)
	})
	if !errors.Is(err, ErrDeadlock) {
		t.Fatalf("expected ErrDeadlock, got %v", err)
	}
	var de *DeadlockError
	if !errors.As(err, &de) {
		t.Fatalf("expected *DeadlockError, got %T", err)
	}
	if de.Live < 2 {
		t.Fatalf("deadlock diagnostic live = %d, want >= 2", de.Live)
	}
	wg := de.WaitGraph()
	if !strings.Contains(wg, "held by thread") || !strings.Contains(wg, "lock 1") || !strings.Contains(wg, "lock 2") {
		t.Fatalf("wait graph lacks holder/waiter edges:\n%s", wg)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("deadlock detection took %v, want well under the 1s deadline", elapsed)
	}
	if ctx.Err() != nil {
		t.Fatal("deadline expired before the deadlock was reported")
	}
}

func TestParkedForeverIsDeadlock(t *testing.T) {
	_, _, err := Run(context.Background(), cfg(1), RunOpts{}, func(th *Thread) {
		th.Park() // nobody will unpark
	})
	if !errors.Is(err, ErrDeadlock) {
		t.Fatalf("expected ErrDeadlock, got %v", err)
	}
	var de *DeadlockError
	if !errors.As(err, &de) || !strings.Contains(de.WaitGraph(), "parked") {
		t.Fatalf("wait graph should name the parked thread, got %v", err)
	}
}

func TestMaxEventsBudgetExceeded(t *testing.T) {
	c := cfg(1)
	c.MaxEvents = 1_000
	_, _, err := Run(context.Background(), c, RunOpts{}, func(th *Thread) {
		for { // runaway loop: never exits on its own
			th.Work(1)
		}
	})
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("expected ErrBudgetExceeded, got %v", err)
	}
	var be *BudgetError
	if !errors.As(err, &be) || be.Events < 1_000 {
		t.Fatalf("budget diagnostic = %v", err)
	}
}

func TestMaxVirtualTimeBudgetExceeded(t *testing.T) {
	c := cfg(1)
	c.MaxVirtualTime = 50_000
	_, _, err := Run(context.Background(), c, RunOpts{}, func(th *Thread) {
		for {
			th.Work(30_000)
		}
	})
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("expected ErrBudgetExceeded, got %v", err)
	}
}

func TestContextCancellationStopsRun(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already canceled: the engine must notice at its next poll
	_, _, err := Run(ctx, cfg(2), RunOpts{}, func(th *Thread) {
		for {
			th.Work(1)
		}
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("expected context.Canceled, got %v", err)
	}
}

func TestThreadPanicBecomesInternalError(t *testing.T) {
	_, _, err := Run(context.Background(), cfg(2), RunOpts{}, func(th *Thread) {
		w := th.Spawn(func(w *Thread) {
			w.Work(100)
			panic("workload bug")
		})
		th.Join(w)
	})
	var ie *InternalError
	if !errors.As(err, &ie) {
		t.Fatalf("expected *InternalError, got %v", err)
	}
	if ie.Value != "workload bug" || len(ie.Stack) == 0 {
		t.Fatalf("internal error diagnostic = %+v", ie)
	}
}

func TestErrorRunLeaksNoGoroutines(t *testing.T) {
	// After a failed run every virtual thread must be unwound. Stopping
	// the run's coroutines is synchronous, so once the deadlocking runs
	// return the goroutine count is back where it started, with no
	// settling delay. Only growth counts as a leak: an unrelated goroutine
	// (the previous test's runner finishing) may exit in the meantime.
	before := runtime.NumGoroutine()
	for i := 0; i < 50; i++ {
		_, _, err := Run(context.Background(), cfg(2), RunOpts{}, func(th *Thread) {
			var ws []*Thread
			for j := 0; j < 8; j++ {
				ws = append(ws, th.Spawn(func(w *Thread) {
					w.Lock(1)
					w.Work(1_000)
					// never unlocks: everyone else deadlocks
					w.Park()
				}))
			}
			for _, w := range ws {
				th.Join(w)
			}
		})
		if !errors.Is(err, ErrDeadlock) {
			t.Fatalf("iter %d: expected ErrDeadlock, got %v", i, err)
		}
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("goroutines: %d before the failed runs, %d after", before, after)
	}
}

func TestRunYieldsToWaitingGoroutines(t *testing.T) {
	// Thread handoffs are coroutine switches, which never enter the Go
	// scheduler. On a single P, a goroutine made runnable before the run
	// starts must still get to run while the run is in progress, not only
	// once it returns (or once the runtime preempts it after 10 ms).
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	ran := make(chan struct{})
	go close(ran)
	steps := 4 * yieldEvery
	var midRun bool
	_, _, err := Run(context.Background(), Config{Cores: 1, Quantum: 1_000, ContextSwitch: -1}, RunOpts{}, func(th *Thread) {
		w := th.Spawn(func(w *Thread) {
			for i := 0; i < steps; i++ {
				w.Work(1_000)
			}
		})
		for i := 0; i < steps; i++ {
			th.Work(1_000)
		}
		th.Join(w)
		select {
		case <-ran:
			midRun = true
		default:
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if !midRun {
		t.Fatalf("a runnable goroutine did not run during a %d-slice run on one P", 2*steps)
	}
}

func TestQuantumFaultHookJittersSlices(t *testing.T) {
	// A deterministic jitter hook must keep the run deterministic and
	// still complete all work.
	prog := func(th *Thread) {
		a := th.Spawn(func(w *Thread) { w.Work(100_000) })
		th.Work(100_000)
		th.Join(a)
	}
	hook := &FaultHooks{Quantum: func(core int, q clock.Cycles) clock.Cycles {
		return q - q/4
	}}
	e1, s1, err1 := Run(context.Background(), cfg(1), RunOpts{Faults: hook}, prog)
	e2, s2, err2 := Run(context.Background(), cfg(1), RunOpts{Faults: hook}, prog)
	if err1 != nil || err2 != nil {
		t.Fatalf("jittered runs failed: %v / %v", err1, err2)
	}
	if e1 != e2 || s1 != s2 {
		t.Fatalf("jittered run nondeterministic: %d vs %d", e1, e2)
	}
	if e1 != 200_000 {
		t.Fatalf("makespan = %d, want 200000 (work conserved under jitter)", e1)
	}
}

func TestYield(t *testing.T) {
	// A yielding thread lets the other make progress without waiting for
	// quantum expiry.
	var woke bool
	mustRun(t, cfg(1), func(th *Thread) {
		w := th.Spawn(func(w *Thread) { woke = true; w.Work(10) })
		th.Yield() // w runs first now
		if !woke {
			t.Error("yield did not run the ready thread")
		}
		th.Join(w)
	})
}

func TestWorkMemUnloadedLatency(t *testing.T) {
	c := cfg(1)
	// 1000 instruction-cycles + 10 misses at ω0=40 => 1400 cycles.
	end, st := mustRun(t, c, func(th *Thread) {
		th.WorkMem(1000, 10)
	})
	if end != 1400 {
		t.Fatalf("makespan = %d, want 1400", end)
	}
	if st.Misses != 10 {
		t.Fatalf("misses = %g, want 10", st.Misses)
	}
}

func TestDRAMContentionStretchesMemoryTime(t *testing.T) {
	// k pure-streaming threads, each generating 1.6 B/cyc unconstrained.
	// With B = 8 B/cyc, 2 threads fit (stretch 1) but 8 threads demand
	// 12.8 B/cyc and must stretch by ~1.6x.
	run := func(k int) clock.Cycles {
		end, _ := mustRun(t, cfg(12), func(th *Thread) {
			var ws []*Thread
			for i := 0; i < k; i++ {
				ws = append(ws, th.Spawn(func(w *Thread) {
					w.WorkMem(0, 50_000) // 2M cycles of pure misses
				}))
			}
			for _, w := range ws {
				th.Join(w)
			}
		})
		return end
	}
	t1 := run(1)
	t2 := run(2)
	t8 := run(8)
	if t1 != 2_000_000 {
		t.Fatalf("single stream = %d, want 2000000", t1)
	}
	if d := float64(t2-t1) / float64(t1); d > 0.05 {
		t.Errorf("2 streams stretched by %.2f%%; bus not saturated yet", 100*d)
	}
	ratio := float64(t8) / float64(t1)
	if ratio < 1.4 || ratio > 1.9 {
		t.Errorf("8-stream stretch = %.2fx, want ~1.6x", ratio)
	}
}

func TestDeterminism(t *testing.T) {
	prog := func(th *Thread) {
		var ws []*Thread
		for i := 0; i < 7; i++ {
			n := clock.Cycles(10_000 * (i + 1))
			ws = append(ws, th.Spawn(func(w *Thread) {
				w.Work(n)
				w.Lock(3)
				w.WorkMem(5_000, 100)
				w.Unlock(3)
				w.Work(n / 2)
			}))
		}
		for _, w := range ws {
			th.Join(w)
		}
	}
	e1, s1 := mustRun(t, cfg(3), prog)
	e2, s2 := mustRun(t, cfg(3), prog)
	if e1 != e2 || s1 != s2 {
		t.Fatalf("nondeterministic run: %d/%+v vs %d/%+v", e1, s1, e2, s2)
	}
}

func TestContextSwitchCost(t *testing.T) {
	c := Config{Cores: 1, Quantum: 10_000, ContextSwitch: 500}
	end, _ := mustRun(t, c, func(th *Thread) {
		w := th.Spawn(func(w *Thread) { w.Work(10_000) })
		th.Work(10_000)
		th.Join(w)
	})
	// Two 10k jobs serialized plus at least one 500-cycle switch.
	if end < 20_500 {
		t.Fatalf("makespan = %d, want >= 20500 with switch cost", end)
	}
}

func TestConfigDefaults(t *testing.T) {
	m := New(Config{})
	c := m.Config()
	if c.Cores != 12 || c.Quantum != 50_000 || c.ContextSwitch != 1_000 {
		t.Fatalf("defaults not applied: %+v", c)
	}
	if m.Time() != 0 {
		t.Fatalf("fresh machine time = %d", m.Time())
	}
	if m.DRAM() == nil {
		t.Fatal("DRAM not initialized")
	}
}

func TestManyThreadsManyCores(t *testing.T) {
	// 64 threads, 12 cores, mixed work: sanity that everything drains and
	// busy cycles are conserved (total work == sum of Work requests).
	const n = 64
	var total clock.Cycles
	end, st := mustRun(t, cfg(12), func(th *Thread) {
		var ws []*Thread
		for i := 0; i < n; i++ {
			w := clock.Cycles(1_000 * (i%9 + 1))
			total += w
			ws = append(ws, th.Spawn(func(wt *Thread) { wt.Work(w) }))
		}
		for _, w := range ws {
			th.Join(w)
		}
	})
	if st.Instructions < float64(total)*0.999 || st.Instructions > float64(total)*1.001 {
		t.Fatalf("instruction conservation: got %g, want %d", st.Instructions, total)
	}
	if end < total/12 {
		t.Fatalf("makespan %d below perfect-parallel bound %d", end, total/12)
	}
	if end > total {
		t.Fatalf("makespan %d above serial bound %d", end, total)
	}
}
