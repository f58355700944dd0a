package cilkrt

import (
	"context"
	"fmt"
	"testing"

	"prophet/internal/clock"
	"prophet/internal/machine"
	"prophet/internal/sim"
)

var zeroOv = Overheads{}

// mcfg is the paper machine cut to cores, with a 10k-cycle quantum and
// free context switches so makespans are exact.
func mcfg(cores int) sim.Config {
	s := machine.Default().WithCores(fmt.Sprintf("t-cilkrt%d", cores), cores)
	s.Quantum, s.ContextSwitch = 10_000, 0
	return sim.Config{Spec: s}
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

func TestRunRootOnly(t *testing.T) {
	rt := New(4, zeroOv)
	end, _ := mustRun(t, mcfg(4), func(th *sim.Thread) {
		rt.Run(th, func(c *Ctx) {
			c.Thread().Work(12_345)
		})
	})
	if end != 12_345 {
		t.Fatalf("makespan = %d, want 12345", end)
	}
}

func TestSpawnRunsInParallel(t *testing.T) {
	rt := New(2, zeroOv)
	end, st := mustRun(t, mcfg(2), func(th *sim.Thread) {
		rt.Run(th, func(c *Ctx) {
			c.Spawn(func(cc *Ctx) { cc.Thread().Work(50_000) })
			c.Thread().Work(50_000)
			c.Sync()
		})
	})
	if end != 50_000 {
		t.Fatalf("makespan = %d, want 50000 (two tasks in parallel)", end)
	}
	_ = st
}

func TestSyncWaitsForChildren(t *testing.T) {
	rt := New(2, zeroOv)
	var childDone, syncSeen clock.Cycles
	mustRun(t, mcfg(2), func(th *sim.Thread) {
		rt.Run(th, func(c *Ctx) {
			c.Spawn(func(cc *Ctx) {
				cc.Thread().Work(80_000)
				childDone = cc.Thread().Now()
			})
			c.Thread().Work(1_000)
			c.Sync()
			syncSeen = c.Thread().Now()
		})
	})
	if syncSeen < childDone {
		t.Fatalf("sync returned at %d before child finished at %d", syncSeen, childDone)
	}
}

func TestImplicitSyncAtTaskReturn(t *testing.T) {
	// A spawned task that itself spawns but never syncs: the implicit
	// sync at function return must still cover the grandchild.
	rt := New(2, zeroOv)
	var grandDone clock.Cycles
	end, _ := mustRun(t, mcfg(2), func(th *sim.Thread) {
		rt.Run(th, func(c *Ctx) {
			c.Spawn(func(cc *Ctx) {
				cc.Spawn(func(g *Ctx) {
					g.Thread().Work(60_000)
					grandDone = g.Thread().Now()
				})
				// no explicit Sync here
			})
			c.Sync()
		})
	})
	if grandDone == 0 || end < grandDone {
		t.Fatalf("run ended at %d before grandchild at %d", end, grandDone)
	}
}

func TestForCoversAllIterations(t *testing.T) {
	rt := New(4, zeroOv)
	n := 103
	seen := make([]int, n)
	mustRun(t, mcfg(4), func(th *sim.Thread) {
		rt.Run(th, func(c *Ctx) {
			c.For(n, 0, func(cc *Ctx, i int) {
				seen[i]++
				cc.Thread().Work(10)
			})
		})
	})
	for i, cnt := range seen {
		if cnt != 1 {
			t.Fatalf("iteration %d ran %d times", i, cnt)
		}
	}
}

func TestForSpeedsUp(t *testing.T) {
	// 64 iterations of 10k cycles on 8 workers/8 cores: ideal 80k.
	// Work stealing should land within 30%.
	run := func(workers int) clock.Cycles {
		rt := New(workers, zeroOv)
		end, _ := mustRun(t, mcfg(8), func(th *sim.Thread) {
			rt.Run(th, func(c *Ctx) {
				c.For(64, 1, func(cc *Ctx, i int) {
					cc.Thread().Work(10_000)
				})
			})
		})
		return end
	}
	t1 := run(1)
	t8 := run(8)
	if t1 != 640_000 {
		t.Fatalf("serial for = %d, want 640000", t1)
	}
	if t8 > 104_000 {
		t.Fatalf("8-worker for = %d, want <= 104000 (~80k ideal)", t8)
	}
}

func TestRecursiveDivideAndConquer(t *testing.T) {
	// FFT/QSort-shaped recursion: T(n) spawns T(n/2) twice down to
	// leaves. Total work 2^d leaves of 5000 cycles; with 4 workers the
	// speedup should approach 4 (the paper's Fig. 12(c)/(d) pattern).
	var build func(c *Ctx, depth int)
	build = func(c *Ctx, depth int) {
		if depth == 0 {
			c.Thread().Work(5_000)
			return
		}
		c.Spawn(func(cc *Ctx) { build(cc, depth-1) })
		build(c, depth-1)
		c.Sync()
	}
	run := func(workers int) clock.Cycles {
		rt := New(workers, zeroOv)
		end, _ := mustRun(t, mcfg(workers), func(th *sim.Thread) {
			rt.Run(th, func(c *Ctx) { build(c, 7) }) // 128 leaves
		})
		return end
	}
	t1 := run(1)
	t4 := run(4)
	sp := float64(t1) / float64(t4)
	if t1 != 128*5_000 {
		t.Fatalf("serial recursion = %d, want 640000", t1)
	}
	if sp < 3.2 {
		t.Fatalf("4-worker recursive speedup = %.2f, want >= 3.2", sp)
	}
}

func TestStealsHappenAndAreCounted(t *testing.T) {
	rt := New(4, zeroOv)
	var st Stats
	mustRun(t, mcfg(4), func(th *sim.Thread) {
		st = rt.Run(th, func(c *Ctx) {
			c.For(32, 1, func(cc *Ctx, i int) {
				cc.Thread().Work(20_000)
			})
		})
	})
	if st.Spawns == 0 {
		t.Fatal("no spawns recorded")
	}
	if st.Steals == 0 {
		t.Fatal("no steals recorded; helpers never picked up work")
	}
}

func TestOverheadsCharged(t *testing.T) {
	run := func(ov Overheads) clock.Cycles {
		rt := New(1, ov)
		end, _ := mustRun(t, mcfg(1), func(th *sim.Thread) {
			rt.Run(th, func(c *Ctx) {
				for i := 0; i < 10; i++ {
					c.Spawn(func(cc *Ctx) { cc.Thread().Work(100) })
				}
				c.Sync()
			})
		})
		return end
	}
	plain := run(zeroOv)
	loaded := run(Overheads{Spawn: 500, RunTask: 200})
	if loaded-plain != 10*(500+200) {
		t.Fatalf("overhead delta = %d, want 7000", loaded-plain)
	}
}

func TestLocksInsideTasks(t *testing.T) {
	// L-node emulation: tasks serialize on a mutex via the sim thread.
	rt := New(4, zeroOv)
	end, _ := mustRun(t, mcfg(4), func(th *sim.Thread) {
		rt.Run(th, func(c *Ctx) {
			c.For(4, 1, func(cc *Ctx, i int) {
				cc.Thread().Lock(9)
				cc.Thread().Work(10_000)
				cc.Thread().Unlock(9)
			})
		})
	})
	if end < 40_000 {
		t.Fatalf("locked sections overlapped: makespan %d < 40000", end)
	}
}

func TestDeterminism(t *testing.T) {
	prog := func(th *sim.Thread) {
		rt := New(3, DefaultOverheads())
		rt.Run(th, func(c *Ctx) {
			c.For(40, 2, func(cc *Ctx, i int) {
				cc.Thread().Work(clock.Cycles(1000 * (i%5 + 1)))
			})
		})
	}
	e1, _ := mustRun(t, mcfg(3), prog)
	e2, _ := mustRun(t, mcfg(3), prog)
	if e1 != e2 {
		t.Fatalf("nondeterministic: %d vs %d", e1, e2)
	}
}

func TestWorkersClampedToOne(t *testing.T) {
	rt := New(0, zeroOv)
	if rt.Workers() != 1 {
		t.Fatalf("Workers() = %d, want 1", rt.Workers())
	}
}

func TestForZeroIterations(t *testing.T) {
	rt := New(2, zeroOv)
	end, _ := mustRun(t, mcfg(2), func(th *sim.Thread) {
		rt.Run(th, func(c *Ctx) {
			c.For(0, 1, func(cc *Ctx, i int) { t.Error("body ran") })
		})
	})
	if end != 0 {
		t.Fatalf("makespan = %d, want 0", end)
	}
}
