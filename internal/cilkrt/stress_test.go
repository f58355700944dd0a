package cilkrt

import (
	"math/rand"
	"testing"

	"prophet/internal/clock"
	"prophet/internal/sim"
)

// TestRandomSpawnDAGProperty: random recursive spawn trees must execute
// every task exactly once, conserve work, and finish within the serial
// bound — across worker counts and shapes.
func TestRandomSpawnDAGProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 15; trial++ {
		workers := 1 + rng.Intn(6)
		maxDepth := 2 + rng.Intn(4)
		fanout := 1 + rng.Intn(3)
		leafWork := clock.Cycles(1_000 * (1 + rng.Intn(10)))

		var executed int
		var total clock.Cycles
		var build func(c *Ctx, depth int)
		build = func(c *Ctx, depth int) {
			executed++ // engine-serialized: safe
			c.Thread().Work(leafWork)
			total += leafWork
			if depth == 0 {
				return
			}
			for k := 0; k < fanout; k++ {
				c.Spawn(func(cc *Ctx) { build(cc, depth-1) })
			}
			c.Sync()
		}
		rt := New(workers, zeroOv)
		end, st := mustRun(t, mcfg(workers), func(th *sim.Thread) {
			rt.Run(th, func(c *Ctx) { build(c, maxDepth) })
		})
		// Node count of a full fanout tree of height maxDepth.
		want := 0
		p := 1
		for d := 0; d <= maxDepth; d++ {
			want += p
			p *= fanout
		}
		if executed != want {
			t.Fatalf("trial %d: executed %d tasks, want %d", trial, executed, want)
		}
		if clock.Cycles(st.Instructions) != total {
			t.Fatalf("trial %d: work not conserved: %g vs %d", trial, st.Instructions, total)
		}
		if end > total {
			t.Fatalf("trial %d: makespan %d beyond serial %d", trial, end, total)
		}
		if end < total/clock.Cycles(workers) {
			t.Fatalf("trial %d: makespan %d below perfect bound", trial, end)
		}
	}
}

// TestDeepRecursionDoesNotOverflow: a deep spawn chain (each task spawning
// one child) exercises the sync/steal path thousands of frames deep.
func TestDeepRecursionDoesNotOverflow(t *testing.T) {
	const depth = 2_000
	rt := New(2, zeroOv)
	var reached bool
	mustRun(t, mcfg(2), func(th *sim.Thread) {
		rt.Run(th, func(c *Ctx) {
			var rec func(cc *Ctx, d int)
			rec = func(cc *Ctx, d int) {
				if d == 0 {
					reached = true
					return
				}
				cc.Spawn(func(sc *Ctx) { rec(sc, d-1) })
				cc.Sync()
			}
			rec(c, depth)
		})
	})
	if !reached {
		t.Fatal("deep chain never bottomed out")
	}
}

// TestSequentialFallback: with one worker the runtime degenerates to exact
// serial execution.
func TestSequentialFallback(t *testing.T) {
	rt := New(1, zeroOv)
	end, _ := mustRun(t, mcfg(1), func(th *sim.Thread) {
		rt.Run(th, func(c *Ctx) {
			c.For(25, 1, func(cc *Ctx, i int) {
				cc.Thread().Work(1_000)
			})
		})
	})
	if end != 25_000 {
		t.Fatalf("serial fallback makespan = %d, want 25000", end)
	}
}

// TestRunTwiceOnSameThread: a runtime instance can host several Run calls
// back to back.
func TestRunTwiceOnSameThread(t *testing.T) {
	rt := New(3, zeroOv)
	end, _ := mustRun(t, mcfg(3), func(th *sim.Thread) {
		for r := 0; r < 2; r++ {
			rt.Run(th, func(c *Ctx) {
				c.For(12, 1, func(cc *Ctx, i int) {
					cc.Thread().Work(5_000)
				})
			})
		}
	})
	if end <= 0 || end > 2*12*5_000 {
		t.Fatalf("double run makespan = %d", end)
	}
}
