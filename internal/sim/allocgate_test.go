//go:build !race

package sim

import (
	"context"
	"errors"
	"testing"

	"prophet/internal/machine"
)

// TestSimStepZeroAlloc is the allocation gate for the engine hot path:
// with observability disabled, processing an event (work slice start/end,
// preemption, heap push/pop, DRAM register/unregister) must not allocate.
// Rather than asserting an absolute number — thread coroutines and spawn
// closures legitimately allocate per thread — it runs the same workload
// shape at two very different step counts and requires the totals to
// match: any per-step allocation would show up thousands of times over.
//
// Excluded under the race detector, which instruments allocations and
// coroutine switches enough to perturb the count.
func TestSimStepZeroAlloc(t *testing.T) {
	cfg := Config{Cores: 4, Quantum: 10_000, ContextSwitch: -1}
	run := func(steps int) {
		_, _, err := Run(context.Background(), cfg, RunOpts{}, func(m *Thread) {
			ws := make([]*Thread, 0, 8)
			for k := 0; k < 8; k++ {
				ws = append(ws, m.Spawn(func(w *Thread) {
					for i := 0; i < steps; i++ {
						w.Work(5_000)
					}
				}))
			}
			for _, w := range ws {
				m.Join(w)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		run(16) // warm the machine pool to steady state
	}
	small := testing.AllocsPerRun(10, func() { run(16) })
	large := testing.AllocsPerRun(10, func() { run(4096) })
	// 4080 extra steps × 8 threads ≈ 65k extra events. The slack absorbs
	// incidental noise (a GC clearing the machine pool mid-measurement);
	// even a single alloc per event would overshoot it by three orders
	// of magnitude.
	if large > small+64 {
		t.Errorf("sim step path allocates: %.1f allocs at 16 steps vs %.1f at 4096 steps", small, large)
	}
}

// TestSimSpecStepZeroAlloc is the same gate for spec-built machines: the
// immutable-spec/pooled-instance split must keep the hot path at the same
// allocs/op — a pooled machine reset against a spec (including an
// asymmetric one, which takes the scaled slice path) derives speeds and
// domains into retained storage, never fresh allocations.
func TestSimSpecStepZeroAlloc(t *testing.T) {
	spec := &machine.Spec{
		Name:       "t-allocgate",
		CoreGroups: []machine.CoreGroup{{Count: 2, Speed: 1}, {Count: 2, Speed: 0.5}},
		Quantum:    10_000,
		// ContextSwitch 0 in a spec is literal (free switches), matching
		// the flat gate's ContextSwitch: -1.
		ContextSwitch: 0,
		LLC:           machine.LLCSpec{SizeBytes: 12 << 20, Ways: 16, LineBytes: 64},
		DRAM:          machine.DRAMSpec{UnloadedLatency: 40, BandwidthBytesPerCycle: 8, Knee: 0.75},
	}
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	cfg := Config{Spec: spec}
	run := func(steps int) {
		_, _, err := Run(context.Background(), cfg, RunOpts{}, func(m *Thread) {
			ws := make([]*Thread, 0, 8)
			for k := 0; k < 8; k++ {
				ws = append(ws, m.Spawn(func(w *Thread) {
					for i := 0; i < steps; i++ {
						w.WorkMem(5_000, 20)
					}
				}))
			}
			for _, w := range ws {
				m.Join(w)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		run(16)
	}
	small := testing.AllocsPerRun(10, func() { run(16) })
	large := testing.AllocsPerRun(10, func() { run(4096) })
	if large > small+64 {
		t.Errorf("spec-machine step path allocates: %.1f allocs at 16 steps vs %.1f at 4096 steps", small, large)
	}
}

// spawnWork is the non-capturing body of the spawn gate's threads.
func spawnWork(w *Thread) { w.Work(1_000) }

// TestSimSpawnAllocsBoundedByLiveThreads is the allocation gate for thread
// creation: an exited thread's coroutine is recycled by the next Spawn of
// the run, so allocations scale with the peak number of live threads, not
// with the number of spawns. A run of sequential Spawn/Join pairs keeps
// at most two threads alive however many it creates; without recycling
// every spawn would allocate a fresh coroutine (about a dozen allocations).
func TestSimSpawnAllocsBoundedByLiveThreads(t *testing.T) {
	cfg := Config{Cores: 2, Quantum: 10_000, ContextSwitch: -1}
	run := func(spawns int) {
		_, _, err := Run(context.Background(), cfg, RunOpts{}, func(m *Thread) {
			for k := 0; k < spawns; k++ {
				m.Join(m.Spawn(spawnWork))
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		run(1024) // warm the pooled machine's thread slots
	}
	small := testing.AllocsPerRun(10, func() { run(16) })
	large := testing.AllocsPerRun(10, func() { run(1024) })
	if large > small+64 {
		t.Errorf("spawn path allocates per thread: %.1f allocs at 16 spawns vs %.1f at 1024 spawns", small, large)
	}
}

// TestRecycledCoroutinePanicIsInternalError: a thread running on a
// recycled coroutine reports a panic exactly like a thread on a fresh one.
func TestRecycledCoroutinePanicIsInternalError(t *testing.T) {
	reused := false
	_, _, err := Run(context.Background(), cfg(2), RunOpts{}, func(m *Thread) {
		a := m.Spawn(spawnWork)
		co := a.co
		m.Join(a)
		b := m.Spawn(func(w *Thread) {
			w.Work(1_000)
			panic("recycled bug")
		})
		reused = b.co == co
		m.Join(b)
	})
	if !reused {
		t.Fatal("the second thread did not reuse the first one's coroutine")
	}
	var ie *InternalError
	if !errors.As(err, &ie) || ie.Value != "recycled bug" {
		t.Fatalf("err = %v, want *InternalError carrying the panic value", err)
	}
}

// TestRecycledCoroutinesCancel: cancelling a spawn-heavy run, whose
// threads run on recycled coroutines, still fails it with the context's
// error.
func TestRecycledCoroutinesCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	_, _, err := Run(ctx, cfg(2), RunOpts{}, func(m *Thread) {
		for k := 0; k < 1<<20; k++ {
			if k == 64 {
				cancel()
			}
			m.Join(m.Spawn(spawnWork))
		}
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
