package hostexec

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"prophet/internal/clock"
	"prophet/internal/omprt"
	"prophet/internal/synth"
	"prophet/internal/tree"
)

// The host has an unknown core count (possibly 1), so these tests assert
// correctness — every iteration exactly once, mutual exclusion, ordering —
// not speedups.

// mustTime is s.PredictTimeCtx, failing the test on an error.
func mustTime(t *testing.T, s *HostSynthesizer, root *tree.Node) clock.Cycles {
	t.Helper()
	d, err := s.PredictTimeCtx(context.Background(), root)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestParallelForAllSchedules(t *testing.T) {
	for _, sched := range []omprt.Sched{
		omprt.SchedStatic, omprt.SchedStatic1, omprt.SchedDynamic1, omprt.SchedGuided,
		{Kind: omprt.Dynamic, Chunk: 7},
	} {
		n := 237
		counts := make([]int32, n)
		ParallelFor(4, n, sched, func(w, i int) {
			atomic.AddInt32(&counts[i], 1)
		})
		for i, c := range counts {
			if c != 1 {
				t.Fatalf("%v: iteration %d ran %d times", sched, i, c)
			}
		}
	}
}

// TestParallelForHugeChunk: a chunk far past the loop is the loop. The
// shared counter and the static round-robin stride must not overflow, so
// each of 10 iterations runs exactly once on 4 workers.
func TestParallelForHugeChunk(t *testing.T) {
	for _, kind := range []omprt.ScheduleKind{omprt.StaticChunk, omprt.Dynamic, omprt.Guided} {
		sched := omprt.Sched{Kind: kind, Chunk: 1 << 62}
		counts := make([]int32, 10)
		ParallelFor(4, len(counts), sched, func(w, i int) {
			atomic.AddInt32(&counts[i], 1)
		})
		for i, c := range counts {
			if c != 1 {
				t.Fatalf("%v: iteration %d ran %d times", sched, i, c)
			}
		}
	}
}

func TestParallelForDegenerate(t *testing.T) {
	ran := false
	ParallelFor(0, 1, omprt.SchedStatic, func(w, i int) { ran = true })
	if !ran {
		t.Fatal("nthreads clamp failed")
	}
	ParallelFor(4, 0, omprt.SchedStatic, func(w, i int) { t.Fatal("body ran for n=0") })
}

func TestPoolSpawnSync(t *testing.T) {
	p := NewPool(4)
	var sum atomic.Int64
	p.Run(func(c *Ctx) {
		for i := 1; i <= 100; i++ {
			i := i
			c.Spawn(func(*Ctx) { sum.Add(int64(i)) })
		}
		c.Sync()
		if got := sum.Load(); got != 5050 {
			t.Errorf("after sync: sum = %d, want 5050", got)
		}
	})
}

func TestPoolImplicitSyncAtReturn(t *testing.T) {
	p := NewPool(2)
	var leaf atomic.Bool
	p.Run(func(c *Ctx) {
		c.Spawn(func(cc *Ctx) {
			cc.Spawn(func(*Ctx) {
				time.Sleep(time.Millisecond)
				leaf.Store(true)
			})
			// no explicit sync: implicit at return
		})
		c.Sync()
		if !leaf.Load() {
			t.Error("grandchild escaped the implicit sync")
		}
	})
}

func TestPoolForCoversRange(t *testing.T) {
	p := NewPool(3)
	n := 500
	counts := make([]int32, n)
	p.Run(func(c *Ctx) {
		c.For(n, 0, func(cc *Ctx, i int) {
			atomic.AddInt32(&counts[i], 1)
		})
	})
	for i, cnt := range counts {
		if cnt != 1 {
			t.Fatalf("iteration %d ran %d times", i, cnt)
		}
	}
}

func TestPoolNestedFor(t *testing.T) {
	p := NewPool(4)
	var total atomic.Int64
	p.Run(func(c *Ctx) {
		c.For(10, 1, func(cc *Ctx, i int) {
			cc.For(10, 1, func(_ *Ctx, j int) {
				total.Add(1)
			})
		})
	})
	if total.Load() != 100 {
		t.Fatalf("nested for executed %d bodies, want 100", total.Load())
	}
}

func TestFakeDelayDuration(t *testing.T) {
	hz := clock.DefaultHz
	start := time.Now()
	FakeDelay(clock.Cycles(hz/100), hz) // 10 ms
	got := time.Since(start)
	if got < 9*time.Millisecond {
		t.Fatalf("FakeDelay returned after %v, want >= ~10ms", got)
	}
	if got > 200*time.Millisecond {
		t.Fatalf("FakeDelay took %v, far beyond 10ms", got)
	}
	// Degenerate inputs return immediately.
	start = time.Now()
	FakeDelay(0, hz)
	FakeDelay(-5, 0)
	if time.Since(start) > 50*time.Millisecond {
		t.Fatal("degenerate FakeDelay spun")
	}
}

func TestHostSynthesizerMeasuresSection(t *testing.T) {
	// 8 tasks x ~2ms: measured time must be positive and bounded by the
	// serial time (plus generous scheduling slack).
	tasks := make([]*tree.Node, 8)
	perTask := clock.FromSeconds(0.002, clock.DefaultHz)
	for i := range tasks {
		tasks[i] = tree.NewTask("t", tree.NewU(perTask))
	}
	root := tree.NewRoot(tree.NewSec("s", tasks...))
	s := &HostSynthesizer{Threads: 2, Sched: omprt.SchedDynamic1}
	got := mustTime(t, s, root)
	serial := root.TotalLen()
	if got <= 0 {
		t.Fatal("no time measured")
	}
	if float64(got) > 3*float64(serial) {
		t.Fatalf("measured %d far beyond serial %d", got, serial)
	}
	if sp, err := s.SpeedupCtx(context.Background(), root); err != nil || sp <= 0 {
		t.Fatalf("speedup %f, %v", sp, err)
	}
}

// cancelAfterPolls is a context that turns canceled once it has been
// polled n times: a cancellation landing while a section is measured.
type cancelAfterPolls struct {
	context.Context
	n int
}

func (c *cancelAfterPolls) Err() error {
	if c.n--; c.n < 0 {
		return context.Canceled
	}
	return nil
}

// TestHostSynthesizerCanceledMidRun: a context canceled while the first
// of two top-level sections runs stops the measurement before the second
// and returns the cancellation.
func TestHostSynthesizerCanceledMidRun(t *testing.T) {
	per := clock.FromSeconds(0.001, clock.DefaultHz)
	root := tree.NewRoot(
		tree.NewSec("a", tree.NewTask("t", tree.NewU(per))),
		tree.NewSec("b", tree.NewTask("t", tree.NewU(per))),
	)
	s := &HostSynthesizer{Threads: 2}
	ctx := &cancelAfterPolls{Context: context.Background(), n: 1}
	sp, err := s.SpeedupCtx(ctx, root)
	if !errors.Is(err, context.Canceled) || sp != 0 {
		t.Fatalf("SpeedupCtx = %v, %v; want 0, context.Canceled", sp, err)
	}
	if ctx.n != -1 {
		t.Fatalf("polled %d times, want 2 (once per section reached)", 1-ctx.n)
	}
}

// TestHostSynthesizerMeasuresSharedSectionOnce: a section node that occurs
// twice (compression shares identical sections) is measured once per
// estimate and its time reused, so the estimate polls ctx once and counts
// the section twice.
func TestHostSynthesizerMeasuresSharedSectionOnce(t *testing.T) {
	per := clock.FromSeconds(0.001, clock.DefaultHz)
	sec := tree.NewSec("a", tree.NewTask("t", tree.NewU(per)))
	s := &HostSynthesizer{Threads: 2}
	ctx := &cancelAfterPolls{Context: context.Background(), n: 1}
	twice, err := s.PredictTimeCtx(ctx, tree.NewRoot(sec, sec))
	if err != nil {
		t.Fatalf("shared section polled more than once: %v", err)
	}
	// One measured time counted twice is even, and at least twice the
	// 1 ms delay.
	if twice%2 != 0 || twice < 2*per {
		t.Errorf("shared section: %d cycles, want one measured time (≥ %d) counted twice", twice, per)
	}
}

func TestHostSynthesizerLocksExclusive(t *testing.T) {
	// Mutual exclusion through the emulated L nodes: run a section whose
	// tasks all hold lock 1 and assert no overlap via a guarded counter.
	var inCS atomic.Int32
	var violated atomic.Bool
	// Wrap FakeDelay-based emulation indirectly: use tiny L nodes and
	// hook exclusivity by wrapping the lock map — here we just verify
	// with a direct Pool + mutex scenario equivalent to runTask's path.
	s := &HostSynthesizer{Threads: 4}
	m := s.lock(1)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			m.Lock()
			if inCS.Add(1) > 1 {
				violated.Store(true)
			}
			time.Sleep(100 * time.Microsecond)
			inCS.Add(-1)
			m.Unlock()
		}()
	}
	wg.Wait()
	if violated.Load() {
		t.Fatal("critical sections overlapped")
	}
	// Same lock id returns the same mutex; different ids differ.
	if s.lock(1) != m || s.lock(2) == m {
		t.Fatal("lock identity broken")
	}
}

func TestHostSynthesizerCilkRecursion(t *testing.T) {
	inner := tree.NewSec("in",
		tree.NewTask("a", tree.NewU(clock.FromSeconds(0.001, clock.DefaultHz))),
		tree.NewTask("b", tree.NewU(clock.FromSeconds(0.001, clock.DefaultHz))),
	)
	root := tree.NewRoot(tree.NewSec("out",
		tree.NewTask("t", inner),
		tree.NewTask("u", tree.NewU(clock.FromSeconds(0.001, clock.DefaultHz))),
	))
	s := &HostSynthesizer{Threads: 2, Paradigm: synth.Cilk}
	if got := mustTime(t, s, root); got <= 0 {
		t.Fatalf("recursive cilk measurement = %d", got)
	}
}

func TestHostSynthesizerBurden(t *testing.T) {
	sec := tree.NewSec("s", tree.NewTask("t", tree.NewU(clock.FromSeconds(0.004, clock.DefaultHz))))
	sec.Burden = map[int]float64{1: 2.0}
	root := tree.NewRoot(sec)
	loaded := &HostSynthesizer{Threads: 1, UseBurden: true}
	// FakeDelay never returns early, so a burden of 2 makes the run at
	// least twice the section's serial length, however busy the host is.
	if got, want := mustTime(t, loaded, root), 1.9*float64(sec.TotalLen()); float64(got) < want {
		t.Fatalf("burden not applied on host: %d cycles, want >= %.0f", got, want)
	}
}
