package sim

import (
	"testing"

	"prophet/internal/clock"
)

// TestPinKeepsThreadOnCore: a pinned thread's slices all land on its core
// (verified through the traced KSlice events).
func TestPinKeepsThreadOnCore(t *testing.T) {
	var pinnedID int
	_, _, evs := slices(t, cfg(4), func(th *Thread) {
		w := th.Spawn(func(w *Thread) {
			pinnedID = w.ID()
			w.Pin(2)
			for i := 0; i < 10; i++ {
				w.Work(20_000) // cross quantum boundaries
				w.Yield()
			}
		})
		// Load the machine so migration would otherwise happen.
		others := []*Thread{}
		for i := 0; i < 6; i++ {
			others = append(others, th.Spawn(func(o *Thread) { o.Work(120_000) }))
		}
		th.Join(w)
		for _, o := range others {
			th.Join(o)
		}
	})
	sawPinned := false
	for _, iv := range evs {
		if iv.Thread != pinnedID {
			continue
		}
		// The very first slice may predate the Pin call; everything
		// after the first yield is pinned. Allow core !=2 only before
		// any core-2 slice was seen.
		if iv.Core == 2 {
			sawPinned = true
		} else if sawPinned {
			t.Fatalf("pinned thread ran on core %d after pinning: %+v", iv.Core, iv)
		}
	}
	if !sawPinned {
		t.Fatal("pinned thread never ran on its core")
	}
}

// TestTwoThreadsPinnedToSameCoreSerialize: affinity turns parallelism off.
func TestTwoThreadsPinnedToSameCoreSerialize(t *testing.T) {
	end, _ := mustRun(t, cfg(4), func(th *Thread) {
		mk := func() *Thread {
			return th.Spawn(func(w *Thread) {
				w.Pin(1)
				w.Yield() // reschedule onto the pinned core
				w.Work(100_000)
			})
		}
		a, b := mk(), mk()
		th.Join(a)
		th.Join(b)
	})
	if end < 200_000 {
		t.Fatalf("same-core pinned threads overlapped: %d", end)
	}
}

// TestPinnedThreadWaitsForItsCore: an unpinned thread can overtake a
// pinned one whose core is busy.
func TestPinnedThreadWaitsForItsCore(t *testing.T) {
	c := machineCfg(2, 1_000_000, 0) // no preemption: the hog keeps core 0
	var freeDone, pinnedDone clock.Cycles
	mustRun(t, c, func(th *Thread) {
		th.Pin(0)
		th.Yield() // main now owns core 0
		hogEnd := clock.Cycles(300_000)
		pinned := th.Spawn(func(w *Thread) {
			w.Pin(0)
			w.Yield()
			w.Work(10_000)
			pinnedDone = w.Now()
		})
		free := th.Spawn(func(w *Thread) {
			w.Work(10_000)
			freeDone = w.Now()
		})
		th.Work(hogEnd) // hog core 0 while the others sort themselves out
		th.Join(free)
		th.Join(pinned)
	})
	if freeDone > 50_000 {
		t.Fatalf("free thread should run immediately on core 1, done at %d", freeDone)
	}
	if pinnedDone < 300_000 {
		t.Fatalf("pinned thread ran before its core freed: done at %d", pinnedDone)
	}
}

// TestPinClamping: out-of-range pins clamp instead of wedging the
// scheduler.
func TestPinClamping(t *testing.T) {
	mustRun(t, cfg(2), func(th *Thread) {
		th.Pin(99)
		if th.Pinned() != 1 {
			t.Errorf("Pin(99) -> %d, want clamp to 1", th.Pinned())
		}
		th.Pin(-5)
		if th.Pinned() != -1 {
			t.Errorf("Pin(-5) -> %d, want -1", th.Pinned())
		}
		th.Work(1_000)
	})
}
