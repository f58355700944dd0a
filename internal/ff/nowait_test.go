package ff

import (
	"testing"

	"prophet/internal/omprt"
	"prophet/internal/tree"
)

// TestNoWaitOverlapsWithTaskTail: a task runs a nested nowait section and
// then more computation; with nowait the tail overlaps the nested tasks on
// other CPUs, without it everything serializes behind the barrier.
func TestNoWaitOverlapsWithTaskTail(t *testing.T) {
	build := func(nowait bool) *tree.Node {
		inner := tree.NewSec("inner",
			tree.NewTask("i0", tree.NewU(1_000)),
			tree.NewTask("i1", tree.NewU(1_000)),
		)
		inner.NoWait = nowait
		return tree.NewRoot(tree.NewSec("outer",
			tree.NewTask("t", inner, tree.NewU(1_000)),
		))
	}
	e := &Emulator{Threads: 2, Sched: omprt.SchedStatic1}
	barrier := mustTime(t, e, build(false))
	nowait := mustTime(t, e, build(true))
	// With barrier: inner (two 1000 tasks on 2 cpus = 1000) + tail 1000
	// = 2000. With nowait: tail overlaps the inner task on cpu1; the
	// inner task on cpu0 serializes with the tail (non-preemptive), so
	// the result is still bounded by 2000 but the barrier wait vanishes
	// when the halves are uneven. Use an uneven case to see a win:
	if nowait > barrier {
		t.Fatalf("nowait (%d) slower than barrier (%d)", nowait, barrier)
	}

	// Uneven: one long inner task; the tail can overlap it under nowait.
	uneven := func(nw bool) *tree.Node {
		inner := tree.NewSec("inner",
			tree.NewTask("i0", tree.NewU(100)),
			tree.NewTask("i1", tree.NewU(3_000)),
		)
		inner.NoWait = nw
		return tree.NewRoot(tree.NewSec("outer",
			tree.NewTask("t", inner, tree.NewU(2_000)),
		))
	}
	b := mustTime(t, e, uneven(false))
	n := mustTime(t, e, uneven(true))
	// Barrier: wait for 3000, then 2000 tail => >= 5000.
	// Nowait: tail (on cpu0, after the 100 task) overlaps the 3000 task
	// on cpu1; join at task end => ~3000-ish.
	if b < 5_000 {
		t.Fatalf("barrier version %d, want >= 5000", b)
	}
	if n >= b {
		t.Fatalf("nowait %d did not beat barrier %d", n, b)
	}
	if n > 3_600 {
		t.Fatalf("nowait %d, want ~3000 (overlap)", n)
	}
}

// TestNoWaitStillJoinsBeforeTaskEnd: the enclosing task's completion time
// must cover the nowait section (no work may escape the task).
func TestNoWaitStillJoinsBeforeTaskEnd(t *testing.T) {
	inner := tree.NewSec("inner",
		tree.NewTask("i0", tree.NewU(10_000)),
	)
	inner.NoWait = true
	root := tree.NewRoot(tree.NewSec("outer",
		tree.NewTask("t", inner, tree.NewU(100)),
	))
	e := &Emulator{Threads: 4, Sched: omprt.SchedStatic1}
	got := mustTime(t, e, root)
	if got < 10_000 {
		t.Fatalf("predicted %d: nowait section escaped its task", got)
	}
}
