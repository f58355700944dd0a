package sim

import (
	"context"
	"testing"

	"prophet/internal/obs"
)

// lockProgram exercises scheduling, preemption, locks and joins on a
// 2-core machine: four workers each take a lock and work past a quantum.
func lockProgram(th *Thread) {
	var ws []*Thread
	for i := 0; i < 4; i++ {
		ws = append(ws, th.Spawn(func(w *Thread) {
			w.Work(5_000)
			w.Lock(1)
			w.Work(15_000) // longer than one quantum: forces preemption races
			w.Unlock(1)
			w.Work(5_000)
		}))
	}
	for _, w := range ws {
		th.Join(w)
	}
}

// TestTracerEventInvariants checks the stream's structural invariants:
// lock events carry lock ids, instants have no End, slices have
// End > Time, and every schedule lands on a valid core.
func TestTracerEventInvariants(t *testing.T) {
	buf := &obs.TraceBuffer{}
	_, _, err := Run(context.Background(), cfg(2), RunOpts{Tracer: buf}, lockProgram)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[obs.ExecKind]int{}
	for _, ev := range buf.Events() {
		counts[ev.Kind]++
		switch ev.Kind {
		case obs.KSlice:
			if ev.End <= ev.Time {
				t.Errorf("slice with End %d <= Time %d", ev.End, ev.Time)
			}
			if ev.Core < 0 || ev.Core >= 2 {
				t.Errorf("slice on core %d", ev.Core)
			}
		case obs.KLockAcquire, obs.KLockBlocked, obs.KLockRelease:
			if ev.Lock != 1 {
				t.Errorf("%v with lock %d, want 1", ev.Kind, ev.Lock)
			}
		case obs.KSchedule:
			if ev.Core < 0 || ev.Core >= 2 {
				t.Errorf("schedule on core %d", ev.Core)
			}
		}
	}
	for _, k := range []obs.ExecKind{obs.KSlice, obs.KSchedule, obs.KSpawn, obs.KExit, obs.KLockAcquire, obs.KLockRelease, obs.KBlock, obs.KUnblock} {
		if counts[k] == 0 {
			t.Errorf("no %v events in a spawn/lock/join workload (counts: %v)", k, counts)
		}
	}
	if counts[obs.KSpawn] != 4 || counts[obs.KExit] != 5 {
		t.Errorf("spawn/exit = %d/%d, want 4/5", counts[obs.KSpawn], counts[obs.KExit])
	}
	// 4 acquisitions, 4 releases of the single contended lock.
	if counts[obs.KLockAcquire] != 4 || counts[obs.KLockRelease] != 4 {
		t.Errorf("lock acquire/release = %d/%d, want 4/4", counts[obs.KLockAcquire], counts[obs.KLockRelease])
	}
}

// TestRunMetrics checks the registry counters recorded by a machine run.
func TestRunMetrics(t *testing.T) {
	reg := &obs.Registry{}
	c := cfg(2)
	c.MaxEvents = 1_000_000
	_, st, err := Run(context.Background(), c, RunOpts{Metrics: reg}, lockProgram)
	if err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	if snap.Counters[obs.MSimRuns] != 1 {
		t.Errorf("runs = %d, want 1", snap.Counters[obs.MSimRuns])
	}
	if snap.Counters[obs.MSimEvents] != int64(st.Events) {
		t.Errorf("events counter %d != stats %d", snap.Counters[obs.MSimEvents], st.Events)
	}
	h := snap.Histograms[obs.MSimHeadroom]
	if h.Count != 1 {
		t.Fatalf("headroom observations = %d, want 1", h.Count)
	}
	if want := 1_000_000 - int64(st.Events); h.Min != want {
		t.Errorf("headroom = %d, want %d", h.Min, want)
	}
}
