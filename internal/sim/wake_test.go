package sim

import (
	"testing"

	"prophet/internal/clock"
	"prophet/internal/obs"
)

// TestSleepWakeAndSliceEndOnOneCycle puts a sleep-expiry event and a
// slice-end event on the same cycle, each way round, on a pooled machine
// whose earlier run used more thread slots. The two must pop in the order
// they were queued (the key's seq decides a tie on time), and the wake
// must reach the sleeping thread by its slot index: the sleeper runs on
// in a slot past 0, at exactly the shared cycle.
func TestSleepWakeAndSliceEndOnOneCycle(t *testing.T) {
	c := machineCfg(4, 1_000_000, 0)
	m := New(c)
	run := func(main func(*Thread)) []obs.ExecEvent {
		t.Helper()
		m.reset(c)
		buf := &obs.TraceBuffer{}
		m.tracer = buf
		th := m.newThread(main)
		m.makeReady(th)
		if _, _, err := m.run(); err != nil {
			t.Fatal(err)
		}
		return buf.Events()
	}

	// The earlier run fills eight slots; the later runs use three.
	run(func(th *Thread) {
		var ws []*Thread
		for i := 0; i < 7; i++ {
			ws = append(ws, th.Spawn(func(w *Thread) { w.Work(100) }))
		}
		for _, w := range ws {
			th.Join(w)
		}
	})
	if len(m.threads) != 8 {
		t.Fatalf("warm-up run left %d thread slots, want 8", len(m.threads))
	}

	const d = 5_000
	for _, sleepFirst := range []bool{true, false} {
		var at, wokeAt clock.Cycles
		sleeperID, workerID := -1, -1
		sleep := func(w *Thread) {
			sleeperID = w.ID()
			w.Sleep(at - w.Now())
			wokeAt = w.Now()
		}
		work := func(w *Thread) {
			workerID = w.ID()
			w.Work(at - w.Now())
		}
		// The thread that starts first fixes the shared cycle, spawns
		// the other and queues its own event; the other queues its
		// event second, when it starts.
		first, second := work, sleep
		if sleepFirst {
			first, second = sleep, work
		}
		evs := run(func(th *Thread) {
			th.Join(th.Spawn(func(w *Thread) {
				at = w.Now() + d
				o := w.Spawn(second)
				first(w)
				w.Join(o)
			}))
		})

		if sleeperID < 1 || workerID < 1 {
			t.Fatalf("sleepFirst=%v: sleeper slot %d, worker slot %d, want both past 0", sleepFirst, sleeperID, workerID)
		}
		if wokeAt != at {
			t.Fatalf("sleepFirst=%v: sleeper resumed at %d, want %d", sleepFirst, wokeAt, at)
		}
		wake, end := -1, -1
		for i, ev := range evs {
			switch {
			case ev.Kind == obs.KUnblock && ev.Time == at && wake < 0:
				// The first unblock on the shared cycle is the wake;
				// joins the two threads' exits release may follow.
				if ev.Thread != sleeperID {
					t.Fatalf("sleepFirst=%v: first unblock at %d is of thread %d, want sleeper %d", sleepFirst, at, ev.Thread, sleeperID)
				}
				wake = i
			case ev.Kind == obs.KSlice && ev.End == at && ev.Thread == workerID:
				end = i
			}
		}
		if wake < 0 || end < 0 {
			t.Fatalf("sleepFirst=%v: wake at trace index %d, slice end at %d; want both at cycle %d", sleepFirst, wake, end, at)
		}
		if (wake < end) != sleepFirst {
			t.Fatalf("sleepFirst=%v: wake popped at trace index %d, slice end at %d; want the first-queued event first", sleepFirst, wake, end)
		}
	}
}
