package sim

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"prophet/internal/clock"
	"prophet/internal/obs"
)

// makeStep makes one step on w: queued, or through its Thread call.
func makeStep(w *Thread, op Op, queued bool) {
	if queued {
		w.Queue(op)
		return
	}
	switch op.kind {
	case opWork:
		if op.misses != 0 {
			w.WorkMem(clock.Cycles(op.instr), int64(op.misses))
		} else {
			w.Work(clock.Cycles(op.instr))
		}
	case opLock:
		w.Lock(op.lock)
	case opUnlock:
		w.Unlock(op.lock)
	case opSleep:
		w.Sleep(clock.Cycles(op.instr))
	default:
		panic("makeStep: not a queueable op")
	}
}

// randomScript returns one thread's steps: compute and memory work (zero
// lengths included), sleeps, and balanced lock/work/unlock runs.
func randomScript(rng *rand.Rand) []Op {
	var ops []Op
	for n := 1 + rng.Intn(12); n > 0; n-- {
		switch rng.Intn(6) {
		case 0:
			ops = append(ops, WorkOp(0))
		case 1:
			ops = append(ops, MemOp(clock.Cycles(rng.Intn(20_000)), int64(rng.Intn(400))))
		case 2:
			ops = append(ops, SleepOp(clock.Cycles(rng.Intn(6_000))))
		case 3:
			id := rng.Intn(3)
			ops = append(ops, LockOp(id), WorkOp(clock.Cycles(rng.Intn(8_000))), UnlockOp(id))
		default:
			ops = append(ops, WorkOp(clock.Cycles(1+rng.Intn(30_000))))
		}
	}
	return ops
}

// queueRun is the outcome of one run of a random program.
type queueRun struct {
	end    clock.Cycles
	stats  Stats
	events []obs.ExecEvent
	nows   []clock.Cycles
}

// runScripts runs main's script and one spawned thread per other script.
// With queued set, each step is queued except where direct[i][j] says it
// is called; Now() at the end of every thread plays what is left.
func runScripts(t *testing.T, c Config, scripts [][]Op, direct [][]bool, queued bool) queueRun {
	t.Helper()
	buf := &obs.TraceBuffer{}
	r := queueRun{nows: make([]clock.Cycles, len(scripts))}
	body := func(i int) func(*Thread) {
		return func(w *Thread) {
			for j, op := range scripts[i] {
				makeStep(w, op, queued && !direct[i][j])
			}
			r.nows[i] = w.Now()
		}
	}
	end, st, err := Run(context.Background(), c, RunOpts{Tracer: buf}, func(m *Thread) {
		ws := make([]*Thread, 0, len(scripts)-1)
		for i := 1; i < len(scripts); i++ {
			ws = append(ws, m.Spawn(body(i)))
		}
		body(0)(m)
		for _, w := range ws {
			m.Join(w)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	r.end, r.stats, r.events = end, st, buf.Events()
	return r
}

// TestQueuedStepsMatchCalls is the engine-level differential test: random
// programs on small machines (oversubscribed, short quanta, with and
// without a context-switch cost) give the same end time, stats, trace and
// per-thread times whether their steps are queued or called.
func TestQueuedStepsMatchCalls(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 200; trial++ {
		c := machineCfg(1+rng.Intn(4), []clock.Cycles{1_000, 10_000}[rng.Intn(2)], []clock.Cycles{0, 300}[rng.Intn(2)])
		n := 1 + rng.Intn(8)
		scripts := make([][]Op, n)
		direct := make([][]bool, n)
		for i := range scripts {
			scripts[i] = randomScript(rng)
			direct[i] = make([]bool, len(scripts[i]))
			for j := range direct[i] {
				direct[i][j] = rng.Intn(5) == 0
			}
		}
		called := runScripts(t, c, scripts, direct, false)
		queued := runScripts(t, c, scripts, direct, true)
		called.stats.Resumes, queued.stats.Resumes = 0, 0
		if !reflect.DeepEqual(called, queued) {
			t.Fatalf("trial %d (%s, %d threads): queued run differs from the called one:\ncalled end %d stats %+v nows %v\nqueued end %d stats %+v nows %v",
				trial, c.Spec.Name, n, called.end, called.stats, called.nows, queued.end, queued.stats, queued.nows)
		}
	}
}

// TestWorkZeroPlaysTheQueue: Work(0), WorkMem(0, 0) and Play return only
// after the queued steps have played, so code after them reads shared
// state at the right time. Here the worker with less queued work claims
// first, although it was spawned second.
func TestWorkZeroPlaysTheQueue(t *testing.T) {
	var claims []int
	mustRun(t, cfg(2), func(m *Thread) {
		a := m.Spawn(func(w *Thread) {
			w.Queue(WorkOp(1_000))
			w.Work(0)
			claims = append(claims, 1)
		})
		b := m.Spawn(func(w *Thread) {
			w.Queue(WorkOp(500))
			w.WorkMem(0, 0)
			claims = append(claims, 2)
		})
		m.Join(a)
		m.Join(b)
		m.Queue(WorkOp(300))
		m.Play()
		if m.now != 1_300 {
			t.Errorf("time after Play = %d, want 1300", m.now)
		}
	})
	if !reflect.DeepEqual(claims, []int{2, 1}) {
		t.Fatalf("claims = %v, want [2 1]", claims)
	}
}

// TestQueuedTeamSharesOneCoroutine: workers that only queue detach at
// their first step, and coroutines are bound at a thread's first resume,
// so a whole team runs on one coroutine with one resume per worker.
func TestQueuedTeamSharesOneCoroutine(t *testing.T) {
	const workers, steps = 8, 100
	body := func(queued bool) func(*Thread) {
		return func(m *Thread) {
			ws := make([]*Thread, 0, workers)
			for k := 0; k < workers; k++ {
				ws = append(ws, m.Spawn(func(w *Thread) {
					for i := 0; i < steps; i++ {
						makeStep(w, WorkOp(5_000), queued)
					}
				}))
			}
			for _, w := range ws {
				m.Join(w)
			}
			if queued {
				for _, w := range ws {
					if w.co == nil || w.co != ws[0].co || w.co == m.co {
						t.Fatal("queued workers did not share one coroutine apart from main's")
					}
				}
			}
		}
	}
	endC, called := mustRun(t, cfg(4), body(false))
	endQ, queued := mustRun(t, cfg(4), body(true))
	if endC != endQ || called.Events != queued.Events {
		t.Fatalf("queued run: end %d, %d events; called: end %d, %d events", endQ, queued.Events, endC, called.Events)
	}
	if called.Resumes < workers*steps || queued.Resumes > 2*workers+2 {
		t.Fatalf("resumes: %d called, %d queued; want >= %d and <= %d", called.Resumes, queued.Resumes, workers*steps, 2*workers+2)
	}
}

// TestQueuedStepFailures: failures raised by queued steps that the engine
// plays for a detached thread surface as the same typed errors, and the
// failed runs leak no goroutine.
func TestQueuedStepFailures(t *testing.T) {
	before := runtime.NumGoroutine()
	for i := 0; i < 20; i++ {
		_, _, err := Run(context.Background(), cfg(2), RunOpts{}, func(m *Thread) {
			w := m.Spawn(func(w *Thread) {
				w.Queue(WorkOp(1_000))
				w.Queue(UnlockOp(4)) // never locked
			})
			m.Join(w)
		})
		var me *LockMisuseError
		if !errors.As(err, &me) || me.Lock != 4 {
			t.Fatalf("queued unlock of a free lock: err = %v, want *LockMisuseError on lock 4", err)
		}
		_, _, err = Run(context.Background(), cfg(2), RunOpts{}, func(m *Thread) {
			m.Lock(1)
			w := m.Spawn(func(w *Thread) {
				w.Queue(WorkOp(1_000))
				w.Queue(LockOp(1)) // main never unlocks
			})
			m.Join(w)
		})
		if !errors.Is(err, ErrDeadlock) {
			t.Fatalf("queued lock of a held lock: err = %v, want ErrDeadlock", err)
		}
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("goroutines: %d before the failed runs, %d after", before, after)
	}
}
