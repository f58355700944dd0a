package hostexec

import (
	"context"
	"sync"
	"time"

	"prophet/internal/clock"
	"prophet/internal/omprt"
	"prophet/internal/synth"
	"prophet/internal/tree"
)

// HostSynthesizer runs the program-synthesis emulation on the *host*
// machine with real goroutines, spin delays and sync.Mutex — the paper's
// original deployment mode of §IV-E: measure the generated program where
// the parallelized code will actually run.
type HostSynthesizer struct {
	// Threads is the worker count to emulate.
	Threads int
	// Paradigm selects OpenMP-style parallel-for or the Cilk-style pool.
	Paradigm synth.Paradigm
	// Sched is the OpenMP schedule.
	Sched omprt.Sched
	// UseBurden applies the memory model's burden factors.
	UseBurden bool
	// Hz is the nominal cycle rate for FakeDelay and the measurement
	// clock (non-positive selects clock.DefaultHz).
	Hz float64

	mu    sync.Mutex
	locks map[int]*sync.Mutex
}

func (s *HostSynthesizer) threads() int {
	if s.Threads < 1 {
		return 1
	}
	return s.Threads
}

func (s *HostSynthesizer) hz() float64 {
	if s.Hz > 0 {
		return s.Hz
	}
	return clock.DefaultHz
}

func (s *HostSynthesizer) lock(id int) *sync.Mutex {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.locks == nil {
		s.locks = make(map[int]*sync.Mutex)
	}
	m := s.locks[id]
	if m == nil {
		m = &sync.Mutex{}
		s.locks[id] = m
	}
	return m
}

// PredictTimeCtx measures the synthetic program on the host and returns
// its duration in nominal cycles (tree.Driver: each distinct section is
// measured once). ctx is polled before each section measured: a section
// already running on real goroutines finishes first.
func (s *HostSynthesizer) PredictTimeCtx(ctx context.Context, root *tree.Node) (clock.Cycles, error) {
	return s.driver().PredictTime(ctx, root)
}

// SpeedupCtx returns profiled serial time / measured synthetic time.
func (s *HostSynthesizer) SpeedupCtx(ctx context.Context, root *tree.Node) (float64, error) {
	return s.driver().Speedup(ctx, root)
}

func (s *HostSynthesizer) driver() tree.Driver {
	return tree.Driver{Threads: s.threads(), UseBurden: s.UseBurden, Section: s.emulateTopLevelParSec}
}

// emulateTopLevelParSec generates and times one parallel section on the
// host with its lengths scaled by burden (Fig. 8's EmulTopLevelParSec with
// rdtsc replaced by the monotonic clock).
func (s *HostSynthesizer) emulateTopLevelParSec(_ context.Context, sec *tree.Node, burden float64) (clock.Cycles, error) {
	start := time.Now()
	if s.Paradigm == synth.Cilk {
		pool := NewPool(s.threads())
		pool.Run(func(c *Ctx) {
			s.runSecCilk(c, sec, burden)
		})
	} else {
		s.runSecOMP(sec, burden)
	}
	elapsed := time.Since(start)
	return clock.Cycles(elapsed.Seconds() * s.hz()), nil
}

func (s *HostSynthesizer) runSecOMP(sec *tree.Node, burden float64) {
	ix := tree.NewTaskIndex(sec)
	ParallelFor(s.threads(), ix.Len(), s.Sched, func(w, i int) {
		s.runTask(nil, ix.At(i), burden)
	})
}

func (s *HostSynthesizer) runSecCilk(c *Ctx, sec *tree.Node, burden float64) {
	ix := tree.NewTaskIndex(sec)
	c.For(ix.Len(), 1, func(cc *Ctx, i int) {
		s.runTask(cc, ix.At(i), burden)
	})
}

// runTask walks a task's segments; nested sections recurse through the
// active paradigm.
func (s *HostSynthesizer) runTask(cc *Ctx, task *tree.Node, burden float64) {
	for _, seg := range task.Children {
		for r := 0; r < seg.Reps(); r++ {
			switch {
			case seg.Kind != tree.Sec:
				s.leaf(seg, burden)
			case cc != nil:
				s.runSecCilk(cc, seg, burden)
			default:
				s.runSecOMP(seg, burden)
			}
		}
	}
}

// leaf runs one U, W or L segment: FakeDelay computation, a real sleep for
// I/O (the OS thread is released, as the annotated program's I/O would
// release it), and a real mutex around L.
func (s *HostSynthesizer) leaf(seg *tree.Node, burden float64) {
	hz := s.hz()
	switch seg.Kind {
	case tree.W:
		time.Sleep(time.Duration(float64(seg.Len) / hz * float64(time.Second)))
	case tree.L:
		m := s.lock(seg.LockID)
		m.Lock()
		FakeDelay(tree.Scaled(seg.Len, burden), hz)
		m.Unlock()
	default:
		FakeDelay(tree.Scaled(seg.Len, burden), hz)
	}
}
