//go:build go1.23

package sim

import "iter"

// coro is the coroutine behind one virtual thread. It is driven from the
// Run caller (Machine.run): resuming it switches straight into the
// thread's code, and the thread yields back when it parks or exits — a
// direct coroutine switch each way, with no scheduler, no wakeup of an
// idle P and no goroutine migration.
//
// Coroutines are recycled within a run: when a thread exits, its
// coroutine (grown stack included) parks on the machine's idle list and
// the next Spawn runs its thread on it. Nothing crosses runs: stopCoros
// stops every coroutine of the run before Run returns.
type coro struct {
	m *Machine
	// t and fn are the thread the coroutine currently runs and its body;
	// Spawn reassigns them when it recycles an idle coroutine.
	t  *Thread
	fn func(*Thread)

	resume func() (struct{}, bool)
	stop   func()
	// yield suspends the coroutine back to the driver; it reports false
	// once the run has stopped the coroutine.
	yield func(struct{}) bool
}

// coroFor binds t and f to an idle coroutine of the run, or to a new one.
func (m *Machine) coroFor(t *Thread, f func(*Thread)) *coro {
	var c *coro
	if n := len(m.idle); n > 0 {
		c = m.idle[n-1]
		m.idle[n-1] = nil // a pooled machine pins no coroutine across runs
		m.idle = m.idle[:n-1]
	} else {
		c = &coro{m: m}
		c.resume, c.stop = iter.Pull(c.body)
		m.coros = append(m.coros, c)
	}
	c.t, c.fn = t, f
	return c
}

// body is the coroutine's function: it runs one thread after another
// until the run stops it. Between threads it sits on the idle list.
func (c *coro) body(yield func(struct{}) bool) {
	c.yield = yield
	for {
		if c.m.threadBody(c.t, c.fn) {
			return // unwound by stopCoros
		}
		c.m.idle = append(c.m.idle, c)
		if !yield(struct{}{}) {
			return
		}
	}
}

// stopCoros ends every coroutine of the run, live or idle. A live thread
// is parked inside yield, which returns false, and Machine.handoff
// unwinds its code; the stop returns once the unwinding is done, so no
// coroutine outlives the run. Indexing (rather than ranging) also stops
// a coroutine a thread spawns while it unwinds.
func (m *Machine) stopCoros() {
	for i := 0; i < len(m.coros); i++ {
		m.coros[i].stop()
	}
	clear(m.coros)
	m.coros = m.coros[:0]
	clear(m.idle)
	m.idle = m.idle[:0]
}
