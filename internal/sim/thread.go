package sim

import "prophet/internal/clock"

// The methods in this file form the API that code running *inside* a
// virtual thread uses. Each call hands control to the engine, which may
// advance virtual time, preempt the thread, or block it; the call returns
// when the engine schedules the thread again.
//
// Queue is the exception: it appends a step that the engine plays later,
// at exactly the point where it would otherwise have resumed the thread
// to make that call, so queued and called steps give the same run. Every
// other call plays the queue first. Code between queued steps runs ahead
// of them in virtual time, so it must not read state other threads write;
// play the queue (Play, or any engine call) before reading such state.

// call hands one request to the engine, after the thread's queued steps.
// The calling thread holds control, so the request is handled inline:
// when the thread keeps running the call returns immediately (no
// coroutine switch at all), otherwise the thread drives the engine onward
// and yields to the driver until it is resumed (see Machine.handoff).
// When the engine aborts the run (deadlock, misuse, budget,
// cancellation), call unwinds the thread's code with a private panic that
// threadBody recovers.
func (t *Thread) call(req request) {
	t.Play()
	req.t = t
	if t.m.handle(req) {
		t.m.handoff(t)
	}
}

// Queue appends op to the thread's queued steps and returns at once,
// without entering the engine.
func (t *Thread) Queue(op Op) { t.queue = append(t.queue, op) }

// Play returns once the engine has played every queued step; time then
// stands where the last step left it.
func (t *Thread) Play() {
	if len(t.queue) > 0 && t.m.play(t) {
		// The engine plays the rest before it resumes t.
		t.m.handoff(t)
	}
}

// Work consumes c cycles of pure computation (no memory traffic). It is the
// simulator's FakeDelay: time passes, caches and DRAM are untouched
// (§IV-E). The work is preemptible at quantum boundaries. Work(0) does
// nothing but play the queue.
func (t *Thread) Work(c clock.Cycles) {
	t.call(request{Op: WorkOp(c)})
}

// WorkMem consumes instrCycles cycles of computation interleaved with
// misses LLC misses. The memory portion dilates under DRAM contention, so
// the elapsed virtual time is at least instrCycles + misses·ω₀ and grows
// when other threads are streaming (§V's ground truth).
func (t *Thread) WorkMem(instrCycles clock.Cycles, misses int64) {
	t.call(request{Op: MemOp(instrCycles, misses)})
}

// Lock acquires the FIFO mutex id, blocking (and freeing the core) while
// another thread holds it. Handoff is direct: the longest waiter becomes
// the owner the moment the lock is released.
func (t *Thread) Lock(id int) {
	t.call(request{Op: LockOp(id)})
}

// Unlock releases the mutex id. Unlocking a mutex the thread does not own
// fails the run with a *LockMisuseError.
func (t *Thread) Unlock(id int) {
	t.call(request{Op: UnlockOp(id)})
}

// Spawn creates a new thread running f and returns it. The new thread is
// ready immediately and will run as soon as a core is free (or at the next
// quantum boundary under oversubscription).
func (t *Thread) Spawn(f func(*Thread)) *Thread {
	t.call(request{Op: Op{kind: opSpawn}, fn: f})
	nt := t.spawned
	t.spawned = nil
	return nt
}

// Join blocks until o has exited. Joining an already-exited thread returns
// immediately.
func (t *Thread) Join(o *Thread) {
	t.call(request{Op: Op{kind: opJoin}, other: o})
}

// Park blocks the thread until another thread calls Unpark on it. A pending
// Unpark delivered before Park consumes the token and returns immediately
// (the usual one-token semantics, so wakeups are never lost).
func (t *Thread) Park() {
	t.call(request{Op: Op{kind: opPark}})
}

// Unpark wakes o from Park, or banks a token if o is not parked.
func (t *Thread) Unpark(o *Thread) {
	t.call(request{Op: Op{kind: opUnpark}, other: o})
}

// Sleep blocks the thread for d cycles WITHOUT occupying a core — the
// machine-level primitive behind I/O waits (tree.W nodes): other threads
// run while this one sleeps. Sleep(0) and negative durations return
// immediately.
func (t *Thread) Sleep(d clock.Cycles) {
	t.call(request{Op: SleepOp(d)})
}
