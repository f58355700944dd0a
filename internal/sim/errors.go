package sim

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"prophet/internal/clock"
)

// Sentinel errors of the simulated machine. Structured errors returned by
// Run unwrap to one of these, so callers classify failures with
// errors.Is without depending on the concrete diagnostic types.
var (
	// ErrDeadlock is wrapped by *DeadlockError: every live thread is
	// blocked and no event can wake any of them.
	ErrDeadlock = errors.New("sim: deadlock")
	// ErrLockMisuse is wrapped by *LockMisuseError: a thread released a
	// lock it does not own (including double unlock).
	ErrLockMisuse = errors.New("sim: lock misuse")
	// ErrBudgetExceeded is wrapped by *BudgetError: the run outlived its
	// event-count or virtual-time watchdog budget.
	ErrBudgetExceeded = errors.New("sim: budget exceeded")
)

// ThreadDiag is one thread's row in a deadlock wait graph: what it holds,
// what it waits for, and its scheduler state at the time of the failure.
type ThreadDiag struct {
	// ID is the thread's creation-ordered identifier (main is 0).
	ID int
	// State is the scheduler state ("ready", "running", "blocked",
	// "exited").
	State string
	// Holds lists the lock IDs the thread currently owns, ascending.
	Holds []int
	// WaitsLock is the lock ID the thread is queued on, or -1.
	WaitsLock int
	// WaitsJoin is the ID of the thread being joined, or -1.
	WaitsJoin int
	// Parked reports a thread blocked in Park with no Unpark pending.
	Parked bool
}

func (d ThreadDiag) describe() string {
	var b strings.Builder
	fmt.Fprintf(&b, "thread %d: %s", d.ID, d.State)
	if len(d.Holds) > 0 {
		fmt.Fprintf(&b, ", holds %v", d.Holds)
	}
	switch {
	case d.WaitsLock >= 0:
		fmt.Fprintf(&b, ", waits for lock %d", d.WaitsLock)
	case d.WaitsJoin >= 0:
		fmt.Fprintf(&b, ", waits for thread %d to exit", d.WaitsJoin)
	case d.Parked:
		b.WriteString(", parked (no unpark pending)")
	}
	return b.String()
}

// DeadlockError reports a deadlocked simulation: at virtual time Time,
// Live threads were alive and none runnable. Threads carries the wait
// graph — which threads hold which locks and what each is blocked on — so
// a user can see the lock cycle in their annotated program instead of a
// hung process.
type DeadlockError struct {
	// Time is the virtual time at which the machine stalled.
	Time clock.Cycles
	// Live is the number of live (non-exited) threads.
	Live int
	// Threads is the per-thread wait graph, in thread-ID order.
	Threads []ThreadDiag
	// LockOwners maps each held lock ID to its owning thread.
	LockOwners map[int]int
}

// Error renders the one-line summary plus the wait graph.
func (e *DeadlockError) Error() string {
	return fmt.Sprintf("sim: deadlock at t=%d: %d live threads, none runnable\n%s",
		e.Time, e.Live, e.WaitGraph())
}

// Unwrap makes errors.Is(err, ErrDeadlock) true.
func (e *DeadlockError) Unwrap() error { return ErrDeadlock }

// WaitGraph renders the hold/wait relation, one indented line per thread:
//
//	thread 1: blocked, holds [1], waits for lock 2 (held by thread 2)
//	thread 2: blocked, holds [2], waits for lock 1 (held by thread 1)
func (e *DeadlockError) WaitGraph() string {
	var b strings.Builder
	for i, d := range e.Threads {
		if i > 0 {
			b.WriteByte('\n')
		}
		b.WriteString("  ")
		b.WriteString(d.describe())
		if d.WaitsLock >= 0 {
			if owner, ok := e.LockOwners[d.WaitsLock]; ok {
				fmt.Fprintf(&b, " (held by thread %d)", owner)
			}
		}
	}
	return b.String()
}

// LockMisuseError reports a thread releasing a lock it does not own — a
// double unlock or an unlock-without-lock in the annotated program or a
// runtime layer. It aborts the run instead of crashing the host process.
type LockMisuseError struct {
	// Time is the virtual time of the bad release.
	Time clock.Cycles
	// Thread is the offending thread's ID.
	Thread int
	// Lock is the lock being released.
	Lock int
	// Owner is the actual owner's thread ID, or -1 when the lock is
	// free (double unlock).
	Owner int
}

func (e *LockMisuseError) Error() string {
	owner := "nobody"
	if e.Owner >= 0 {
		owner = fmt.Sprintf("thread %d", e.Owner)
	}
	return fmt.Sprintf("sim: lock misuse at t=%d: thread %d unlocks lock %d owned by %s",
		e.Time, e.Thread, e.Lock, owner)
}

// Unwrap makes errors.Is(err, ErrLockMisuse) true.
func (e *LockMisuseError) Unwrap() error { return ErrLockMisuse }

// BudgetError reports a run that exceeded its watchdog budget
// (Config.MaxEvents / Config.MaxVirtualTime) — the typed outcome for
// runaway or livelocked simulations that would otherwise spin forever.
type BudgetError struct {
	// Time is the virtual time when the watchdog fired.
	Time clock.Cycles
	// Events is the number of simulator events processed so far.
	Events int64
	// MaxEvents / MaxTime echo the configured budgets (0 = unlimited).
	MaxEvents int64
	MaxTime   clock.Cycles
}

func (e *BudgetError) Error() string {
	return fmt.Sprintf("sim: budget exceeded at t=%d after %d events (max events %d, max time %d)",
		e.Time, e.Events, e.MaxEvents, e.MaxTime)
}

// Unwrap makes errors.Is(err, ErrBudgetExceeded) true.
func (e *BudgetError) Unwrap() error { return ErrBudgetExceeded }

// InternalError is a panic recovered from a thread function (a bug in the
// runtime layer or workload under test), converted into an error so a
// library caller's process survives.
type InternalError struct {
	// Value is the recovered panic value.
	Value any
	// Stack is the goroutine stack at the point of the panic.
	Stack []byte
}

func (e *InternalError) Error() string {
	return fmt.Sprintf("sim: thread panic: %v", e.Value)
}

// deadlockError snapshots the machine's wait graph for the error report.
func (m *Machine) deadlockError() *DeadlockError {
	e := &DeadlockError{Time: m.now, Live: m.live, LockOwners: map[int]int{}}

	waitsLock := map[int]int{} // thread ID -> lock ID
	holds := map[int][]int{}   // thread ID -> lock IDs
	lockIDs := make([]int, 0, len(m.locks))
	for id := range m.locks {
		lockIDs = append(lockIDs, id)
	}
	sort.Ints(lockIDs)
	for _, id := range lockIDs {
		l := m.locks[id]
		if l.owner != nil {
			holds[l.owner.id] = append(holds[l.owner.id], id)
			e.LockOwners[id] = l.owner.id
		}
		for _, w := range l.waiters {
			waitsLock[w.id] = id
		}
	}
	waitsJoin := map[int]int{} // thread ID -> joined thread ID
	for _, t := range m.threads[:m.nextID] {
		for _, j := range t.joiners {
			waitsJoin[j.id] = t.id
		}
	}

	for _, t := range m.threads[:m.nextID] {
		if t.state == stateExited {
			continue
		}
		d := ThreadDiag{ID: t.id, State: stateName(t.state), Holds: holds[t.id], WaitsLock: -1, WaitsJoin: -1}
		if id, ok := waitsLock[t.id]; ok {
			d.WaitsLock = id
		} else if id, ok := waitsJoin[t.id]; ok {
			d.WaitsJoin = id
		} else if t.inPark {
			d.Parked = true
		}
		e.Threads = append(e.Threads, d)
	}
	return e
}

func stateName(s tstate) string {
	switch s {
	case stateReady:
		return "ready"
	case stateRunning:
		return "running"
	case stateBlocked:
		return "blocked"
	case stateExited:
		return "exited"
	}
	return "unknown"
}
