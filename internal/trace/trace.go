// Package trace implements Parallel Prophet's annotation API (Table II of
// the paper) and the interval profiling that turns an annotated serial run
// into a program tree (§IV-B), excluding the profiler's own overhead from
// the measured lengths (§VI-A).
//
// The annotation calls mirror the paper's C macros:
//
//	PAR_SEC_BEGIN(name)  -> Tracer.SecBegin(name)
//	PAR_SEC_END(nowait)  -> Tracer.SecEnd(nowait)
//	PAR_TASK_BEGIN(name) -> Tracer.TaskBegin(name)
//	PAR_TASK_END()       -> Tracer.TaskEnd()
//	LOCK_BEGIN(id)       -> Tracer.LockBegin(id)
//	LOCK_END(id)         -> Tracer.LockEnd(id)
//
// Computation between annotation events becomes U nodes (or L nodes inside
// a lock pair); tasks, sections and the root serial regions are carved out
// by the stack-matching algorithm the paper describes: *_BEGIN pushes a
// cycle stamp, *_END matches the kind at the top of the stack and records
// the elapsed cycles, minus the profiling overhead accumulated in between.
package trace

import (
	"errors"
	"fmt"

	"prophet/internal/clock"
	"prophet/internal/counters"
	"prophet/internal/tree"
)

// CounterSource provides cumulative hardware-counter readings; deltas are
// taken around each top-level parallel section, as the paper's PAPI-based
// memory profiling does. A nil source disables counter collection.
type CounterSource interface {
	// Counters returns the current cumulative counter values.
	Counters() counters.Sample
}

// ErrAnnotationMismatch is wrapped by all annotation-structure errors.
var ErrAnnotationMismatch = errors.New("trace: annotation mismatch")

type frame struct {
	node         *tree.Node   // Sec or Task being built (nil for lock frames)
	kind         tree.Kind    // Sec, Task or L
	start        clock.Cycles // adjusted begin stamp
	lastEvent    clock.Cycles // adjusted stamp of the previous event in this frame
	lockID       int
	counterStart counters.Sample // top-level sections only
	topLevel     bool
}

// Tracer performs interval profiling. It is not safe for concurrent use;
// an annotated *serial* program drives it from one goroutine, exactly as
// the paper's tool profiles a serial run.
type Tracer struct {
	clk      clock.Clock
	src      CounterSource
	root     *tree.Node
	stack    []frame
	rootLast clock.Cycles // adjusted time of the last top-level event
	excluded clock.Cycles // accumulated profiling self-overhead
	err      error
	finished bool
	hooks    Hooks // fault-injection points; zero value = pass-through

	// pending memory traits to attach to the next U/L leaf (sim mode).
	pendingMem tree.MemTraits
}

// New returns a tracer reading cycle stamps from clk and (optionally)
// counters from src.
func New(clk clock.Clock, src CounterSource) *Tracer {
	return &Tracer{clk: clk, src: src, root: &tree.Node{Kind: tree.Root}}
}

// now returns the adjusted current time: raw clock minus the accumulated
// profiling overhead, so recorded lengths exclude the profiler itself.
func (t *Tracer) now() clock.Cycles { return t.clk.Now() - t.excluded }

// exclude attributes all cycles since rawEntry to profiling overhead.
func (t *Tracer) exclude(rawEntry clock.Cycles) {
	if d := t.clk.Now() - rawEntry; d > 0 {
		t.excluded += d
	}
}

func (t *Tracer) fail(format string, args ...interface{}) {
	if t.err == nil {
		t.err = fmt.Errorf("%w: %s", ErrAnnotationMismatch, fmt.Sprintf(format, args...))
	}
}

func (t *Tracer) top() *frame {
	if len(t.stack) == 0 {
		return nil
	}
	return &t.stack[len(t.stack)-1]
}

// AddMem accumulates memory traits for the computation segment currently in
// progress; they are attached to the next U or L leaf the tracer creates.
// The simulated profiling context calls this alongside advancing the
// virtual clock; host-mode profiling never does.
func (t *Tracer) AddMem(instructions, llcMisses int64) {
	t.pendingMem.Instructions += instructions
	t.pendingMem.LLCMisses += llcMisses
}

// closeGap emits the computation since the frame's last event as a U node
// (or an L node when closing a lock) into the given parent.
func (t *Tracer) closeGap(parent *tree.Node, f *frame, until clock.Cycles, kind tree.Kind, lockID int) {
	gap := until - f.lastEvent
	if gap < 0 {
		gap = 0
	}
	if gap == 0 && t.pendingMem == (tree.MemTraits{}) && kind != tree.L {
		return
	}
	n := &tree.Node{Kind: kind, Len: gap, LockID: lockID, Mem: t.pendingMem}
	t.pendingMem = tree.MemTraits{}
	parent.Children = append(parent.Children, n)
}

// SecBegin opens a parallel section (PAR_SEC_BEGIN). Sections are legal at
// the top level or inside a task (nested parallelism).
func (t *Tracer) SecBegin(name string) {
	t.dispatch(EvSecBegin, func() { t.secBegin(name) })
}

func (t *Tracer) secBegin(name string) {
	raw := t.clk.Now()
	defer t.exclude(raw)
	now := raw - t.excluded
	f := t.top()
	node := &tree.Node{Kind: tree.Sec, Name: name}
	switch {
	case f == nil:
		// Top-level section: close the serial gap at root.
		rf := frame{lastEvent: t.rootLast}
		t.closeGap(t.root, &rf, now, tree.U, 0)
		t.root.Children = append(t.root.Children, node)
		nf := frame{node: node, kind: tree.Sec, start: now, lastEvent: now, topLevel: true}
		if t.src != nil {
			nf.counterStart = t.readCounters()
		}
		t.stack = append(t.stack, nf)
	case f.kind == tree.Task:
		t.closeGap(f.node, f, now, tree.U, 0)
		f.node.Children = append(f.node.Children, node)
		t.stack = append(t.stack, frame{node: node, kind: tree.Sec, start: now, lastEvent: now})
	default:
		t.fail("PAR_SEC_BEGIN(%q) inside %v", name, f.kind)
	}
}

// SecEnd closes the current parallel section (PAR_SEC_END). nowait records
// OpenMP's nowait: the section's implicit end barrier is suppressed.
func (t *Tracer) SecEnd(nowait bool) {
	t.dispatch(EvSecEnd, func() { t.secEnd(nowait) })
}

func (t *Tracer) secEnd(nowait bool) {
	raw := t.clk.Now()
	defer t.exclude(raw)
	now := raw - t.excluded
	f := t.top()
	if f == nil || f.kind != tree.Sec {
		t.fail("PAR_SEC_END with no open section")
		return
	}
	f.node.NoWait = nowait
	if f.topLevel {
		if t.src != nil {
			end := t.readCounters()
			s := end
			s.Instructions -= f.counterStart.Instructions
			s.Cycles -= f.counterStart.Cycles
			s.LLCMisses -= f.counterStart.LLCMisses
			if f.node.Counters == nil {
				f.node.Counters = &counters.Sample{}
			}
			f.node.Counters.Add(s)
		}
		t.rootLast = now
	}
	t.stack = t.stack[:len(t.stack)-1]
	if p := t.top(); p != nil {
		p.lastEvent = now
	}
	// Gaps between tasks inside a section are loop bookkeeping that
	// disappears under parallelization; they are deliberately dropped
	// (not modeled as computation), so nothing else to do here.
	t.pendingMem = tree.MemTraits{}
}

// TaskBegin opens a parallel task (PAR_TASK_BEGIN); legal only directly
// inside a section.
func (t *Tracer) TaskBegin(name string) {
	t.dispatch(EvTaskBegin, func() { t.taskBegin(name) })
}

func (t *Tracer) taskBegin(name string) {
	raw := t.clk.Now()
	defer t.exclude(raw)
	now := raw - t.excluded
	f := t.top()
	if f == nil || f.kind != tree.Sec {
		t.fail("PAR_TASK_BEGIN(%q) outside a section", name)
		return
	}
	node := &tree.Node{Kind: tree.Task, Name: name}
	f.node.Children = append(f.node.Children, node)
	t.stack = append(t.stack, frame{node: node, kind: tree.Task, start: now, lastEvent: now})
	t.pendingMem = tree.MemTraits{}
}

// TaskEnd closes the current task (PAR_TASK_END).
func (t *Tracer) TaskEnd() {
	t.dispatch(EvTaskEnd, t.taskEnd)
}

func (t *Tracer) taskEnd() {
	raw := t.clk.Now()
	defer t.exclude(raw)
	now := raw - t.excluded
	f := t.top()
	if f == nil || f.kind != tree.Task {
		t.fail("PAR_TASK_END with no open task")
		return
	}
	t.closeGap(f.node, f, now, tree.U, 0)
	t.stack = t.stack[:len(t.stack)-1]
	if p := t.top(); p != nil {
		p.lastEvent = now
	}
}

// LockBegin marks the acquisition of mutex id (LOCK_BEGIN); legal only
// inside a task, and lock regions may not nest (an L node is a leaf).
func (t *Tracer) LockBegin(id int) {
	t.dispatch(EvLockBegin, func() { t.lockBegin(id) })
}

func (t *Tracer) lockBegin(id int) {
	raw := t.clk.Now()
	defer t.exclude(raw)
	now := raw - t.excluded
	f := t.top()
	if f == nil || f.kind != tree.Task {
		t.fail("LOCK_BEGIN(%d) outside a task", id)
		return
	}
	t.closeGap(f.node, f, now, tree.U, 0)
	t.stack = append(t.stack, frame{node: f.node, kind: tree.L, start: now, lastEvent: now, lockID: id})
}

// LockEnd marks the release of mutex id (LOCK_END); the id must match the
// open LockBegin.
func (t *Tracer) LockEnd(id int) {
	t.dispatch(EvLockEnd, func() { t.lockEnd(id) })
}

func (t *Tracer) lockEnd(id int) {
	raw := t.clk.Now()
	defer t.exclude(raw)
	now := raw - t.excluded
	f := t.top()
	if f == nil || f.kind != tree.L {
		t.fail("LOCK_END(%d) with no open lock", id)
		return
	}
	if f.lockID != id {
		t.fail("LOCK_END(%d) does not match open LOCK_BEGIN(%d)", id, f.lockID)
		return
	}
	t.closeGap(f.node, f, now, tree.L, id)
	t.stack = t.stack[:len(t.stack)-1]
	if p := t.top(); p != nil {
		p.lastEvent = now
	}
}

// IOWait records an I/O wait of the given length inside the current task
// (the §VIII extension): the preceding computation is closed as a U node
// and a W node is appended. Machine-backed emulators let other threads run
// during W time; the FF treats it conservatively as computation.
func (t *Tracer) ioWait(now clock.Cycles, cycles int64) {
	f := t.top()
	if f == nil || f.kind != tree.Task {
		t.fail("IO_WAIT outside a task")
		return
	}
	t.closeGap(f.node, f, now, tree.U, 0)
	f.node.Children = append(f.node.Children, &tree.Node{Kind: tree.W, Len: clock.Cycles(cycles)})
	f.lastEvent = now + clock.Cycles(cycles)
}

// Err returns the first annotation error encountered, if any.
func (t *Tracer) Err() error { return t.err }

// ExcludedOverhead reports the total profiling self-overhead that was
// removed from the recorded lengths (§VI-A); it is zero under the virtual
// clock.
func (t *Tracer) ExcludedOverhead() clock.Cycles { return t.excluded }

// Finish closes profiling and returns the program tree. The trailing
// serial computation becomes the final top-level U node. Finish fails if
// any annotation pair is still open or was mismatched.
func (t *Tracer) Finish() (*tree.Node, error) {
	if t.finished {
		return nil, errors.New("trace: Finish called twice")
	}
	t.finished = true
	if t.err != nil {
		return nil, t.err
	}
	if len(t.stack) != 0 {
		f := t.top()
		return nil, fmt.Errorf("%w: %v still open at Finish", ErrAnnotationMismatch, f.kind)
	}
	now := t.now()
	rf := frame{lastEvent: t.rootLast}
	t.closeGap(t.root, &rf, now, tree.U, 0)
	if err := t.root.Validate(); err != nil {
		return nil, err
	}
	return t.root, nil
}
