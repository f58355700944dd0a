package prophet

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"

	"prophet/internal/machine"
	"prophet/internal/profimport"
	"prophet/internal/sim"
	"prophet/internal/trace"
	"prophet/internal/tree"
)

// The prophet error family. Every error returned by the public API wraps
// exactly one of these sentinels, so callers dispatch with errors.Is
// against this package alone — the internal packages that produce the
// errors never need to be imported (and, being internal, cannot be).
//
//	errors.Is(err, prophet.ErrDeadlock)        // the emulated program deadlocked
//	errors.Is(err, prophet.ErrCanceled)        // the caller's context fired
//	errors.As(err, &de /* *prophet.DeadlockError */) // wait-graph diagnostics
var (
	// ErrAnnotationMismatch: the annotated program's BEGIN/END pairs do
	// not nest properly (trace-layer structural errors).
	ErrAnnotationMismatch = trace.ErrAnnotationMismatch
	// ErrMalformedTree: a program tree violates the structural invariants
	// of §IV-B (bad child kinds, non-leaf U/L nodes, negative lengths).
	ErrMalformedTree = tree.ErrMalformed
	// ErrDeadlock: the emulated parallel program deadlocked on the
	// simulated machine. errors.As to *DeadlockError for the wait graph.
	ErrDeadlock = sim.ErrDeadlock
	// ErrLockMisuse: the emulated program unlocked a mutex it did not
	// hold (double unlock, unlock of a free lock).
	ErrLockMisuse = sim.ErrLockMisuse
	// ErrBudgetExceeded: a simulation ran past the configured watchdog
	// budget (MachineConfig.MaxEvents / MaxVirtualTime).
	ErrBudgetExceeded = sim.ErrBudgetExceeded
	// ErrCanceled: the caller's context was canceled. Deadline expiry
	// surfaces as context.DeadlineExceeded, as usual.
	ErrCanceled = context.Canceled
	// ErrProfileCorrupt: an imported execution profile (pprof protobuf
	// or folded stacks) is not decodable.
	ErrProfileCorrupt = profimport.ErrCorrupt
	// ErrProfileEmpty: an imported profile decoded but carries no
	// samples with positive weight — there is nothing to predict over.
	ErrProfileEmpty = profimport.ErrEmpty
	// ErrProfileTooLarge: an imported profile exceeds the configured
	// size limit (raw or after gzip expansion).
	ErrProfileTooLarge = profimport.ErrTooLarge
	// ErrInvalidMachineSpec: a MachineSpec failed validation. errors.As
	// to *MachineSpecError for the offending field.
	ErrInvalidMachineSpec = machine.ErrInvalidSpec
	// ErrUnknownMachine: a machine name (Request.Machine, -machines, a
	// daemon request's machine field) resolves to no registered preset.
	ErrUnknownMachine = machine.ErrUnknownSpec
	// ErrDuplicateMachineSpec: RegisterMachineSpec (or POST /v1/machines)
	// named a spec that is already registered; specs are immutable after
	// publication, so names can never be rebound.
	ErrDuplicateMachineSpec = machine.ErrDuplicateSpec
	// ErrInvalidRequest: Profile.Resolve rejected a Request, or
	// NormalizeCores / NormalizeMachines an axis.
	ErrInvalidRequest = errors.New("prophet: invalid request")
)

// errorFamily is the family above, for recoverToError.
var errorFamily = []error{
	ErrAnnotationMismatch, ErrMalformedTree, ErrDeadlock, ErrLockMisuse,
	ErrBudgetExceeded, ErrCanceled, context.DeadlineExceeded,
	ErrProfileCorrupt, ErrProfileEmpty, ErrProfileTooLarge,
	ErrInvalidMachineSpec, ErrUnknownMachine, ErrDuplicateMachineSpec,
	ErrInvalidRequest,
}

// Diagnostic error types, re-exported so callers can errors.As without
// reaching into internal packages.
type (
	// DeadlockError carries the deadlock time and a wait-graph snapshot
	// of every live thread (what it holds, what it waits for).
	DeadlockError = sim.DeadlockError
	// LockMisuseError identifies the offending thread, lock and owner.
	LockMisuseError = sim.LockMisuseError
	// BudgetError reports which watchdog budget a run exhausted.
	BudgetError = sim.BudgetError
	// MachineSpecError pinpoints the field of an invalid MachineSpec.
	MachineSpecError = machine.SpecError
)

// PanicError is a panic recovered at the public API boundary: a bug in the
// library, a runtime layer, or the user's annotated program body. The
// original value and stack are preserved for reporting.
type PanicError struct {
	Value any
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("prophet: recovered panic: %v", e.Value)
}

// recoverToError converts an in-flight panic into a *PanicError stored in
// *errp; call as `defer recoverToError(&err)` at public API boundaries.
// Panics that already carry one of the family's typed errors (a legacy
// panicking path escaping through new code) are unwrapped back to errors.
func recoverToError(errp *error) {
	r := recover()
	if r == nil {
		return
	}
	if err, ok := r.(error); ok && isProphetError(err) {
		if *errp == nil {
			*errp = err
		}
		return
	}
	if *errp == nil {
		*errp = &PanicError{Value: r, Stack: debug.Stack()}
	}
}

// isProphetError reports whether err belongs to the typed family.
func isProphetError(err error) bool {
	for _, sentinel := range errorFamily {
		if errors.Is(err, sentinel) {
			return true
		}
	}
	var ie *sim.InternalError
	return errors.As(err, &ie)
}
