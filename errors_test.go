package prophet

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"prophet/internal/tree"
)

// The error-taxonomy contract of the public API: every failure mode
// surfaces as a typed error dispatchable with errors.Is/errors.As against
// this package's sentinels, and no input — not even a panicking user
// program — crashes the caller.

// TestPanicInProgramBodyIsContained: a panic inside the user's annotated
// program is recovered at the API boundary and returned as *PanicError
// with the original value and a stack.
func TestPanicInProgramBodyIsContained(t *testing.T) {
	_, err := ProfileProgramCtx(context.Background(), func(Context) { panic("user bug") },
		&Options{DisableMemoryModel: true})
	if err == nil {
		t.Fatal("ProfileProgramCtx returned nil error for a panicking program")
	}
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %T %v, want *PanicError", err, err)
	}
	if pe.Value != "user bug" {
		t.Errorf("PanicError.Value = %v, want the original panic value", pe.Value)
	}
	if len(pe.Stack) == 0 {
		t.Error("PanicError.Stack is empty")
	}
	if !strings.Contains(err.Error(), "user bug") {
		t.Errorf("Error() = %q, want it to mention the panic value", err)
	}
}

// TestAnnotationMismatchIsTyped: a structurally broken annotation stream
// fails with ErrAnnotationMismatch, reachable from the root package
// without importing internals.
func TestAnnotationMismatchIsTyped(t *testing.T) {
	_, err := ProfileProgramCtx(context.Background(), func(ctx Context) {
		ctx.SecBegin("left open")
		ctx.Compute(1_000, 0)
	}, &Options{DisableMemoryModel: true})
	if !errors.Is(err, ErrAnnotationMismatch) {
		t.Fatalf("err = %v, want errors.Is ErrAnnotationMismatch", err)
	}
}

// TestMalformedTreeIsTyped: loading a structurally invalid tree (a task
// directly under the root) fails with ErrMalformedTree.
func TestMalformedTreeIsTyped(t *testing.T) {
	bad := &Tree{Kind: tree.Root, Children: []*Tree{{Kind: tree.Task}}}
	_, err := ProfileTreeCtx(context.Background(), bad, &Options{DisableMemoryModel: true})
	if !errors.Is(err, ErrMalformedTree) {
		t.Fatalf("err = %v, want errors.Is ErrMalformedTree", err)
	}
}

// TestEstimateBudgetExceededIsTyped: a machine watchdog budget trips
// inside an emulated run and surfaces through EstimateCtx as
// ErrBudgetExceeded — and through the never-panicking Estimate as the
// same error in the Err field.
func TestEstimateBudgetExceededIsTyped(t *testing.T) {
	prog := func(ctx Context) {
		ctx.SecBegin("s")
		for i := 0; i < 8; i++ {
			ctx.TaskBegin("t")
			ctx.Compute(100_000, 0)
			ctx.TaskEnd()
		}
		ctx.SecEnd(false)
	}
	machine := MachineConfig{MaxEvents: 5} // far below what the synthesizer run needs
	prof, err := ProfileProgramCtx(context.Background(), prog, &Options{Machine: machine, DisableMemoryModel: true})
	if err != nil {
		t.Fatalf("profile: %v", err)
	}
	req := Request{Method: Synthesizer, Threads: 4}
	_, err = prof.EstimateCtx(context.Background(), req)
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("EstimateCtx err = %v, want errors.Is ErrBudgetExceeded", err)
	}
	var be *BudgetError
	if !errors.As(err, &be) {
		t.Fatalf("err = %T, want errors.As *BudgetError", err)
	}
}

// TestEstimateCtxHonorsCancellation: a canceled context stops both
// profiling and prediction with ErrCanceled.
func TestEstimateCtxHonorsCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := ProfileProgramCtx(ctx, func(Context) {}, nil); !errors.Is(err, ErrCanceled) {
		t.Fatalf("ProfileProgramCtx err = %v, want ErrCanceled", err)
	}

	prof, err := ProfileProgramCtx(context.Background(), func(ctx Context) {
		ctx.SecBegin("s")
		ctx.TaskBegin("t")
		ctx.Compute(1_000, 0)
		ctx.TaskEnd()
		ctx.SecEnd(false)
	}, &Options{DisableMemoryModel: true})
	if err != nil {
		t.Fatalf("profile: %v", err)
	}
	_, err = prof.EstimateCtx(ctx, Request{Method: Synthesizer, Threads: 2})
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("EstimateCtx err = %v, want ErrCanceled", err)
	}
	if _, err := prof.RealSpeedupCtx(ctx, Request{Threads: 2}); !errors.Is(err, ErrCanceled) {
		t.Fatalf("RealSpeedupCtx err = %v, want ErrCanceled", err)
	}
}

// TestEstimateCtxDeadline: an expired deadline surfaces as
// context.DeadlineExceeded, distinct from ErrCanceled, so callers (and
// the CLIs' exit codes) can tell the two apart.
func TestEstimateCtxDeadline(t *testing.T) {
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	_, err := ProfileProgramCtx(ctx, func(Context) {}, nil)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if errors.Is(err, ErrCanceled) {
		t.Fatal("deadline expiry must not satisfy errors.Is(err, ErrCanceled)")
	}
}

// TestEstimateOnHostCtxContainsPanic: the host synthesizer runs on the
// calling goroutine, so a panic inside it must come back as *PanicError
// in both the error and the estimate instead of crashing the caller.
func TestEstimateOnHostCtxContainsPanic(t *testing.T) {
	p := &Profile{} // no tree: the host synthesizer dereferences nil
	est, err := p.EstimateOnHostCtx(context.Background(), Request{Threads: 2})
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %T %v, want *PanicError", err, err)
	}
	if est.Err != err {
		t.Errorf("Estimate.Err = %v, want the returned error", est.Err)
	}
}

// TestCurveCarriesPerPointErrors: batched estimates record per-point
// failures in Estimate.Err instead of aborting the whole curve.
func TestCurveCarriesPerPointErrors(t *testing.T) {
	prog := func(ctx Context) {
		ctx.SecBegin("s")
		for i := 0; i < 4; i++ {
			ctx.TaskBegin("t")
			ctx.Compute(50_000, 0)
			ctx.TaskEnd()
		}
		ctx.SecEnd(false)
	}
	machine := MachineConfig{MaxEvents: 5}
	prof, err := ProfileProgramCtx(context.Background(), prog, &Options{Machine: machine, DisableMemoryModel: true})
	if err != nil {
		t.Fatalf("profile: %v", err)
	}
	// FF estimates don't run the machine (no budget), Synthesizer ones do.
	ests, err := prof.CurveCtx(context.Background(), Request{Method: Synthesizer}, []int{2, 4})
	if err != nil {
		t.Fatalf("per-point failures aborted the curve: %v", err)
	}
	if len(ests) != 2 {
		t.Fatalf("%d estimates, want 2", len(ests))
	}
	for i, e := range ests {
		if !errors.Is(e.Err, ErrBudgetExceeded) {
			t.Errorf("point %d Err = %v, want ErrBudgetExceeded", i, e.Err)
		}
	}
}
