package trace

import (
	"errors"
	"math/rand"
	"testing"

	"prophet/internal/machine"
	"prophet/internal/tree"
)

// applyOp drives one annotation call from a fuzz byte.
func applyOp(p *SimProfiler, op byte, rng *rand.Rand) {
	switch op % 8 {
	case 0:
		p.SecBegin("s")
	case 1:
		p.SecEnd(rng.Intn(2) == 0)
	case 2:
		p.TaskBegin("t")
	case 3:
		p.TaskEnd()
	case 4:
		p.LockBegin(int(op) % 3)
	case 5:
		p.LockEnd(int(op) % 3)
	case 6:
		p.Compute(int64(rng.Intn(1_000)), int64(rng.Intn(10)))
	case 7:
		p.IOWait(int64(rng.Intn(500)))
	}
}

// TestTracerNeverPanicsOnRandomAnnotations: arbitrary (mostly invalid)
// annotation sequences must produce an error from Finish, never a panic —
// the paper's "an error is reported" contract.
func TestTracerNeverPanicsOnRandomAnnotations(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 500; trial++ {
		ops := make([]byte, rng.Intn(40))
		for i := range ops {
			ops[i] = byte(rng.Intn(256))
		}
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("trial %d panicked on ops %v: %v", trial, ops, r)
				}
			}()
			p := NewSimProfiler(machine.Default())
			for _, op := range ops {
				applyOp(p, op, rng)
			}
			root, err := p.Finish()
			if err == nil {
				// A clean sequence must produce a valid tree.
				if verr := root.Validate(); verr != nil {
					t.Fatalf("trial %d: Finish ok but tree invalid: %v", trial, verr)
				}
			} else if !errors.Is(err, ErrAnnotationMismatch) && !errors.Is(err, tree.ErrMalformed) {
				t.Fatalf("trial %d: untyped error %T: %v", trial, err, err)
			}
		}()
	}
}

// FuzzTracerEvents is the native fuzz target with the same property:
// whatever annotation event stream arrives, the tracer either builds a
// tree that validates or fails with a typed error — errors.Is against
// ErrAnnotationMismatch or tree.ErrMalformed — and never panics.
// `go test -fuzz=FuzzTracerEvents ./internal/trace` explores further.
func FuzzTracerEvents(f *testing.F) {
	f.Add([]byte{0, 2, 6, 3, 1})       // valid: sec, task, compute, end, end
	f.Add([]byte{2})                   // orphan task
	f.Add([]byte{0, 2, 4, 5, 3, 1})    // with lock
	f.Add([]byte{0, 2, 6, 7, 6, 3, 1}) // I/O wait inside a task
	f.Add([]byte{0, 0, 1, 1})          // nested sections (illegal at top)
	f.Add([]byte{0, 2, 4, 3, 1})       // lock left open across task end
	f.Fuzz(func(t *testing.T, ops []byte) {
		rng := rand.New(rand.NewSource(1))
		p := NewSimProfiler(machine.Default())
		for _, op := range ops {
			applyOp(p, op, rng)
		}
		root, err := p.Finish()
		if err == nil {
			if verr := root.Validate(); verr != nil {
				t.Fatalf("valid finish, invalid tree: %v", verr)
			}
		} else if !errors.Is(err, ErrAnnotationMismatch) && !errors.Is(err, tree.ErrMalformed) {
			t.Fatalf("untyped error %T: %v", err, err)
		}
	})
}
