package prophet

import (
	"context"
	"testing"
)

// TestTracedUntracedEquivalent checks that attaching an execution tracer
// is purely observational: every prediction method and the ground-truth
// machine run must produce bit-identical numbers with and without an
// Observer.Trace sink. This pins the engine's determinism contract — the
// tracer hangs off the event stream, it never participates in it — and
// would catch any hot-path "optimization" that skips work only when
// observability is off.
func TestTracedUntracedEquivalent(t *testing.T) {
	prog := balancedProgram(24, 60_000)
	mc := testMachine(12)

	profile := func(o Observer) *Profile {
		t.Helper()
		p, err := ProfileProgramCtx(context.Background(), prog, &Options{Machine: mc, Observer: o})
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	plain := profile(Observer{})
	var buf TraceBuffer
	traced := profile(Observer{Trace: &buf})

	if plain.SerialCycles != traced.SerialCycles {
		t.Fatalf("SerialCycles differ: %d vs %d", plain.SerialCycles, traced.SerialCycles)
	}
	for _, method := range []Method{FastForward, Synthesizer, Suitability} {
		for _, threads := range []int{2, 8, 12} {
			req := Request{Method: method, Threads: threads}
			a := mustEstimate(t, plain, req)
			b := mustEstimate(t, traced, req)
			if a.Speedup != b.Speedup {
				t.Errorf("%v threads=%d: speedup %v untraced vs %v traced",
					method, threads, a.Speedup, b.Speedup)
			}
		}
		// The real machine run drives the tracer hardest: scheduling,
		// preemption and lock events all flow through it.
		req := Request{Method: method, Threads: 12}
		if a, b := mustReal(t, plain, req), mustReal(t, traced, req); a != b {
			t.Errorf("RealSpeedup: %v untraced vs %v traced", a, b)
		}
	}
	if len(buf.Events()) == 0 {
		t.Fatal("tracer attached but saw no events — equivalence test is vacuous")
	}
}
