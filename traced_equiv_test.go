package prophet

import (
	"context"
	"testing"

	"prophet/internal/tree"
	"prophet/internal/workloads"
)

// TestTracedUntracedEquivalent checks that attaching an execution tracer
// is purely observational: every prediction method and the ground-truth
// machine run must produce bit-identical numbers with and without an
// Observer.Trace sink. This pins the engine's determinism contract — the
// tracer hangs off the event stream, it never participates in it — and
// would catch any hot-path "optimization" that skips work only when
// observability is off.
//
// Besides a single-section loop it profiles NPB-CG and NPB-MG, whose
// compressed trees share one node among repeated top-level sections: the
// untraced synthesizer emulates each shared node once, the traced one
// every occurrence, and the two must agree.
func TestTracedUntracedEquivalent(t *testing.T) {
	mc := testMachine(12)
	for _, name := range []string{"balanced", "NPB-CG", "NPB-MG"} {
		t.Run(name, func(t *testing.T) {
			prog := balancedProgram(24, 60_000)
			if name != "balanced" {
				w, err := workloads.ByName(name)
				if err != nil {
					t.Fatal(err)
				}
				prog = w.Program
			}
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
			if name != "balanced" && !sharesSections(plain.Tree) {
				t.Fatal("no top-level section node repeats; the memoized path goes untested")
			}
			for _, method := range []Method{FastForward, Synthesizer, Suitability} {
				for _, threads := range []int{2, 8, 12} {
					for _, mem := range []bool{false, true} {
						req := Request{Method: method, Threads: threads, MemoryModel: mem}
						a := mustEstimate(t, plain, req)
						b := mustEstimate(t, traced, req)
						if a.Speedup != b.Speedup {
							t.Errorf("%v threads=%d mem=%v: speedup %v untraced vs %v traced",
								method, threads, mem, a.Speedup, b.Speedup)
						}
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
		})
	}
}

// sharesSections reports whether two top-level sections of root are one
// shared node.
func sharesSections(root *tree.Node) bool {
	seen := make(map[*tree.Node]bool)
	for _, s := range root.TopLevelSections() {
		if seen[s] {
			return true
		}
		seen[s] = true
	}
	return false
}
