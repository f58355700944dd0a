package prophet

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"prophet/internal/workloads"
)

// TestMachinesGolden pins the simulated machine's timing on every preset,
// bit for bit: the ground-truth Real speedup at full float64 precision and
// the Synthesizer+mem and FF+mem predicted times of NPB-CG (OpenMP) and
// FFT-Cilk (Cilk) at 4 and 12 threads, plus the full machine wherever it
// has more than 12 cores — on gracelike72 that is the only count whose
// threads reach the second DRAM domain's cores. Covers what the ordering
// assertions and the 2-decimal FF matrix leave loose: heterogeneous core
// speeds (embedded4+4) and two-domain bandwidth sharing (gracelike72).
//
//	go test . -run TestMachinesGolden -update
func TestMachinesGolden(t *testing.T) {
	ctx := context.Background()
	var b strings.Builder
	for _, name := range []string{"NPB-CG", "FFT-Cilk"} {
		w, err := workloads.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, spec := range MachinePresets() {
			threads := []int{4, 12}
			if n := spec.Cores(); n > 12 {
				threads = append(threads, n)
			}
			p, err := ProfileProgramCtx(ctx, w.Program, &Options{Machine: MachineConfig{Spec: spec}, ThreadCounts: threads})
			if err != nil {
				t.Fatalf("%s on %s: %v", name, spec.Name, err)
			}
			for _, n := range threads {
				req := Request{Threads: n, Paradigm: w.Paradigm, Sched: w.Sched, MemoryModel: true}
				real, err := p.RealSpeedupCtx(ctx, req)
				if err != nil {
					t.Fatalf("%s on %s, t=%d: real: %v", name, spec.Name, n, err)
				}
				req.Method = Synthesizer
				syn := mustEstimate(t, p, req)
				req.Method = FastForward
				ff := mustEstimate(t, p, req)
				fmt.Fprintf(&b, "%s\t%s\tt=%d\treal=%.17g\tsyn_cycles=%d\tff_cycles=%d\n",
					name, spec.Name, n, real, syn.Time, ff.Time)
			}
		}
	}
	got := b.String()

	path := filepath.Join("results", "golden", "machines.golden")
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (regenerate with `go test . -run TestMachinesGolden -update`): %v", err)
	}
	if got != string(want) {
		t.Errorf("machine timing drifted from golden file %s:\ngot:\n%s\nwant:\n%s", path, got, want)
	}
}
