package main

import (
	"context"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"prophet/internal/experiments"
	"prophet/internal/machine"
	"prophet/internal/sim"
)

// update regenerates the golden files instead of comparing:
//
//	go test ./cmd/ppexp -run TestGolden -update
var update = flag.Bool("update", false, "rewrite golden files under results/golden/")

// goldenMachine matches the experiment tests' fast machine: the paper
// machine with exact makespans (no context-switch cost) and a small
// quantum.
func goldenMachine() sim.Config {
	s := machine.Default().WithCores("t-golden", 12)
	s.Quantum, s.ContextSwitch = 10_000, 0
	return sim.Config{Spec: s}
}

func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("..", "..", "results", "golden", name)
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (regenerate with `go test ./cmd/ppexp -update`): %v", err)
	}
	if got != string(want) {
		t.Errorf("%s drifted from golden file (refresh with `go test ./cmd/ppexp -update` if intended):\n--- got ---\n%s--- want ---\n%s", name, got, want)
	}
}

// TestGoldenTable1 pins the report format of the static Table I.
func TestGoldenTable1(t *testing.T) {
	checkGolden(t, "table1.golden", experiments.Table1().String())
}

// TestGoldenRanking pins the schedule-ranking table on a small
// fixed-seed sample set — both the report format and the deterministic
// accuracy numbers. Runs on the parallel harness, whose output is
// byte-identical to serial at any worker count.
func TestGoldenRanking(t *testing.T) {
	h := experiments.NewCtx(context.Background(), experiments.Config{
		Machine: goldenMachine(), Samples: 10, Seed: 13, Workers: 4,
	})
	checkGolden(t, "ranking.golden", h.ScheduleRanking().String())
}
