package experiments

import (
	"strings"
	"testing"
)

// renderFig11 renders everything Fig11 emits — the summary table plus
// every scatter CSV — so the comparison covers both terminal and CSV
// output paths.
func renderFig11(t *testing.T, workers int) string {
	t.Helper()
	res := harness(Config{Machine: fastMachine(), Samples: 6, Seed: 7, Workers: workers}).Fig11()
	if res.Failed != 0 {
		t.Fatalf("workers=%d: %d failed cells", workers, res.Failed)
	}
	var b strings.Builder
	b.WriteString(res.Summary.String())
	for _, c := range res.Cases {
		if err := c.Scatter.WriteCSV(&b); err != nil {
			t.Fatalf("scatter CSV: %v", err)
		}
	}
	return b.String()
}

func renderFig12(t *testing.T, workers int) string {
	t.Helper()
	series := harness(Config{Machine: fastMachine(), Cores: []int{2, 8}, Workers: workers}).
		Fig12([]string{"NPB-EP", "MD-OMP"})
	var b strings.Builder
	for _, s := range series {
		b.WriteString(s.Table().String())
		if err := s.WriteCSV(&b); err != nil {
			t.Fatalf("series CSV: %v", err)
		}
	}
	return b.String()
}

// TestFig11DeterministicAcrossWorkers is the tentpole's determinism
// guarantee: the rendered Fig. 11 report (summary table + scatter CSVs)
// is byte-identical between a serial run and an 8-worker run. It also
// doubles as the worker-pool exercise for `go test -race -short`.
func TestFig11DeterministicAcrossWorkers(t *testing.T) {
	serial := renderFig11(t, 1)
	parallel := renderFig11(t, 8)
	if serial != parallel {
		t.Errorf("Fig11 output differs between workers=1 and workers=8:\n--- workers=1 ---\n%s\n--- workers=8 ---\n%s",
			serial, parallel)
	}
}

// TestFig12DeterministicAcrossWorkers: same guarantee for the benchmark
// grid (tables + CSV series).
func TestFig12DeterministicAcrossWorkers(t *testing.T) {
	serial := renderFig12(t, 1)
	parallel := renderFig12(t, 8)
	if serial != parallel {
		t.Errorf("Fig12 output differs between workers=1 and workers=8:\n--- workers=1 ---\n%s\n--- workers=8 ---\n%s",
			serial, parallel)
	}
}

// TestRankingDeterministicAcrossWorkers covers the third harness sweep.
func TestRankingDeterministicAcrossWorkers(t *testing.T) {
	serial := harness(Config{Machine: fastMachine(), Samples: 5, Seed: 13, Workers: 1}).ScheduleRanking().String()
	parallel := harness(Config{Machine: fastMachine(), Samples: 5, Seed: 13, Workers: 8}).ScheduleRanking().String()
	if serial != parallel {
		t.Errorf("ranking differs between workers=1 and workers=8:\n%s\nvs\n%s", serial, parallel)
	}
}

// TestFixedCellRepeatable runs one fixed-seed sample cell three times on
// fresh harnesses (so the profile cache cannot short-circuit the
// repeats) and asserts identical estimates — this is the canary for
// hidden shared mutable state in workloads / sim / emulators.
func TestFixedCellRepeatable(t *testing.T) {
	var first string
	for trial := 0; trial < 3; trial++ {
		got := renderFig11(t, 4)
		if trial == 0 {
			first = got
			continue
		}
		if got != first {
			t.Fatalf("trial %d produced different output:\n%s\nvs\n%s", trial, got, first)
		}
	}
}
