// Regenerator for results/bench_baseline.json — the machine-readable
// before/after record of the hot-path rework (monomorphic event heap,
// coroutine thread handoff, pooled machines, DRAM stretch memo).
//
// The "before" numbers are frozen: they were measured at the last commit
// preceding the rework, on the host recorded in the file. The "after"
// numbers are re-measured live; every other entry already in the file
// (benchmarks recorded by hand, in other packages) is carried forward
// unchanged. Regenerate with:
//
//	PROPHET_WRITE_BENCH_BASELINE=1 go test -run TestWriteBenchBaseline .
package prophet_test

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"runtime"
	"testing"
)

type benchNumbers struct {
	NsPerOp      int64   `json:"ns_per_op"`
	AllocsPerOp  int64   `json:"allocs_per_op"`
	BytesPerOp   int64   `json:"bytes_per_op"`
	EventsPerSec float64 `json:"events_per_sec,omitempty"`
}

type benchEntry struct {
	Name    string       `json:"name"`
	Note    string       `json:"note,omitempty"`
	Before  benchNumbers `json:"before"`
	After   benchNumbers `json:"after"`
	Speedup float64      `json:"speedup"`
}

type benchBaseline struct {
	Schema         string `json:"schema"`
	Description    string `json:"description"`
	Host           string `json:"host"`
	BaselineCommit string `json:"baseline_commit"`
	// Benchmarks are kept raw so entries the regenerator does not
	// re-measure (with their own fields) survive byte for byte.
	Benchmarks []json.RawMessage `json:"benchmarks"`
}

// Frozen pre-rework measurements (commit 49032c9, the same host that the
// regenerator runs on; see Host below).
var beforeNumbers = map[string]benchNumbers{
	"BenchmarkSimEngine":       {NsPerOp: 1_367_622, AllocsPerOp: 3662, BytesPerOp: 181_200, EventsPerSec: 1_298_605},
	"BenchmarkFFEmulator":      {NsPerOp: 1_357_207, AllocsPerOp: 1768, BytesPerOp: 442_488},
	"BenchmarkRealGroundTruth": {NsPerOp: 1_002_383, AllocsPerOp: 9162, BytesPerOp: 443_744},
	// Measured via go test -bench BenchmarkSweepScaling -benchtime 2x
	// ./internal/experiments/ (whole 16-sample Fig. 11 sweep, serial +
	// 4-worker, per op); not re-run here because it lives in another
	// package and takes ~1 s per iteration.
	"BenchmarkSweepScaling": {NsPerOp: 874_150_602},
}

// afterSweepScaling mirrors the frozen cross-package sweep measurement on
// the "after" side (same command as above, post-rework tree).
var afterSweepScaling = benchNumbers{NsPerOp: 401_757_780}

const benchBaselinePath = "results/bench_baseline.json"

// mergeBenchEntries lays the fresh entries over the file's existing list:
// an existing entry is replaced by the fresh one of the same name or
// else kept as it is, in file order, and fresh entries the file lacks
// are appended in their own order.
func mergeBenchEntries(existing []json.RawMessage, fresh []benchEntry) ([]json.RawMessage, error) {
	out := append([]json.RawMessage(nil), existing...)
	pos := make(map[string]int, len(existing))
	for i, raw := range existing {
		name, err := entryName(raw)
		if err != nil {
			return nil, err
		}
		pos[name] = i
	}
	for _, e := range fresh {
		raw, err := json.Marshal(e)
		if err != nil {
			return nil, err
		}
		if i, ok := pos[e.Name]; ok {
			out[i] = raw
		} else {
			out = append(out, raw)
		}
	}
	return out, nil
}

func entryName(raw json.RawMessage) (string, error) {
	var head struct {
		Name string `json:"name"`
	}
	err := json.Unmarshal(raw, &head)
	return head.Name, err
}

func TestWriteBenchBaseline(t *testing.T) {
	if os.Getenv("PROPHET_WRITE_BENCH_BASELINE") == "" {
		t.Skip("set PROPHET_WRITE_BENCH_BASELINE=1 to regenerate results/bench_baseline.json")
	}
	var existing benchBaseline
	switch data, err := os.ReadFile(benchBaselinePath); {
	case errors.Is(err, fs.ErrNotExist):
	case err != nil:
		t.Fatal(err)
	default:
		if err := json.Unmarshal(data, &existing); err != nil {
			t.Fatal(err)
		}
	}
	measure := func(name string, fn func(*testing.B)) benchEntry {
		r := testing.Benchmark(fn)
		after := benchNumbers{
			NsPerOp:      r.NsPerOp(),
			AllocsPerOp:  r.AllocsPerOp(),
			BytesPerOp:   r.AllocedBytesPerOp(),
			EventsPerSec: r.Extra["events/sec"],
		}
		before := beforeNumbers[name]
		return benchEntry{
			Name:    name,
			Before:  before,
			After:   after,
			Speedup: round2(float64(before.NsPerOp) / float64(after.NsPerOp)),
		}
	}
	fresh := []benchEntry{
		measure("BenchmarkSimEngine", BenchmarkSimEngine),
		measure("BenchmarkFFEmulator", BenchmarkFFEmulator),
		measure("BenchmarkRealGroundTruth", BenchmarkRealGroundTruth),
		{
			Name:    "BenchmarkSweepScaling",
			Note:    "whole 16-sample Fig. 11 validation sweep (serial + 4-worker) per op; measured out of band, see beforeNumbers",
			Before:  beforeNumbers["BenchmarkSweepScaling"],
			After:   afterSweepScaling,
			Speedup: round2(float64(beforeNumbers["BenchmarkSweepScaling"].NsPerOp) / float64(afterSweepScaling.NsPerOp)),
		},
	}
	entries, err := mergeBenchEntries(existing.Benchmarks, fresh)
	if err != nil {
		t.Fatal(err)
	}
	out := benchBaseline{
		Schema: "prophet-bench-baseline/v1",
		Description: "Hot-path rework before/after: eventq min-heap replacing container/heap, " +
			"recycled-coroutine thread handoff replacing the two-channel rendezvous, machine/thread pooling, " +
			"DRAM stretch memoization, FF emulator scratch pooling, closed-form FF for flat static sections.",
		Host:           fmt.Sprintf("%s/%s, GOMAXPROCS=%d", runtime.GOOS, runtime.GOARCH, runtime.GOMAXPROCS(0)),
		BaselineCommit: "49032c9",
		Benchmarks:     entries,
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(benchBaselinePath, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote results/bench_baseline.json:\n%s", data)
}

func round2(v float64) float64 {
	return float64(int64(v*100+0.5)) / 100
}

// TestMergeBenchEntries checks the regenerator's merge step without
// running a benchmark: re-measured entries replace theirs in place,
// every other entry survives byte for byte in file order, and new ones
// are appended.
func TestMergeBenchEntries(t *testing.T) {
	existing := []json.RawMessage{
		json.RawMessage(`{"name":"A","after":{"ns_per_op":9}}`),
		json.RawMessage(`{"name":"X","note":"kept","after":{"ns_per_op":5,"samples_per_sec":7}}`),
		json.RawMessage(`{"name":"B","after":{"ns_per_op":8}}`),
	}
	fresh := []benchEntry{
		{Name: "C", After: benchNumbers{NsPerOp: 3}},
		{Name: "B", After: benchNumbers{NsPerOp: 2}},
		{Name: "A", After: benchNumbers{NsPerOp: 1}},
	}
	got, err := mergeBenchEntries(existing, fresh)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		`{"name":"A","before":{"ns_per_op":0,"allocs_per_op":0,"bytes_per_op":0},"after":{"ns_per_op":1,"allocs_per_op":0,"bytes_per_op":0},"speedup":0}`,
		string(existing[1]),
		`{"name":"B","before":{"ns_per_op":0,"allocs_per_op":0,"bytes_per_op":0},"after":{"ns_per_op":2,"allocs_per_op":0,"bytes_per_op":0},"speedup":0}`,
		`{"name":"C","before":{"ns_per_op":0,"allocs_per_op":0,"bytes_per_op":0},"after":{"ns_per_op":3,"allocs_per_op":0,"bytes_per_op":0},"speedup":0}`,
	}
	if len(got) != len(want) {
		t.Fatalf("merged %d entries, want %d", len(got), len(want))
	}
	for i := range want {
		if string(got[i]) != want[i] {
			t.Errorf("entry %d:\n got %s\nwant %s", i, got[i], want[i])
		}
	}

	// Against the checked-in file, re-measuring the regenerator's four
	// benchmarks keeps every entry, in file order.
	data, err := os.ReadFile(benchBaselinePath)
	if err != nil {
		t.Fatal(err)
	}
	var file benchBaseline
	if err := json.Unmarshal(data, &file); err != nil {
		t.Fatal(err)
	}
	remeasured := []benchEntry{{Name: "BenchmarkSimEngine"}, {Name: "BenchmarkFFEmulator"}, {Name: "BenchmarkRealGroundTruth"}, {Name: "BenchmarkSweepScaling"}}
	merged, err := mergeBenchEntries(file.Benchmarks, remeasured)
	if err != nil {
		t.Fatal(err)
	}
	if names, fileNames := entryNames(t, merged), entryNames(t, file.Benchmarks); fmt.Sprint(names) != fmt.Sprint(fileNames) {
		t.Errorf("merged names %v, want the file's %v", names, fileNames)
	}
	// Carried-forward entries are rewritten byte for byte: a merge that
	// re-measures nothing reproduces the file exactly.
	if file.Benchmarks, err = mergeBenchEntries(file.Benchmarks, nil); err != nil {
		t.Fatal(err)
	}
	again, err := json.MarshalIndent(file, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if string(again)+"\n" != string(data) {
		t.Error("re-encoding the carried-forward entries changed the file")
	}
}

func entryNames(t *testing.T, raws []json.RawMessage) []string {
	t.Helper()
	names := make([]string, len(raws))
	for i, raw := range raws {
		name, err := entryName(raw)
		if err != nil {
			t.Fatal(err)
		}
		names[i] = name
	}
	return names
}
