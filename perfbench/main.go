// Command perfbench is the repository's benchmark: four workloads over
// prophetd (internal/server) and the paper's experiment harness, each
// measured end to end, with a separate traced run for the per-layer
// numbers. Run it from the repository root through run.sh:
//
//	bash perfbench/run.sh --workload serve-hot --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object: correct,
// attempted, failed and metrics (the end-to-end metrics with --trace 0,
// the per-layer metrics with --trace 1). The lines before it name each
// metric with its unit and sample count, and the host, GOMAXPROCS,
// commit and seed the figures belong to. README.md describes the
// workloads and what each per-layer metric should move.
package main

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// workloadWhy is each workload's reason to exist, as in BENCHMARK.json.
var workloadWhy = map[string]string{
	"serve-hot":       "LRU on, surrogate off: repeated cells, so HTTP, admission, JSON and the sharded LRU do all the work and emulation none",
	"serve-cold":      "LRU and surrogate off: FF and Synthesizer cells plus FF sweeps run flight, batcher, sweep pool, ff, synth and sim on every request",
	"serve-surrogate": "surrogate armed, LRU off: off-grid cells answered by the learned model as hits, shadows and fallbacks; no other workload reaches it",
	"offline-paper":   "library only, no HTTP: reduced Fig 11 and Fig 12 through internal/experiments, dominated by realrun, sim and profiling; guards accuracy",
}

// workloadNames lists the workloads in BENCHMARK.json order.
var workloadNames = []string{"serve-hot", "serve-cold", "serve-surrogate", "offline-paper"}

// runOpts are one run's parameters.
type runOpts struct {
	seed    int64
	seconds time.Duration
	trace   bool
}

// deadline bounds a whole run: the contract is an exit within 180 s.
const deadline = 170 * time.Second

func main() { os.Exit(run(os.Args[1:], os.Stdout)) }

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames, ", "))
	seed := fs.Int64("seed", 1, "seed the workload's request stream is generated from")
	seconds := fs.Int("seconds", 10, "minimum length of the measured phase, in seconds")
	trace := fs.Int("trace", 0, "1: traced run reporting the per-layer metrics; 0: end-to-end metrics")
	setupChild := fs.Bool("setup-child", false, "measure one cold set-up of -workload in this process and print it as JSON")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if _, ok := workloadWhy[*workload]; !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload (one of %s), -seconds >= 1 and -trace 0|1\n", strings.Join(workloadNames, ", "))
		return 2
	}
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()
	if *setupChild {
		return runSetupChild(ctx, *workload, stdout)
	}
	opts := runOpts{seed: *seed, seconds: time.Duration(*seconds) * time.Second, trace: *trace == 1}
	var rep *report
	var err error
	if *workload == "offline-paper" {
		rep, err = runOffline(ctx, opts)
	} else {
		rep, err = runServe(ctx, *workload, opts)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		return 1
	}
	if err := rep.write(stdout, *workload, opts); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	return 0
}

// started is when this process started; progress lines give times since.
var started = time.Now()

// logf writes a progress line to stderr.
func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench %6.2fs: %s\n", time.Since(started).Seconds(), fmt.Sprintf(format, args...))
}

// value is one measured figure and the sample count behind it.
type value struct {
	v float64
	n int
}

// report accumulates a run's operations, checks and metrics.
type report struct {
	attempted, failed int64
	problems          []string // failed checks that are not operations
	e2e               map[string]value
	layer             map[string]value
}

func newReport() *report {
	return &report{e2e: map[string]value{}, layer: map[string]value{}}
}

// fail records a failed check; the run is then reported as incorrect.
func (r *report) fail(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

func (r *report) addPhase(p *phase) {
	r.attempted += p.attempted
	r.failed += p.failed
}

// endToEnd sets the metrics a measured phase gives: throughput, the
// latency of the ops in classes, and the prediction error. Each timing is
// taken per round and the median across rounds is reported, so a host
// slowdown that covers less than half the rounds does not move it.
func (r *report) endToEnd(p *phase, classes []string) {
	var p50, p90 []float64
	n := 0
	for _, w := range p.windows(classes) {
		n += len(w.lat)
		for _, q := range []struct {
			p   float64
			dst *[]float64
		}{{0.5, &p50}, {0.9, &p90}} {
			v, err := percentile(w.lat, q.p)
			if err != nil {
				r.fail("round latency: %v", err)
				continue
			}
			*q.dst = append(*q.dst, v)
		}
	}
	r.e2e["cells_per_s"] = value{p.cellsPerSec(nil), int(p.cells)}
	if len(p50) > 0 && len(p90) > 0 {
		r.e2e["p50_ms"] = value{median(p50), n}
		r.e2e["p90_ms"] = value{median(p90), n}
	}
	r.e2e["pred_err_pct"] = value{p.predErrPct(), int(p.errPredictions())}
}

// heapLive records the live heap after a full collection. The second
// collection empties the sync.Pool victim caches the first one leaves.
func (r *report) heapLive() {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r.e2e["heap_live_mb"] = value{float64(ms.HeapAlloc) / (1 << 20), 1}
}

// write prints the metric lines and the final JSON result.
func (r *report) write(w io.Writer, workload string, o runOpts) error {
	defs, got := endToEnd, r.e2e
	if o.trace {
		defs, got = perLayer, r.layer
	}
	type jsonMetric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	res := struct {
		Correct   bool                  `json:"correct"`
		Attempted int64                 `json:"attempted"`
		Failed    int64                 `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{Attempted: r.attempted, Failed: r.failed, Metrics: map[string]jsonMetric{}}
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# perfbench workload=%s seed=%d seconds=%d trace=%t %s\n", workload, o.seed, int(o.seconds/time.Second), o.trace, hostLine())
	fmt.Fprintf(bw, "# %s: %s\n", workload, workloadWhy[workload])
	for _, d := range defs {
		v, ok := got[d.name]
		switch {
		case ok:
			fmt.Fprintf(bw, "%-36s %14.6g %-6s n=%d", d.name, v.v, d.unit, v.n)
		case o.trace:
			fmt.Fprintf(bw, "%-36s %14.6g %-6s (layer not reached by %s)", d.name, 0.0, d.unit, workload)
		default:
			r.fail("%s was not measured", d.name)
			continue
		}
		if d.moves != "" {
			fmt.Fprintf(bw, "  -> %s", d.moves)
		}
		fmt.Fprintln(bw)
		res.Metrics[d.name] = jsonMetric{v.v, d.unit}
	}
	for _, p := range r.problems {
		fmt.Fprintf(bw, "# check failed: %s\n", p)
	}
	fmt.Fprintf(bw, "# attempted=%d failed=%d\n", r.attempted, r.failed)
	res.Correct = r.failed == 0 && len(r.problems) == 0 && r.attempted > 0
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	bw.Write(line)
	bw.WriteByte('\n')
	return bw.Flush()
}

// setupReport is one cold set-up, measured in a fresh process, and its
// breakdown by pipeline stage.
type setupReport struct {
	SetupS      float64 `json:"setup_s"`
	ProfileMS   float64 `json:"profile_ms"`
	CompressMS  float64 `json:"compress_ms"`
	CalibrateMS float64 `json:"calibrate_ms"`
}

// runSetupChild is the body of a set-up process: collect first, so the
// parent's earlier children leave nothing to the measurement, then set
// up once and print the report.
func runSetupChild(ctx context.Context, workload string, stdout io.Writer) int {
	runtime.GC()
	var sr setupReport
	var err error
	if workload == "offline-paper" {
		sr, err = setupOffline(ctx)
	} else {
		sr, err = setupServe(ctx, workload)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: set-up of %s: %v\n", workload, err)
		return 1
	}
	if err := json.NewEncoder(stdout).Encode(sr); err != nil {
		return 1
	}
	return 0
}

// measureSetup runs the set-up in n fresh processes, one after another,
// and records the medians: the process-wide calibration cache would make
// a second set-up in this process skip calibration.
func measureSetup(ctx context.Context, workload string, n int, r *report) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	var setup, prof, comp, cal []float64
	for i := 0; i < n; i++ {
		cmd := exec.CommandContext(ctx, exe, "-setup-child", "-workload", workload)
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return fmt.Errorf("set-up process: %w", err)
		}
		var sr setupReport
		if err := json.Unmarshal(out, &sr); err != nil {
			return fmt.Errorf("set-up process output: %w", err)
		}
		setup = append(setup, sr.SetupS)
		prof = append(prof, sr.ProfileMS)
		comp = append(comp, sr.CompressMS)
		cal = append(cal, sr.CalibrateMS)
	}
	r.e2e["setup_s"] = value{median(setup), n}
	r.layer["trace.profile_ms"] = value{median(prof), n}
	r.layer["compress.ms"] = value{median(comp), n}
	r.layer["memmodel.calibrate_ms"] = value{median(cal), n}
	return nil
}

// runtimeStats is the slice of runtime.MemStats the per-layer metrics
// difference across the traced phase.
type runtimeStats struct {
	totalAlloc, numGC, pauseNs uint64
}

func (s *runtimeStats) read() {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s.totalAlloc, s.numGC, s.pauseNs = ms.TotalAlloc, uint64(ms.NumGC), ms.PauseTotalNs
}

// hostLine names the host, GOMAXPROCS, Go version and the code measured.
func hostLine() string {
	host, _ := os.Hostname() // best effort: the name is only a label
	return fmt.Sprintf("host=%s gomaxprocs=%d cpus=%d go=%s commit=%s source=%s",
		host, runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version(), gitCommit("."), sourceDigest("."))
}

// gitCommit reads HEAD's commit from root/.git without running git;
// "none" outside a git checkout.
func gitCommit(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "none"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	if b, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	packed, err := os.ReadFile(filepath.Join(root, ".git", "packed-refs"))
	if err != nil {
		return "none"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if sha, name, ok := strings.Cut(line, " "); ok && name == ref {
			return sha
		}
	}
	return "none"
}

// sourceDigest hashes the Go sources and module files under root, so a
// result names the code it measured even where there is no git metadata.
func sourceDigest(root string) string {
	var paths []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			paths = append(paths, path)
		}
		return nil
	})
	if err != nil {
		return "unknown"
	}
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			return "unknown"
		}
		fmt.Fprintf(h, "%s\x00%d\x00", filepath.ToSlash(p), len(b))
		h.Write(b)
	}
	return fmt.Sprintf("%x", h.Sum(nil))[:16]
}
