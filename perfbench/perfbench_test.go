package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// TestMain lets the test binary act as the set-up process the benchmark
// starts for its cold set-up measurement.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "-setup-child" {
		os.Exit(run(os.Args[1:], os.Stdout))
	}
	os.Exit(m.Run())
}

func testOps(n int) []op {
	ops := make([]op, n)
	for i := range ops {
		ops[i] = op{class: "ff", cells: 1, key: i}
	}
	return ops
}

func TestStreamSameSeedSameOrder(t *testing.T) {
	const n, rounds = 50, 3
	a, b, c := newStream(testOps(n), 7), newStream(testOps(n), 7), newStream(testOps(n), 8)
	differs := false
	for i := 0; i < n*rounds; i++ {
		if a.at(i).key != b.at(i).key {
			t.Fatalf("op %d: seed 7 gave keys %d and %d", i, a.at(i).key, b.at(i).key)
		}
		differs = differs || a.at(i).key != c.at(i).key
	}
	if !differs {
		t.Error("seeds 7 and 8 gave the same stream")
	}
	for r := 0; r < rounds; r++ {
		seen := map[int]bool{}
		for i := r * n; i < (r+1)*n; i++ {
			seen[a.at(i).key] = true
		}
		if len(seen) != n {
			t.Errorf("round %d carries %d distinct ops, want every one of %d", r, len(seen), n)
		}
	}
}

func TestPercentileRefusesThinTail(t *testing.T) {
	sample := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		return xs
	}
	for _, tc := range []struct {
		n  int
		p  float64
		ok bool
	}{
		{0, 0.5, false},
		{19, 0.5, false},
		{20, 0.5, true},
		{99, 0.9, false},
		{100, 0.9, true},
		{1000, 0.9, true},
	} {
		v, err := percentile(sample(tc.n), tc.p)
		if (err == nil) != tc.ok {
			t.Errorf("p%g of %d samples: got %v, %v; want ok=%t", 100*tc.p, tc.n, v, err, tc.ok)
		}
	}
	if v, _ := percentile(sample(100), 0.9); v != 90 {
		t.Errorf("p90 of 1..100 = %v, want 90", v)
	}
}

// TestCheckerCountsFailures drives three ops at a fake daemon: one
// answered correctly, one with a corrupted body, one refused with 429 on
// every attempt. The last two must count as failed.
func TestCheckerCountsFailures(t *testing.T) {
	var busy atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		switch string(body) {
		case "busy":
			busy.Add(1)
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusTooManyRequests)
		case "corrupt":
			w.Header().Set("X-Prophet-Source", "cache")
			io.WriteString(w, "{\"speedup\": 9}\n")
		default:
			w.Header().Set("X-Prophet-Source", "cache")
			io.WriteString(w, "{\"speedup\": 2}\n")
		}
	}))
	defer ts.Close()
	c := newClient(ts.URL, 2)
	defer c.close()
	c.backoff = time.Millisecond
	ops := []op{
		{path: "/v1/predict", body: []byte("ok"), class: "ff", cells: 1, key: 0},
		{path: "/v1/predict", body: []byte("corrupt"), class: "ff", cells: 1, key: 1},
		{path: "/v1/predict", body: []byte("busy"), class: "ff", cells: 1, key: 2},
	}
	want := []byte("{\"speedup\": 2}\n")
	check := func(o *op, ex *exchange) (float64, error) {
		// The refused op passes this check whatever its body: only the
		// shared status rule can fail it.
		if o.key != 2 && !bytes.Equal(ex.body, want) {
			return 0, errBody
		}
		return 0.1, nil
	}
	st := newStream(ops, 1)
	st.ordered = true
	p := drive(context.Background(), httpDo(c, check), st, loop{clients: 2})
	if p.attempted != 3 || p.failed != 2 || p.cells != 1 {
		t.Errorf("attempted %d, failed %d, cells %d; want 3, 2, 1", p.attempted, p.failed, p.cells)
	}
	if got := busy.Load(); got != int64(1+c.maxRetries) {
		t.Errorf("the refused op was sent %d times, want %d", got, 1+c.maxRetries)
	}
}

// TestClientReusesConnections: every body is read to the end and the
// idle pool holds as many connections as there are clients, so a closed
// loop of two clients opens two connections however many requests it
// sends.
func TestClientReusesConnections(t *testing.T) {
	var conns atomic.Int64
	ts := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, strings.Repeat("x", 8<<10))
	}))
	ts.Config.ConnState = func(_ net.Conn, s http.ConnState) {
		if s == http.StateNew {
			conns.Add(1)
		}
	}
	ts.Start()
	defer ts.Close()
	c := newClient(ts.URL, 2)
	defer c.close()
	ok := func(*op, *exchange) (float64, error) { return 0, nil }
	p := drive(context.Background(), httpDo(c, ok), newStream(testOps(100), 1), loop{clients: 2, minRounds: 2})
	if p.attempted != 200 || p.failed != 0 {
		t.Fatalf("attempted %d, failed %d", p.attempted, p.failed)
	}
	if n := conns.Load(); n > 2 {
		t.Errorf("200 requests from 2 clients opened %d connections, want at most 2", n)
	}
}

func TestMetricNamesUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if seen[d.name] {
			t.Errorf("metric %s declared twice", d.name)
		}
		seen[d.name] = true
	}
}

var errBody = &checkError{"body differs"}

type checkError struct{ msg string }

func (e *checkError) Error() string { return e.msg }

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the metric tables in
// this package in step.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(bj.Workloads), len(workloadNames))
	}
	for i, w := range bj.Workloads {
		if w.Name != workloadNames[i] || w.Why != workloadWhy[w.Name] {
			t.Errorf("workload %d: BENCHMARK.json %q (%q), benchmark %q (%q)", i, w.Name, w.Why, workloadNames[i], workloadWhy[workloadNames[i]])
		}
	}
	if len(bj.EndToEnd) != len(endToEnd) || len(bj.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d/%d metrics, the benchmark %d/%d", len(bj.EndToEnd), len(bj.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, m := range bj.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better || m.Bound != d.bound {
			t.Errorf("end_to_end %d: BENCHMARK.json %+v, benchmark %+v", i, m, d)
		}
	}
	for i, m := range bj.PerLayer {
		d := perLayer[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per_layer %d: BENCHMARK.json %+v, benchmark %+v", i, m, d)
		}
	}
}

// specifiedLayerMetrics are the per-layer metrics the benchmark was specified
// with; each must be declared.
var specifiedLayerMetrics = []string{
	"server.cache.hit_ratio", "server.cache.evictions", "server.handler_p50_us",
	"server.batch.mean_size", "server.batch.batches", "server.wait_p50_ms",
	"server.flight.dedups", "server.rejected",
	"surrogate.hit_ratio", "surrogate.eval_p50_us", "surrogate.refits", "surrogate.shadow_runs",
	"surrogate.shadow_rel_err_p50_bp", "surrogate.predict_p50_us",
	"ff.cell_p50_us", "ff.cells_per_s",
	"synth.cell_p50_ms", "sim.events_per_s", "sim.events_per_cell", "sim.preemptions",
	"realrun.cell_p50_ms",
	"experiments.fig11_s", "experiments.fig12_s", "experiments.profile_cache_hit_ratio",
	"sweep.cells_ok", "sweep.cells_failed", "sweep.cells_skipped",
	"trace.profile_ms", "compress.ms", "memmodel.calibrate_ms", "compress.nodes_after",
	"runtime.alloc_kb_per_cell", "runtime.gc_cycles", "runtime.gc_pause_ms",
	"obs.trace_overhead_pct",
}

func TestTraceOutputHasEveryPerLayerMetric(t *testing.T) {
	declared := map[string]bool{}
	for _, d := range perLayer {
		declared[d.name] = true
	}
	for _, name := range specifiedLayerMetrics {
		if !declared[name] {
			t.Errorf("per-layer metric %s is not declared", name)
		}
	}
	rep := newReport()
	rep.attempted = 1
	rep.layer["ff.cell_p50_us"] = value{12.5, 88}
	var buf bytes.Buffer
	if err := rep.write(&buf, "serve-cold", runOpts{seed: 1, seconds: time.Second, trace: true}); err != nil {
		t.Fatal(err)
	}
	res := lastResult(t, buf.String())
	if len(res.Metrics) != len(perLayer) {
		t.Errorf("traced output has %d metrics, want %d", len(res.Metrics), len(perLayer))
	}
	for _, d := range perLayer {
		if m, ok := res.Metrics[d.name]; !ok || m.Unit != d.unit {
			t.Errorf("traced output lacks %s [%s]: %+v", d.name, d.unit, m)
		}
	}
	if !res.Correct {
		t.Error("a traced report with no failures is not correct")
	}
}

type result struct {
	Correct   bool
	Attempted int64
	Failed    int64
	Metrics   map[string]struct {
		Value float64
		Unit  string
	}
}

func lastResult(t *testing.T, out string) result {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the JSON result: %v\n%s", err, out)
	}
	return res
}

// reaches lists, per workload, the per-layer metrics its traced run must
// actually measure (not report as an unreached 0).
var reaches = map[string][]string{
	"serve-hot": {"server.cache.hit_ratio", "server.handler_p50_us", "trace.profile_ms", "compress.ms",
		"memmodel.calibrate_ms", "compress.nodes_after", "runtime.alloc_kb_per_cell", "obs.trace_overhead_pct"},
	"serve-cold": {"server.batch.mean_size", "server.batch.batches", "server.wait_p50_ms", "server.ff_p90_ms",
		"server.synth_p90_ms", "ff.cell_p50_us", "ff.cells_per_s", "synth.cell_p50_ms", "sim.events_per_s",
		"sim.events_per_cell", "sim.preemptions", "sweep.cells_ok"},
	"serve-surrogate": {"surrogate.hit_ratio", "surrogate.eval_p50_us", "surrogate.refits", "surrogate.shadow_runs",
		"surrogate.shadow_rel_err_p50_bp", "surrogate.predict_p50_us"},
	"offline-paper": {"realrun.cell_p50_ms", "experiments.fig11_s", "experiments.fig12_s",
		"experiments.profile_cache_hit_ratio", "sweep.cells_ok", "memmodel.calibrate_ms", "compress.nodes_after"},
}

// TestTracedRunReachesItsLayers runs every workload's traced run for a
// minimal measured phase and checks each measures the layers it targets.
func TestTracedRunReachesItsLayers(t *testing.T) {
	if testing.Short() {
		t.Skip("runs all four workloads")
	}
	for _, w := range workloadNames {
		t.Run(w, func(t *testing.T) {
			var out bytes.Buffer
			if code := run([]string{"-workload", w, "-seed", "3", "-seconds", "1", "-trace", "1"}, &out); code != 0 {
				t.Fatalf("exit %d\n%s", code, out.String())
			}
			res := lastResult(t, out.String())
			if !res.Correct || res.Failed != 0 {
				t.Errorf("correct=%t failed=%d\n%s", res.Correct, res.Failed, out.String())
			}
			lines := map[string]string{}
			for _, line := range strings.Split(out.String(), "\n") {
				if f := strings.Fields(line); len(f) > 0 {
					lines[f[0]] = line
				}
			}
			for _, name := range reaches[w] {
				if line, ok := lines[name]; !ok || strings.Contains(line, "not reached") {
					t.Errorf("%s not measured: %q", name, line)
				}
			}
		})
	}
}
