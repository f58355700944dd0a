package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"prophet"
	"prophet/internal/obs"
	"prophet/internal/sweep"
	"prophet/internal/workloads"
)

// newTestServer builds a loaded server plus an httptest front end. The
// default workload is NPB-EP (the fastest to profile and estimate) over
// a two-point cores axis; tests override via cfg.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if len(cfg.Workloads) == 0 {
		cfg.Workloads = []string{"NPB-EP"}
	}
	if len(cfg.Cores) == 0 {
		cfg.Cores = []int{2, 4}
	}
	s := New(cfg)
	if err := s.Load(context.Background()); err != nil {
		t.Fatalf("Load: %v", err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("Shutdown: %v", err)
		}
	})
	return s, ts
}

func postJSON(t *testing.T, url string, body any) (int, []byte) {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out
}

func counterValue(t *testing.T, s *Server, name string) int64 {
	t.Helper()
	return s.metrics.Snapshot().Counters[name]
}

// TestPredictMatchesDirectEstimate pins the acceptance criterion that the
// daemon and the single-shot CLI path produce byte-identical estimates:
// the /v1/predict body must equal the library Estimate serialized with
// the same encoder, for every method.
func TestPredictMatchesDirectEstimate(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	_ = s

	w, err := workloads.ByName("NPB-EP")
	if err != nil {
		t.Fatal(err)
	}
	prof, err := prophet.ProfileProgramCtx(context.Background(), w.Program, &prophet.Options{
		ThreadCounts: []int{2, 4},
	})
	if err != nil {
		t.Fatal(err)
	}

	reqs := []prophet.Request{
		{Method: prophet.FastForward, Threads: 4, Paradigm: w.Paradigm, Sched: w.Sched, MemoryModel: true},
		{Method: prophet.AmdahlLaw, Threads: 2, Paradigm: w.Paradigm, Sched: w.Sched},
		{Method: prophet.CriticalPathBound, Threads: 4, Paradigm: w.Paradigm, Sched: w.Sched},
		{Method: prophet.Synthesizer, Threads: 2, Paradigm: w.Paradigm, Sched: prophet.Dynamic1, MemoryModel: true},
	}
	for _, req := range reqs {
		want, err := prof.EstimateCtx(context.Background(), req)
		if err != nil {
			t.Fatalf("direct EstimateCtx(%v): %v", req, err)
		}
		wantJSON, err := json.MarshalIndent(want, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		wantJSON = append(wantJSON, '\n')

		status, body := postJSON(t, ts.URL+"/v1/predict", predictRequest{Workload: "NPB-EP", Request: req})
		if status != http.StatusOK {
			t.Fatalf("predict %v: status %d: %s", req, status, body)
		}
		if !bytes.Equal(body, wantJSON) {
			t.Errorf("predict %v body differs from direct estimate:\n got: %s\nwant: %s", req, body, wantJSON)
		}
	}
}

// TestSweepGridOrderAndCache checks the deterministic grid order
// (methods → paradigms → scheds → cores, cores innermost), that a
// repeated sweep is answered from the estimate cache with identical
// bytes, and that the hits show up in /metrics.
func TestSweepGridOrderAndCache(t *testing.T) {
	s, ts := newTestServer(t, Config{})

	body := sweepRequest{
		Workload: "NPB-EP",
		Methods:  []string{"ff", "amdahl"},
		Scheds:   []string{"(static)", "(dynamic,1)"},
		Cores:    []int{4, 2, 4}, // unnormalized on purpose: dedupe + sort
	}
	status, raw1 := postJSON(t, ts.URL+"/v1/sweep", body)
	if status != http.StatusOK {
		t.Fatalf("sweep: status %d: %s", status, raw1)
	}
	var resp1 sweepResponse
	if err := json.Unmarshal(raw1, &resp1); err != nil {
		t.Fatalf("sweep response: %v", err)
	}
	if resp1.Cells != 8 || len(resp1.Outcomes) != 8 {
		t.Fatalf("cells = %d, outcomes = %d, want 8 (2 methods × 2 scheds × 2 cores)", resp1.Cells, len(resp1.Outcomes))
	}
	wantOrder := []struct {
		method  prophet.Method
		sched   string
		threads int
	}{
		{prophet.FastForward, "(static)", 2}, {prophet.FastForward, "(static)", 4},
		{prophet.FastForward, "(dynamic,1)", 2}, {prophet.FastForward, "(dynamic,1)", 4},
		{prophet.AmdahlLaw, "(static)", 2}, {prophet.AmdahlLaw, "(static)", 4},
		{prophet.AmdahlLaw, "(dynamic,1)", 2}, {prophet.AmdahlLaw, "(dynamic,1)", 4},
	}
	for i, o := range resp1.Outcomes {
		if o.Index != i {
			t.Errorf("outcome[%d].Index = %d", i, o.Index)
		}
		if o.Err != nil {
			t.Errorf("outcome[%d] failed: %v", i, o.Err)
		}
		r := o.Value.Request
		w := wantOrder[i]
		if r.Method != w.method || r.Sched.String() != w.sched || r.Threads != w.threads {
			t.Errorf("outcome[%d] request = %s/%s/%d, want %s/%s/%d",
				i, r.Method, r.Sched, r.Threads, w.method, w.sched, w.threads)
		}
		if !r.MemoryModel {
			t.Errorf("outcome[%d] lost the memory_model default", i)
		}
	}

	status, raw2 := postJSON(t, ts.URL+"/v1/sweep", body)
	if status != http.StatusOK {
		t.Fatalf("repeat sweep: status %d", status)
	}
	var resp2 sweepResponse
	if err := json.Unmarshal(raw2, &resp2); err != nil {
		t.Fatal(err)
	}
	if resp2.Cached != 8 {
		t.Errorf("repeat sweep Cached = %d, want 8", resp2.Cached)
	}
	o1, _ := json.Marshal(resp1.Outcomes)
	o2, _ := json.Marshal(resp2.Outcomes)
	if !bytes.Equal(o1, o2) {
		t.Errorf("cached sweep differs from computed sweep:\n%s\n%s", o1, o2)
	}

	if hits := counterValue(t, s, obs.MServerCacheHits); hits < 8 {
		t.Errorf("%s = %d, want >= 8", obs.MServerCacheHits, hits)
	}

	// The /metrics endpoint must expose the same counters as JSON.
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap struct {
		Counters map[string]int64 `json:"counters"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatalf("/metrics: %v", err)
	}
	for _, name := range []string{obs.MServerSweeps, obs.MServerCacheHits, obs.MServerBatches} {
		if snap.Counters[name] < 1 {
			t.Errorf("/metrics counter %s = %d, want >= 1", name, snap.Counters[name])
		}
	}
}

// TestGoldenWireRoundTrip pins the HTTP wire format to the PR 3 golden
// file: the server's encoder over the golden estimates reproduces
// results/golden/estimates.json byte for byte, and live /v1/predict and
// /v1/sweep bodies survive a decode → re-encode round trip unchanged
// (so the HTTP layer adds no renamed or re-encoded fields).
func TestGoldenWireRoundTrip(t *testing.T) {
	goldenPath := filepath.Join("..", "..", "results", "golden", "estimates.json")
	golden, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("golden file: %v", err)
	}
	var ests []prophet.Estimate
	if err := json.Unmarshal(golden, &ests); err != nil {
		t.Fatalf("golden does not decode as []prophet.Estimate: %v", err)
	}
	re, err := json.MarshalIndent(ests, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	re = append(re, '\n')
	if !bytes.Equal(re, golden) {
		t.Fatalf("estimate encoder drifted from golden file:\ngot:\n%s\nwant:\n%s", re, golden)
	}

	_, ts := newTestServer(t, Config{})

	// Live /v1/predict: body == Estimate == re-encoded body.
	status, body := postJSON(t, ts.URL+"/v1/predict", predictRequest{
		Workload: "NPB-EP",
		Request:  prophet.Request{Method: prophet.FastForward, Threads: 4, MemoryModel: true},
	})
	if status != http.StatusOK {
		t.Fatalf("predict: status %d: %s", status, body)
	}
	var est prophet.Estimate
	if err := json.Unmarshal(body, &est); err != nil {
		t.Fatalf("predict body is not a prophet.Estimate: %v", err)
	}
	re, err = json.MarshalIndent(est, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	re = append(re, '\n')
	if !bytes.Equal(re, body) {
		t.Errorf("predict body does not round-trip through prophet.Estimate:\n got: %s\nre-encoded: %s", body, re)
	}

	// Live /v1/sweep: every outcome == sweep.Outcome[prophet.Estimate].
	status, body = postJSON(t, ts.URL+"/v1/sweep", sweepRequest{
		Workload: "NPB-EP",
		Methods:  []string{"ff", "amdahl"},
		Cores:    []int{2, 4},
	})
	if status != http.StatusOK {
		t.Fatalf("sweep: status %d: %s", status, body)
	}
	var rawResp struct {
		Outcomes []json.RawMessage `json:"outcomes"`
	}
	if err := json.Unmarshal(body, &rawResp); err != nil {
		t.Fatal(err)
	}
	if len(rawResp.Outcomes) != 4 {
		t.Fatalf("outcomes = %d, want 4", len(rawResp.Outcomes))
	}
	for i, raw := range rawResp.Outcomes {
		var o sweep.Outcome[prophet.Estimate]
		if err := json.Unmarshal(raw, &o); err != nil {
			t.Fatalf("outcome[%d] is not a sweep.Outcome[prophet.Estimate]: %v", i, err)
		}
		re, err := json.Marshal(o)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := json.Compact(&buf, raw); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(re, buf.Bytes()) {
			t.Errorf("outcome[%d] does not round-trip:\n got: %s\nre-encoded: %s", i, buf.Bytes(), re)
		}
	}
}

// TestOverloadReturns429 fills the single admission slot with a blocked
// request and checks that the next one is refused immediately with 429
// and a Retry-After header — backpressure, not queueing.
func TestOverloadReturns429(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxInFlight: 1, RetryAfter: 2 * time.Second})
	entered := make(chan struct{}, 1)
	release := make(chan struct{})
	hook := func() {
		entered <- struct{}{}
		<-release
	}
	s.testHook.Store(&hook)

	first := make(chan int, 1)
	go func() {
		status, _ := postJSON(t, ts.URL+"/v1/predict", predictRequest{
			Workload: "NPB-EP",
			Request:  prophet.Request{Method: prophet.FastForward, Threads: 2},
		})
		first <- status
	}()
	<-entered // the slot is held

	data, _ := json.Marshal(predictRequest{Workload: "NPB-EP", Request: prophet.Request{Method: prophet.FastForward, Threads: 4}})
	resp, err := http.Post(ts.URL+"/v1/predict", "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429 (body %s)", resp.StatusCode, body)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "2" {
		t.Errorf("Retry-After = %q, want \"2\"", ra)
	}
	var eresp errorResponse
	if err := json.Unmarshal(body, &eresp); err != nil || eresp.Error == "" {
		t.Errorf("429 body not an error response: %s", body)
	}
	if n := counterValue(t, s, obs.MServerRejected); n < 1 {
		t.Errorf("%s = %d, want >= 1", obs.MServerRejected, n)
	}

	close(release)
	if status := <-first; status != http.StatusOK {
		t.Fatalf("held request finished with %d, want 200", status)
	}
}

// TestShutdownDrains checks graceful shutdown: in-flight requests
// complete, new requests are refused with 503, and Shutdown returns nil
// once the drain finishes.
func TestShutdownDrains(t *testing.T) {
	cfg := Config{Workloads: []string{"NPB-EP"}, Cores: []int{2, 4}}
	s := New(cfg)
	if err := s.Load(context.Background()); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	entered := make(chan struct{}, 1)
	release := make(chan struct{})
	hook := func() {
		entered <- struct{}{}
		<-release
	}
	s.testHook.Store(&hook)

	first := make(chan int, 1)
	go func() {
		status, _ := postJSON(t, ts.URL+"/v1/predict", predictRequest{
			Workload: "NPB-EP",
			Request:  prophet.Request{Method: prophet.FastForward, Threads: 2},
		})
		first <- status
	}()
	<-entered

	shutdownErr := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shutdownErr <- s.Shutdown(ctx)
	}()

	// Shutdown flips closing before waiting on the drain; poll until the
	// refusal is visible, then check new traffic is turned away.
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Get(ts.URL + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		code := resp.StatusCode
		resp.Body.Close()
		if code == http.StatusServiceUnavailable {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("readyz never reported shutting down")
		}
		time.Sleep(time.Millisecond)
	}
	status, body := postJSON(t, ts.URL+"/v1/predict", predictRequest{
		Workload: "NPB-EP",
		Request:  prophet.Request{Method: prophet.FastForward, Threads: 4},
	})
	if status != http.StatusServiceUnavailable {
		t.Fatalf("request during drain: status %d (%s), want 503", status, body)
	}

	close(release) // let the held request finish
	if got := <-first; got != http.StatusOK {
		t.Fatalf("in-flight request finished with %d, want 200", got)
	}
	if err := <-shutdownErr; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
}

// TestRequestDeadline checks the per-request timeout_ms wiring into the
// PR 2 cancellation paths: an expired predict answers 504, and expired
// sweep cells come back Skipped rather than failing the whole response.
func TestRequestDeadline(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	// The hook runs after the request context is armed; sleeping past the
	// 1ms deadline guarantees the estimate sees an expired context.
	hook := func() { time.Sleep(30 * time.Millisecond) }
	s.testHook.Store(&hook)

	status, body := postJSON(t, ts.URL+"/v1/predict", predictRequest{
		Workload:  "NPB-EP",
		Request:   prophet.Request{Method: prophet.FastForward, Threads: 2},
		TimeoutMS: 1,
	})
	if status != http.StatusGatewayTimeout {
		t.Fatalf("expired predict: status %d (%s), want 504", status, body)
	}

	status, body = postJSON(t, ts.URL+"/v1/sweep", sweepRequest{
		Workload:  "NPB-EP",
		Cores:     []int{2, 4},
		TimeoutMS: 1,
	})
	if status != http.StatusOK {
		t.Fatalf("expired sweep: status %d (%s), want 200 with skipped cells", status, body)
	}
	var resp sweepResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	for i, o := range resp.Outcomes {
		if !o.Skipped || o.Err == nil {
			t.Errorf("outcome[%d] = {skipped:%v err:%v}, want skipped with a cancellation", i, o.Skipped, o.Err)
		}
	}
	s.testHook.Store(nil)
}

// TestBadInputs sweeps the validation surface: wrong method, malformed
// body, unknown fields/workloads, and out-of-range requests.
func TestBadInputs(t *testing.T) {
	s, ts := newTestServer(t, Config{})

	get, err := http.Get(ts.URL + "/v1/predict")
	if err != nil {
		t.Fatal(err)
	}
	get.Body.Close()
	if get.StatusCode != http.StatusMethodNotAllowed || get.Header.Get("Allow") != http.MethodPost {
		t.Errorf("GET /v1/predict: status %d Allow %q, want 405 with Allow: POST", get.StatusCode, get.Header.Get("Allow"))
	}

	cases := []struct {
		name string
		path string
		body string
		want int
	}{
		{"malformed json", "/v1/predict", `{`, http.StatusBadRequest},
		{"unknown field", "/v1/predict", `{"workload":"NPB-EP","bogus":1}`, http.StatusBadRequest},
		{"unknown workload", "/v1/predict", `{"workload":"nope","request":{"method":"ff","threads":2}}`, http.StatusNotFound},
		{"negative threads", "/v1/predict", `{"workload":"NPB-EP","request":{"method":"ff","threads":-1}}`, http.StatusBadRequest},
		{"absurd threads", "/v1/predict", `{"workload":"NPB-EP","request":{"method":"ff","threads":100000}}`, http.StatusBadRequest},
		{"bad method", "/v1/sweep", `{"workload":"NPB-EP","methods":["simulated-annealing"]}`, http.StatusBadRequest},
		{"bad sched", "/v1/sweep", `{"workload":"NPB-EP","scheds":["whenever"]}`, http.StatusBadRequest},
		{"zero core", "/v1/sweep", `{"workload":"NPB-EP","cores":[0]}`, http.StatusBadRequest},
		{"negative core", "/v1/sweep", `{"workload":"NPB-EP","cores":[4,-2]}`, http.StatusBadRequest},
	}
	before := counterValue(t, s, obs.MServerBadRequests)
	for _, c := range cases {
		resp, err := http.Post(ts.URL+c.path, "application/json", bytes.NewReader([]byte(c.body)))
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != c.want {
			t.Errorf("%s: status %d (%s), want %d", c.name, resp.StatusCode, body, c.want)
		}
		var eresp errorResponse
		if err := json.Unmarshal(body, &eresp); err != nil || eresp.Error == "" {
			t.Errorf("%s: body is not an error response: %s", c.name, body)
		}
	}
	if after := counterValue(t, s, obs.MServerBadRequests); after-before != int64(len(cases)) {
		t.Errorf("%s advanced by %d, want %d", obs.MServerBadRequests, after-before, len(cases))
	}
}

// TestReadyzLifecycle checks the not-yet-loaded refusals: /readyz and the
// prediction endpoints answer 503 before Load, /healthz answers 200
// throughout (liveness, not readiness).
func TestReadyzLifecycle(t *testing.T) {
	s := New(Config{Workloads: []string{"NPB-EP"}, Cores: []int{2}})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})

	for _, path := range []string{"/readyz", "/v1/workloads"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Errorf("GET %s before Load: status %d, want 503", path, resp.StatusCode)
		}
	}
	status, _ := postJSON(t, ts.URL+"/v1/predict", predictRequest{Workload: "NPB-EP"})
	if status != http.StatusServiceUnavailable {
		t.Errorf("predict before Load: status %d, want 503", status)
	}
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz: status %d, want 200", resp.StatusCode)
	}

	if err := s.Load(context.Background()); err != nil {
		t.Fatal(err)
	}
	resp, err = http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("readyz after Load: status %d, want 200", resp.StatusCode)
	}

	resp, err = http.Get(ts.URL + "/v1/workloads")
	if err != nil {
		t.Fatal(err)
	}
	var infos []workloadInfo
	err = json.NewDecoder(resp.Body).Decode(&infos)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 1 || infos[0].Name != "NPB-EP" || len(infos[0].TreeHash) != 16 {
		t.Errorf("workloads = %+v, want one NPB-EP entry with a 16-hex tree hash", infos)
	}
}

// TestMixedHammer is the integration stress test: concurrent clients
// firing a mix of cached and uncached predicts and sweeps against two
// workloads. Run under -race it exercises the full admission stack —
// semaphore, LRU, singleflight, worker slots — at once.
func TestMixedHammer(t *testing.T) {
	s, ts := newTestServer(t, Config{
		Workloads:   []string{"NPB-EP", "MD-OMP"},
		Cores:       []int{2, 4},
		Workers:     4,
		MaxInFlight: 64, // the hammer tests throughput, not backpressure
	})

	names := []string{"NPB-EP", "MD-OMP"}
	methods := []prophet.Method{prophet.FastForward, prophet.AmdahlLaw}
	const clients = 8
	const perClient = 20

	var wg sync.WaitGroup
	errs := make(chan error, clients*perClient)
	for c := 0; c < clients; c++ {
		c := c
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				name := names[(c+i)%len(names)]
				if i%4 == 3 {
					status, body := postJSON(t, ts.URL+"/v1/sweep", sweepRequest{
						Workload: name,
						Methods:  []string{"ff"},
						Cores:    []int{2, 4},
					})
					if status != http.StatusOK {
						errs <- fmt.Errorf("sweep %s: status %d (%s)", name, status, body)
						continue
					}
					var resp sweepResponse
					if err := json.Unmarshal(body, &resp); err != nil {
						errs <- fmt.Errorf("sweep %s: %v", name, err)
						continue
					}
					for _, o := range resp.Outcomes {
						if o.Err != nil || o.Value.Speedup <= 0 {
							errs <- fmt.Errorf("sweep %s outcome %d: err=%v speedup=%v", name, o.Index, o.Err, o.Value.Speedup)
						}
					}
				} else {
					req := prophet.Request{
						Method:      methods[i%len(methods)],
						Threads:     2 + 2*((c+i)%2),
						MemoryModel: i%2 == 0,
					}
					status, body := postJSON(t, ts.URL+"/v1/predict", predictRequest{Workload: name, Request: req})
					if status != http.StatusOK {
						errs <- fmt.Errorf("predict %s %v: status %d (%s)", name, req, status, body)
						continue
					}
					var est prophet.Estimate
					if err := json.Unmarshal(body, &est); err != nil {
						errs <- fmt.Errorf("predict %s: %v", name, err)
						continue
					}
					if est.Err != nil || est.Speedup <= 0 {
						errs <- fmt.Errorf("predict %s %v: err=%v speedup=%v", name, req, est.Err, est.Speedup)
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	snap := s.metrics.Snapshot()
	total := snap.Counters[obs.MServerPredicts] + snap.Counters[obs.MServerSweeps]
	if total != clients*perClient {
		t.Errorf("predicts+sweeps = %d, want %d", total, clients*perClient)
	}
	if snap.Counters[obs.MServerCacheHits] == 0 {
		t.Error("hammer produced no estimate-cache hits")
	}
	if snap.Counters[obs.MServerBatches] == 0 {
		t.Error("hammer dispatched no cells to the worker slots")
	}
	if snap.Counters[obs.MServerRejected] != 0 {
		t.Errorf("hammer saw %d rejections with default MaxInFlight", snap.Counters[obs.MServerRejected])
	}
}
