package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"testing"
	"time"

	"prophet"
	"prophet/internal/obs"
	"prophet/internal/workloads"
)

// surrogateTestConfig arms a server with a surrogate tuned for tiny
// test stores: it refits early and (by default) never shadow-samples,
// so tests are deterministic.
func surrogateTestConfig(shadowEvery int) *prophet.SurrogateConfig {
	return &prophet.SurrogateConfig{
		MinSamples:  8,
		RefitEvery:  4,
		ShadowEvery: shadowEvery,
		MaxRelErr:   0.5,
		Seed:        1,
	}
}

// warmupSweep emulates a cores axis once so every cell feeds the
// surrogate's training store.
func warmupSweep(t *testing.T, url string, cores []int) {
	t.Helper()
	code, body := postJSON(t, url+"/v1/sweep", sweepRequest{
		Workload: "NPB-EP",
		Cores:    cores,
	})
	if code != http.StatusOK {
		t.Fatalf("warmup sweep: %d %s", code, body)
	}
}

func predictOnce(t *testing.T, url string, threads int) (prophet.Estimate, string) {
	t.Helper()
	data, err := json.Marshal(predictRequest{
		Workload: "NPB-EP",
		Request:  prophet.Request{Method: prophet.FastForward, Threads: threads},
	})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/predict", "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var est prophet.Estimate
	if err := json.NewDecoder(resp.Body).Decode(&est); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("predict: %d", resp.StatusCode)
	}
	return est, resp.Header.Get(SourceHeader)
}

// TestServerSurrogateServesTrainedCells: with the LRU disabled, a cell
// the warmup sweep emulated is re-served by the surrogate (an exact
// feature match is a memoized emulation), marked via the source field
// and the X-Prophet-Source header, with the emulated speedup and a
// consistent time_cycles.
func TestServerSurrogateServesTrainedCells(t *testing.T) {
	_, ts := newTestServer(t, Config{
		DisableMemoryModel: true,
		CacheSize:          -1,
		Surrogate:          surrogateTestConfig(-1),
	})
	cores := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}
	warmupSweep(t, ts.URL, cores)

	emulated, src := predictOnceMachine(t, ts.URL, 8, "")
	_ = src // cache disabled; this may be surrogate or emulated depending on confidence
	est, source := predictOnce(t, ts.URL, 8)
	if source != prophet.SourceSurrogate {
		t.Fatalf("X-Prophet-Source = %q, want %q after warmup", source, prophet.SourceSurrogate)
	}
	if est.Source != prophet.SourceSurrogate {
		t.Fatalf("body source = %q, want %q", est.Source, prophet.SourceSurrogate)
	}
	if est.Speedup != emulated.Speedup {
		t.Fatalf("exact-match surrogate speedup %v differs from emulated %v", est.Speedup, emulated.Speedup)
	}
	if est.Time <= 0 {
		t.Fatalf("surrogate estimate carries no time_cycles: %+v", est)
	}
}

// TestServerSurrogateHitsAreNeverCached: surrogate answers must not
// poison the LRU — re-asking an uncached cell keeps answering from the
// surrogate, and an LRU hit never claims to be one.
func TestServerSurrogateHitsAreNeverCached(t *testing.T) {
	s, ts := newTestServer(t, Config{
		DisableMemoryModel: true,
		CacheSize:          -1,
		Surrogate:          surrogateTestConfig(-1),
	})
	warmupSweep(t, ts.URL, []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12})
	for i := 0; i < 3; i++ {
		if _, source := predictOnce(t, ts.URL, 6); source != prophet.SourceSurrogate {
			t.Fatalf("repeat %d: source %q, want surrogate every time (nothing cached)", i, source)
		}
	}
	if hits := counterValue(t, s, obs.MSurrogateHits); hits < 3 {
		t.Fatalf("surrogate.hits = %d, want >= 3", hits)
	}
}

// TestServerSurrogateShadowSampling: with ShadowEvery=1 every confident
// hit is shadowed — the emulator still runs, the exact result is served
// (no source mark), and the shadow comparison lands in the metrics.
func TestServerSurrogateShadowSampling(t *testing.T) {
	s, ts := newTestServer(t, Config{
		DisableMemoryModel: true,
		CacheSize:          -1,
		Surrogate:          surrogateTestConfig(1),
	})
	warmupSweep(t, ts.URL, []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12})
	est, source := predictOnce(t, ts.URL, 8)
	if source != sourceEmulated || est.Source != "" {
		t.Fatalf("shadowed hit must serve the emulated result unmarked, got header %q source %q", source, est.Source)
	}
	if runs := counterValue(t, s, obs.MSurrogateShadowRuns); runs < 1 {
		t.Fatalf("surrogate.shadow.runs = %d, want >= 1", runs)
	}
	snap := s.metrics.Snapshot()
	if snap.Histograms[obs.MSurrogateShadowRelErr].Count < 1 {
		t.Fatal("shadow rel-err histogram empty after a shadowed hit")
	}
}

// TestServerSurrogateDisabledBytesIdentical: without Config.Surrogate
// the wire bytes are exactly what an armed server emits for cells the
// surrogate did not answer — the source field only exists on surrogate
// hits, so disabling the feature (or missing the model) changes nothing.
func TestServerSurrogateDisabledBytesIdentical(t *testing.T) {
	_, plain := newTestServer(t, Config{DisableMemoryModel: true})
	_, armed := newTestServer(t, Config{DisableMemoryModel: true, Surrogate: surrogateTestConfig(-1)})
	req := predictRequest{
		Workload: "NPB-EP",
		Request:  prophet.Request{Method: prophet.FastForward, Threads: 4},
	}
	codeA, bodyA := postJSON(t, plain.URL+"/v1/predict", req)
	codeB, bodyB := postJSON(t, armed.URL+"/v1/predict", req)
	if codeA != http.StatusOK || codeB != http.StatusOK {
		t.Fatalf("status %d / %d", codeA, codeB)
	}
	if string(bodyA) != string(bodyB) {
		t.Fatalf("emulated responses diverge with the surrogate armed:\n%s\nvs\n%s", bodyA, bodyB)
	}
}

// TestServerSurrogateVariantMachineNeedsBaseline: a variant machine's
// cells are looked up and trained against the variant profile, in the
// partition keyed by that profile's tree. Once a sweep on the machine
// has emulated its cells, the surrogate serves it with a positive
// time_cycles taken from the variant's exact serial cycles.
func TestServerSurrogateVariantMachineNeedsBaseline(t *testing.T) {
	_, ts := newTestServer(t, Config{
		DisableMemoryModel: true,
		CacheSize:          -1,
		Surrogate:          surrogateTestConfig(-1),
	})
	cores := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}
	code, body := postJSON(t, ts.URL+"/v1/sweep", sweepRequest{
		Workload: "NPB-EP", Cores: cores, Machines: []string{"hbm12"},
	})
	if code != http.StatusOK {
		t.Fatalf("variant sweep: %d %s", code, body)
	}
	est, source := predictOnceMachine(t, ts.URL, 8, "hbm12")
	if source != prophet.SourceSurrogate {
		t.Fatalf("variant source %q, want surrogate after its cells emulated once", source)
	}
	if est.Time <= 0 {
		t.Fatalf("variant surrogate hit has no time_cycles: %+v", est)
	}
}

func predictOnceMachine(t *testing.T, url string, threads int, machine string) (prophet.Estimate, string) {
	t.Helper()
	data, err := json.Marshal(predictRequest{
		Workload: "NPB-EP",
		Request:  prophet.Request{Method: prophet.FastForward, Threads: threads, Machine: machine},
	})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/predict", "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("predict: %d", resp.StatusCode)
	}
	var est prophet.Estimate
	if err := json.NewDecoder(resp.Body).Decode(&est); err != nil {
		t.Fatal(err)
	}
	return est, resp.Header.Get(SourceHeader)
}

// predictCell posts one FF cell and returns the raw body and the
// X-Prophet-Source header. It fails the test instead of hanging when the
// answer takes longer than a few seconds.
func predictCell(t *testing.T, url, workload, machine string, threads int) ([]byte, string) {
	t.Helper()
	data, err := json.Marshal(predictRequest{
		Workload: workload,
		Request:  prophet.Request{Method: prophet.FastForward, Threads: threads, Machine: machine},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, url+"/v1/predict", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	hreq.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(hreq)
	if err != nil {
		t.Fatalf("predict %s threads=%d machine=%q: %v", workload, threads, machine, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("predict: %d %s", resp.StatusCode, body)
	}
	return body, resp.Header.Get(SourceHeader)
}

// TestServerSurrogateHitSkipsPool: a surrogate hit is answered on the
// request's goroutine, ahead of the singleflight and the worker slots —
// with the only slot held by a parked cell, trained cells on the
// default machine and on a variant still come back from the surrogate.
func TestServerSurrogateHitSkipsPool(t *testing.T) {
	s, ts := newTestServer(t, Config{
		DisableMemoryModel: true,
		CacheSize:          -1,
		Workers:            1,
		Surrogate:          surrogateTestConfig(-1),
	})
	cores := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}
	for _, m := range []string{"", "hbm12"} {
		var machines []string
		if m != "" {
			machines = []string{m}
		}
		if code, body := postJSON(t, ts.URL+"/v1/sweep", sweepRequest{
			Workload: "NPB-EP", Cores: cores, Machines: machines,
		}); code != http.StatusOK {
			t.Fatalf("warmup sweep %q: %d %s", m, code, body)
		}
	}
	release := holdSlot(t, s)
	defer release()
	for _, m := range []string{"", "hbm12"} {
		if _, source := predictCell(t, ts.URL, "NPB-EP", m, 8); source != prophet.SourceSurrogate {
			t.Errorf("machine %q: source %q with the slot held, want %q", m, source, prophet.SourceSurrogate)
		}
	}
}

// TestServerSurrogateServesImportedWorkload: a workload uploaded through
// POST /v1/workloads is armed like a built-in — once a sweep has warmed
// it, its cells are surrogate hits.
func TestServerSurrogateServesImportedWorkload(t *testing.T) {
	_, ts := newTestServer(t, Config{
		DisableMemoryModel: true,
		CacheSize:          -1,
		Surrogate:          surrogateTestConfig(-1),
	})
	if status, body := postProfile(t, ts.URL+"/v1/workloads?name=imported", readProfileFixture(t, "cpu.pb.gz")); status != http.StatusCreated {
		t.Fatalf("import: %d %s", status, body)
	}
	if code, body := postJSON(t, ts.URL+"/v1/sweep", sweepRequest{
		Workload: "imported", Cores: []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12},
	}); code != http.StatusOK {
		t.Fatalf("warmup sweep: %d %s", code, body)
	}
	body, source := predictCell(t, ts.URL, "imported", "", 8)
	if source != prophet.SourceSurrogate {
		t.Fatalf("imported workload source %q, want %q after warmup:\n%s", source, prophet.SourceSurrogate, body)
	}
}

// TestServerSurrogateMatchesLibrary: prophetd and the library run one
// surrogate path. Trained in the same order from the same config, a
// surrogate-served daemon body is byte-identical to the library's
// EstimateCtx answer on the default machine and on a variant, and every
// uncached predict consults the surrogate exactly once.
func TestServerSurrogateMatchesLibrary(t *testing.T) {
	cfg := surrogateTestConfig(-1)
	s, ts := newTestServer(t, Config{
		DisableMemoryModel: true,
		CacheSize:          -1,
		Surrogate:          cfg,
	})
	w, err := workloads.ByName("NPB-EP")
	if err != nil {
		t.Fatal(err)
	}
	prof, err := prophet.ProfileProgram(w.Program, &prophet.Options{
		ThreadCounts:       []int{2, 4},
		DisableMemoryModel: true,
		Surrogate:          prophet.NewSurrogate(*cfg),
	})
	if err != nil {
		t.Fatal(err)
	}
	libBody := func(machine string, threads int) ([]byte, string) {
		est, err := prof.EstimateCtx(context.Background(), prophet.Request{
			Method: prophet.FastForward, Threads: threads, Machine: machine,
		})
		if err != nil {
			t.Fatalf("library estimate: %v", err)
		}
		data, err := json.MarshalIndent(est, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		return append(data, '\n'), est.Source
	}

	predicts := 0
	for _, m := range []string{"", "hbm12"} {
		for _, threads := range []int{1, 2, 3, 4, 5, 6, 8, 9, 10, 11, 12} {
			got, _ := predictCell(t, ts.URL, "NPB-EP", m, threads)
			predicts++
			if want, _ := libBody(m, threads); !bytes.Equal(got, want) {
				t.Fatalf("training cell machine=%q threads=%d differs:\n%s\nvs library\n%s", m, threads, got, want)
			}
		}
	}
	for _, m := range []string{"", "hbm12"} {
		got, source := predictCell(t, ts.URL, "NPB-EP", m, 7)
		predicts++
		want, libSource := libBody(m, 7)
		if source != prophet.SourceSurrogate || libSource != prophet.SourceSurrogate {
			t.Fatalf("machine %q: held-out cell source daemon %q, library %q; want both %q",
				m, source, libSource, prophet.SourceSurrogate)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("machine %q: surrogate body differs from the library:\n%s\nvs\n%s", m, got, want)
		}
	}
	if q := counterValue(t, s, obs.MSurrogateHits) + counterValue(t, s, obs.MSurrogateFallbacks); q != int64(predicts) {
		t.Errorf("surrogate queries (hits + fallbacks) = %d for %d uncached predicts, want one each", q, predicts)
	}
}
