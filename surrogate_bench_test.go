package prophet_test

import (
	"context"
	"encoding/json"
	"strings"
	"testing"

	"prophet"
	"prophet/internal/workloads"
)

// surrogateBenchProfile profiles NPB-EP with the given surrogate armed.
// The memory model is disabled so the benchmark isolates the estimate
// path (the calibration cost is identical either way and paid once).
func surrogateBenchProfile(tb testing.TB, surr *prophet.Surrogate) *prophet.Profile {
	tb.Helper()
	w, err := workloads.ByName("NPB-EP")
	if err != nil {
		tb.Fatal(err)
	}
	p, err := prophet.ProfileProgramCtx(context.Background(), w.Program, &prophet.Options{
		DisableMemoryModel: true,
		Surrogate:          surr,
	})
	if err != nil {
		tb.Fatalf("ProfileProgram: %v", err)
	}
	return p
}

func surrogateGrid(methods []prophet.Method, threads []int) []prophet.Request {
	reqs := make([]prophet.Request, 0, len(methods)*len(threads))
	for _, m := range methods {
		for _, t := range threads {
			reqs = append(reqs, prophet.Request{Method: m, Threads: t})
		}
	}
	return reqs
}

// BenchmarkSurrogateEval measures a warm surrogate answering the hot
// tier: the store is seeded from a cores sweep, then every iteration is
// one EstimateCtx that the surrogate serves without emulating. The CI
// surrogate-smoke job gates its ns/op against BenchmarkSimEngineSpec
// (one full emulation of the same shape) at >= 10x.
func BenchmarkSurrogateEval(b *testing.B) {
	surr := prophet.NewSurrogate(prophet.SurrogateConfig{
		MinSamples: 8, RefitEvery: 8, ShadowEvery: -1, MaxRelErr: 0.5, Seed: 1,
	})
	p := surrogateBenchProfile(b, surr)
	grid := surrogateGrid([]prophet.Method{prophet.FastForward},
		[]int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12})
	ctx := context.Background()
	if err := p.SeedSurrogateCtx(ctx, grid, 4); err != nil {
		b.Fatalf("SeedSurrogateCtx: %v", err)
	}
	req := prophet.Request{Method: prophet.FastForward, Threads: 8}
	if est := mustEstimate(b, p, req); est.Source != prophet.SourceSurrogate {
		b.Fatalf("warm cell not served by surrogate (source %q)", est.Source)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		est, err := p.EstimateCtx(ctx, req)
		if err != nil {
			b.Fatal(err)
		}
		if est.Source != prophet.SourceSurrogate {
			b.Fatalf("iteration fell back to emulation (source %q)", est.Source)
		}
	}
}

// TestSurrogateShadowAccuracy is the accuracy half of the CI
// surrogate-smoke gate: against golden emulated estimates, surrogate
// answers for trained cells must be exact (memoized emulation results),
// and confident answers for held-out cells must stay within the rel
// error budget on average.
func TestSurrogateShadowAccuracy(t *testing.T) {
	// Golden estimates from an unarmed profile of the same program: the
	// emulator is deterministic, so these are the exact answers.
	plain := surrogateBenchProfile(t, nil)
	golden := func(req prophet.Request) float64 {
		return mustEstimate(t, plain, req).Speedup
	}

	surr := prophet.NewSurrogate(prophet.SurrogateConfig{
		MinSamples: 8, RefitEvery: 4, ShadowEvery: -1, MaxRelErr: 0.05, Seed: 1,
	})
	p := surrogateBenchProfile(t, surr)
	methods := []prophet.Method{prophet.FastForward, prophet.AmdahlLaw}
	train := surrogateGrid(methods, []int{2, 4, 6, 8, 10, 12})
	if err := p.SeedSurrogateCtx(context.Background(), train, 4); err != nil {
		t.Fatalf("SeedSurrogateCtx: %v", err)
	}

	// Trained cells: must come back from the surrogate, byte-for-byte
	// the emulated speedup (the store memoizes exact matches).
	for _, req := range train {
		est := mustEstimate(t, p, req)
		if est.Source != prophet.SourceSurrogate {
			t.Errorf("trained cell %+v not served by surrogate (source %q)", req, est.Source)
		}
		if want := golden(req); est.Speedup != want {
			t.Errorf("trained cell %+v: surrogate %.6f, emulated %.6f", req, est.Speedup, want)
		}
	}

	// Held-out cells (odd thread counts): the confidence gate may send
	// any of them to emulation — that is correct behaviour, not an
	// error — but the ones the surrogate does serve must average within
	// the 5% budget it was configured with.
	var served int
	var sumRel, worstRel float64
	for _, req := range surrogateGrid(methods, []int{3, 5, 7, 9, 11}) {
		est := mustEstimate(t, p, req)
		if est.Source != prophet.SourceSurrogate {
			continue
		}
		want := golden(req)
		rel := (est.Speedup - want) / want
		if rel < 0 {
			rel = -rel
		}
		served++
		sumRel += rel
		if rel > worstRel {
			worstRel = rel
		}
	}
	if served > 0 {
		mean := sumRel / float64(served)
		t.Logf("held-out cells served by surrogate: %d, mean rel err %.4f, worst %.4f",
			served, mean, worstRel)
		if mean > 0.05 {
			t.Errorf("held-out mean rel error %.4f exceeds the 5%% budget", mean)
		}
		if worstRel > 0.20 {
			t.Errorf("held-out worst rel error %.4f is far outside the confidence bound", worstRel)
		}
	}
}

// TestSeedSurrogateMatchesSequentialSeeding: SeedSurrogate emulates on a
// worker pool but consults and trains the store in request order, so a
// store seeded on any worker count — machine-variant cells included —
// answers every later request exactly as one trained by EstimateCtx over
// the grid one cell at a time.
func TestSeedSurrogateMatchesSequentialSeeding(t *testing.T) {
	cfg := prophet.SurrogateConfig{MinSamples: 8, RefitEvery: 4, ShadowEvery: 3, MaxRelErr: 0.05, Seed: 1}
	methods := []prophet.Method{prophet.FastForward, prophet.AmdahlLaw}
	var train, probe []prophet.Request
	for _, m := range []string{"", "hbm12"} {
		for _, r := range surrogateGrid(methods, []int{2, 4, 6, 8, 10, 12}) {
			r.Machine = m
			train = append(train, r)
		}
		for _, r := range surrogateGrid(methods, []int{3, 5, 7, 9, 11}) {
			r.Machine = m
			probe = append(probe, r)
		}
	}
	answers := func(seed func(p *prophet.Profile) error) string {
		surr := prophet.NewSurrogate(cfg)
		p := surrogateBenchProfile(t, surr)
		if err := seed(p); err != nil {
			t.Fatalf("seed: %v", err)
		}
		out := make([]prophet.Estimate, len(probe))
		for i, r := range probe {
			out[i] = mustEstimate(t, p, r)
		}
		data, err := json.Marshal(struct {
			Samples   int
			Estimates []prophet.Estimate
		}{surr.Samples(), out})
		if err != nil {
			t.Fatal(err)
		}
		return string(data)
	}
	want := answers(func(p *prophet.Profile) error {
		for _, r := range train {
			if _, err := p.EstimateCtx(context.Background(), r); err != nil {
				return err
			}
		}
		return nil
	})
	if strings.Count(want, `"source":"surrogate"`) < 2 {
		t.Fatalf("fewer than two probes served by the surrogate; the comparison proves little:\n%s", want)
	}
	for _, workers := range []int{1, 4} {
		got := answers(func(p *prophet.Profile) error {
			return p.SeedSurrogateCtx(context.Background(), train, workers)
		})
		if got != want {
			t.Errorf("workers=%d: seeded store answers differ from sequential seeding:\n%s\nvs\n%s", workers, got, want)
		}
	}
}
