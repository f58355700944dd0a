package surrogate

import (
	"fmt"
	"math"
	"testing"

	"prophet/internal/counters"
	"prophet/internal/machine"
	"prophet/internal/obs"
	"prophet/internal/tree"
)

func sampleTree() *tree.Node {
	return tree.NewRoot(
		tree.NewU(1000),
		tree.NewSec("loop",
			&tree.Node{Kind: tree.Task, Repeat: 50, Children: []*tree.Node{
				tree.NewU(5000), tree.NewL(1, 200),
			}},
		),
		tree.NewU(500),
	)
}

func TestVectorDeterministicAndSized(t *testing.T) {
	ts := Stats(sampleTree(), counters.Sample{Instructions: 1e6, Cycles: 2e6, LLCMisses: 1e4})
	rf := RequestFeatures{Method: 0, Threads: 8, Paradigm: 0, SchedKind: 2, SchedChunk: 1, MemoryModel: true}
	a := Vector(&ts, rf, machine.Default())
	b := Vector(&ts, rf, machine.Default())
	if len(a) != NumFeatures {
		t.Fatalf("Vector returned %d features, want NumFeatures=%d", len(a), NumFeatures)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("vector not deterministic at dim %d: %v vs %v", i, a[i], b[i])
		}
	}
	// The request must move the vector.
	rf2 := rf
	rf2.Threads = 12
	c := Vector(&ts, rf2, machine.Default())
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("changing Threads did not change the feature vector")
	}
}

// sampleFingerprint is Stats(sampleTree()).Fingerprint as it read while
// the hash also carried a pipeline-section bit. Removing that always-zero
// bit must not move any fingerprint: a served model's partitions and its
// Fingerprint&1023 feature depend on it.
const sampleFingerprint = 0xb56cad321a10c7e4

func TestStatsFingerprintSeparatesTrees(t *testing.T) {
	a := Stats(sampleTree(), counters.Sample{})
	if a.Fingerprint != sampleFingerprint {
		t.Fatalf("sampleTree fingerprint = %#x, want %#x", a.Fingerprint, uint64(sampleFingerprint))
	}
	other := sampleTree()
	other.Children[0].Len = 1001
	b := Stats(other, counters.Sample{})
	if a.Fingerprint == b.Fingerprint {
		t.Fatal("different trees share a fingerprint")
	}
	if a.Fingerprint != Stats(sampleTree(), counters.Sample{}).Fingerprint {
		t.Fatal("fingerprint not deterministic")
	}
}

// vecAt builds a tiny synthetic feature vector.
func vecAt(x, y float64) []float64 { return []float64{x, y, 1} }

// trainSmooth feeds a smooth 2-D target function; k-NN should learn it.
func trainSmooth(p *Predictor, n int) {
	for i := 0; i < n; i++ {
		x := float64(i%16) / 4
		y := float64(i/16) / 4
		p.Observe("w", vecAt(x, y), 2+x+0.5*y)
	}
}

func TestPredictorServesConfidentNeighborhoods(t *testing.T) {
	p := New(Config{MinSamples: 16, RefitEvery: 16, ShadowEvery: -1, MaxRelErr: 0.10})
	trainSmooth(p, 256)
	val, ok, _ := p.Predict("w", vecAt(1.0, 1.0))
	if !ok {
		t.Fatal("expected a confident prediction inside the trained region")
	}
	want := 2 + 1.0 + 0.5
	if math.Abs(val-want)/want > 0.10 {
		t.Fatalf("prediction %v too far from %v", val, want)
	}
}

func TestExactMatchIsMemoized(t *testing.T) {
	p := New(Config{MinSamples: 16, RefitEvery: 16, ShadowEvery: -1, MaxRelErr: 0.05})
	trainSmooth(p, 256)
	// (2.0, 1.0) is a training point: x=8/4, y=4/4 → target 2+2+0.5=4.5.
	val, ok, _ := p.Predict("w", vecAt(2.0, 1.0))
	if !ok {
		t.Fatal("expected exact training point to be served")
	}
	if val != 4.5 {
		t.Fatalf("exact match returned %v, want the stored target 4.5", val)
	}
}

func TestUnknownPartitionAndFarQueriesFallBack(t *testing.T) {
	p := New(Config{MinSamples: 16, RefitEvery: 16, ShadowEvery: -1})
	if _, ok, _ := p.Predict("nope", vecAt(0, 0)); ok {
		t.Fatal("untrained partition must fall back")
	}
	// A jagged target (alternating ±) has high CV error everywhere: the
	// gate must refuse to serve even inside the sampled region.
	for i := 0; i < 256; i++ {
		x := float64(i%16) / 4
		y := float64(i/16) / 4
		sign := float64(1)
		if (i/16+i)%2 == 0 {
			sign = -1
		}
		p.Observe("jagged", vecAt(x, y), 10+sign*8)
	}
	if _, ok, _ := p.Predict("jagged", vecAt(1.01, 1.01)); ok {
		t.Fatal("confidence gate served a jagged (high-CV-error) neighborhood")
	}
}

func TestShadowCadence(t *testing.T) {
	p := New(Config{MinSamples: 16, RefitEvery: 16, ShadowEvery: 4, MaxRelErr: 0.10})
	trainSmooth(p, 256)
	shadows := 0
	for i := 0; i < 40; i++ {
		_, ok, shadow := p.Predict("w", vecAt(1.0, 1.0))
		if !ok {
			t.Fatal("expected confident predictions")
		}
		if shadow {
			shadows++
		}
	}
	if shadows != 10 {
		t.Fatalf("got %d shadow samples over 40 hits with ShadowEvery=4, want 10", shadows)
	}
}

func TestReservoirBoundedAndDeterministic(t *testing.T) {
	mk := func() *Predictor {
		p := New(Config{Capacity: 64, MinSamples: 16, RefitEvery: 32, ShadowEvery: -1, Seed: 7})
		for i := 0; i < 500; i++ {
			x := float64(i % 23)
			p.Observe("w", vecAt(x, x/2), 1+x)
		}
		return p
	}
	a, b := mk(), mk()
	if a.Samples() != 64 {
		t.Fatalf("store holds %d samples, want the 64 capacity", a.Samples())
	}
	for _, q := range [][]float64{vecAt(3, 1.5), vecAt(11, 5.5), vecAt(22, 11)} {
		av, aok, _ := a.Predict("w", q)
		bv, bok, _ := b.Predict("w", q)
		if av != bv || aok != bok {
			t.Fatalf("same seed diverged: (%v,%v) vs (%v,%v)", av, aok, bv, bok)
		}
	}
}

func TestMetricsRecorded(t *testing.T) {
	reg := &obs.Registry{}
	p := New(Config{MinSamples: 16, RefitEvery: 16, ShadowEvery: 2, MaxRelErr: 0.10, Metrics: reg})
	trainSmooth(p, 64)
	var served, shadows int
	for i := 0; i < 10; i++ {
		if val, ok, shadow := p.Predict("w", vecAt(1.0, 0.5)); ok {
			if shadow {
				shadows++
				p.RecordShadow(val, 3.25)
			} else {
				served++
			}
		}
	}
	snap := reg.Snapshot()
	if got := snap.Counters[obs.MSurrogateHits]; got != int64(served) {
		t.Fatalf("hits counter %d, want %d", got, served)
	}
	if got := snap.Counters[obs.MSurrogateShadowRuns]; got != int64(shadows) {
		t.Fatalf("shadow.runs counter %d, want %d", got, shadows)
	}
	if snap.Counters[obs.MSurrogateSamples] == 0 || snap.Counters[obs.MSurrogateRefits] == 0 {
		t.Fatal("train_samples / refits not recorded")
	}
	if snap.Histograms[obs.MSurrogateEvalLatency].Count == 0 {
		t.Fatal("eval latency histogram empty")
	}
	if snap.Histograms[obs.MSurrogateShadowRelErr].Count != int64(shadows) {
		t.Fatal("shadow rel-err histogram count mismatch")
	}
}

func TestStumpsLearnStepFunction(t *testing.T) {
	// A step function is what stumps represent exactly and k-NN blurs:
	// the head selection should converge and predict both plateaus.
	n, dim := 200, 3
	flat := make([]float64, n*dim)
	targets := make([]float64, n)
	for i := 0; i < n; i++ {
		x := float64(i) / float64(n)
		flat[i*dim] = x
		flat[i*dim+1] = math.Mod(float64(i)*0.37, 1)
		flat[i*dim+2] = 1
		if x < 0.5 {
			targets[i] = 2
		} else {
			targets[i] = 10
		}
	}
	m := fitStumps(flat, dim, n, targets, nil, sortOrders(flat, dim, n))
	if m == nil {
		t.Fatal("fitStumps returned nil on a splittable set")
	}
	lo := m.predict([]float64{0.2, 0.5, 1})
	hi := m.predict([]float64{0.8, 0.5, 1})
	if math.Abs(lo-2) > 0.5 || math.Abs(hi-10) > 0.5 {
		t.Fatalf("stumps predict lo=%v hi=%v, want ≈2 and ≈10", lo, hi)
	}
}

func TestObserveRejectsGarbage(t *testing.T) {
	p := New(Config{})
	p.Observe("w", nil, 1)
	p.Observe("w", vecAt(1, 1), math.NaN())
	p.Observe("w", vecAt(1, 1), math.Inf(1))
	if p.Samples() != 0 {
		t.Fatalf("garbage observations were stored: %d samples", p.Samples())
	}
}

func TestPartitionsAreIndependent(t *testing.T) {
	p := New(Config{MinSamples: 16, RefitEvery: 16, ShadowEvery: -1, MaxRelErr: 0.10})
	trainSmooth(p, 256)
	for i := 0; i < 64; i++ {
		p.Observe("other", vecAt(float64(i%8), 0), 100+float64(i%8))
	}
	v1, ok1, _ := p.Predict("w", vecAt(1, 1))
	v2, ok2, _ := p.Predict("other", vecAt(1, 0))
	if !ok1 || !ok2 {
		t.Fatalf("both partitions should answer (ok1=%v ok2=%v)", ok1, ok2)
	}
	if math.Abs(v1-3.5) > 1 || math.Abs(v2-101) > 2 {
		t.Fatalf("partition cross-talk: v1=%v (want ≈3.5) v2=%v (want ≈101)", v1, v2)
	}
}

func BenchmarkPredict(b *testing.B) {
	p := New(Config{MinSamples: 16, RefitEvery: 512, ShadowEvery: -1, MaxRelErr: 0.2, Capacity: 512})
	ts := Stats(sampleTree(), counters.Sample{Instructions: 1e6, Cycles: 2e6, LLCMisses: 1e4})
	for i := 0; i < 512; i++ {
		rf := RequestFeatures{Threads: 1 + i%24, SchedKind: uint8(i % 4), MemoryModel: i%2 == 0}
		p.Observe("w", Vector(&ts, rf, machine.Default()), 1+float64(i%24)/2)
	}
	q := Vector(&ts, RequestFeatures{Threads: 8, MemoryModel: true}, machine.Default())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Predict("w", q)
	}
}

func TestRefitHandlesTinyAndDuplicateStores(t *testing.T) {
	p := New(Config{MinSamples: 2, RefitEvery: 2, ShadowEvery: -1})
	for i := 0; i < 8; i++ {
		p.Observe("dup", vecAt(1, 1), 5) // all-identical samples
	}
	val, ok, _ := p.Predict("dup", vecAt(1, 1))
	if !ok || val != 5 {
		t.Fatalf("degenerate all-duplicate store: got (%v, %v), want (5, true)", val, ok)
	}
}

func ExampleStats() {
	ts := Stats(sampleTree(), counters.Sample{Instructions: 1000, Cycles: 2000, LLCMisses: 10})
	fmt.Println(len(Vector(&ts, RequestFeatures{Threads: 4}, nil)) == NumFeatures)
	// Output: true
}
