package workloads

import (
	"math/rand"
	"testing"

	"prophet/internal/compress"
	"prophet/internal/machine"
	"prophet/internal/mem"
	"prophet/internal/trace"
	"prophet/internal/tree"
)

func profile(t *testing.T, prog trace.Program) *tree.Node {
	t.Helper()
	root, _, err := trace.Profile(prog, machine.Default())
	if err != nil {
		t.Fatalf("profile: %v", err)
	}
	if err := root.Validate(); err != nil {
		t.Fatalf("invalid tree: %v", err)
	}
	return root
}

func TestAllBenchmarksProfileCleanly(t *testing.T) {
	for _, w := range All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			root := profile(t, w.Program)
			if root.TotalLen() <= 0 {
				t.Fatal("zero-length program")
			}
			secs := root.TopLevelSections()
			if len(secs) == 0 {
				t.Fatal("no parallel sections")
			}
			for _, s := range secs {
				if s.Counters == nil {
					t.Fatalf("section %q missing counters", s.Name)
				}
			}
		})
	}
}

func TestNamesAndByName(t *testing.T) {
	if len(Names()) != 8 {
		t.Fatalf("Names() = %v, want 8 benchmarks", Names())
	}
	for _, n := range Names() {
		w, err := ByName(n)
		if err != nil || w.Name != n {
			t.Fatalf("ByName(%q): %v", n, err)
		}
		if w.Desc == "" || w.Program == nil {
			t.Fatalf("%s: incomplete workload", n)
		}
	}
	if _, err := ByName("nope"); err == nil {
		t.Fatal("unknown name accepted")
	}
}

// TestMemoryClasses checks the §VII-C classification: FT/CG/MG/FFT are
// bandwidth-bound (counter traffic above the model's 2000 MB/s floor on
// their hot sections), while MD/EP are not.
func TestMemoryClasses(t *testing.T) {
	heavy := map[string]bool{"NPB-FT": true, "NPB-CG": true, "NPB-MG": true, "FFT-Cilk": true}
	light := map[string]bool{"MD-OMP": true, "NPB-EP": true}
	for _, w := range All() {
		if !heavy[w.Name] && !light[w.Name] {
			continue
		}
		root := profile(t, w.Program)
		maxTraffic := 0.0
		for _, s := range root.TopLevelSections() {
			if tr := s.Counters.TrafficMBps(0); tr > maxTraffic {
				maxTraffic = tr
			}
		}
		if heavy[w.Name] && maxTraffic < 2000 {
			t.Errorf("%s: hottest section traffic %.0f MB/s, want >= 2000 (bandwidth-bound class)", w.Name, maxTraffic)
		}
		if light[w.Name] && maxTraffic > 2000 {
			t.Errorf("%s: traffic %.0f MB/s, want < 2000 (compute-bound class)", w.Name, maxTraffic)
		}
	}
}

func TestLUImbalanceShape(t *testing.T) {
	w, _ := ByName("LU-OMP")
	root := profile(t, w.Program)
	secs := root.TopLevelSections()
	if len(secs) != 511 {
		t.Fatalf("LU sections = %d, want 511 (one per pivot)", len(secs))
	}
	// Early sections have more and longer tasks than late ones.
	first, last := secs[0], secs[len(secs)-2]
	if first.Tasks() <= last.Tasks() {
		t.Errorf("task counts not shrinking: %d vs %d", first.Tasks(), last.Tasks())
	}
	if first.TotalLen() <= last.TotalLen()*10 {
		t.Errorf("work not triangular: first %d vs last %d", first.TotalLen(), last.TotalLen())
	}
}

func TestQSortRecursionAuthentic(t *testing.T) {
	w, _ := ByName("QSort-Cilk")
	root := profile(t, w.Program)
	// Count nested sections (recursion splits) and check imbalance: the
	// two halves of some split must differ (real partitions are uneven).
	splits := 0
	uneven := 0
	root.Walk(func(n *tree.Node) bool {
		if n.Kind == tree.Sec && n.Name == "qsort-halves" {
			splits++
			if len(n.Children) == 2 {
				a, b := n.Children[0].TotalLen(), n.Children[1].TotalLen()
				if a != b {
					uneven++
				}
			}
		}
		return true
	})
	if splits < 100 {
		t.Fatalf("only %d recursion splits", splits)
	}
	if uneven < splits/2 {
		t.Fatalf("recursion suspiciously balanced: %d/%d uneven", uneven, splits)
	}
}

func TestBenchmarkTreesCompressWell(t *testing.T) {
	// §VI-B: regular benchmarks compress by large factors.
	for _, name := range []string{"NPB-FT", "NPB-EP", "MD-OMP", "NPB-CG"} {
		w, _ := ByName(name)
		root := profile(t, w.Program)
		st := compress.Compress(root, compress.DefaultTolerance)
		if st.Reduction() < 0.8 {
			t.Errorf("%s: compression %.1f%%, want >= 80%%", name, 100*st.Reduction())
		}
		if err := root.Validate(); err != nil {
			t.Errorf("%s: compressed tree invalid: %v", name, err)
		}
	}
}

func TestStreamMissesThresholdMatchesCacheSim(t *testing.T) {
	// Cross-check the streaming threshold model against the real cache
	// simulator: a 1 MB-working-set stream on a 64 KB cache misses every
	// line; inside a 16 KB set it hits.
	cfg := machine.LLCSpec{SizeBytes: 1 << 16, Ways: 8, LineBytes: 64}
	if r := mem.StreamMissRate(cfg, 1<<20, 64); r < 0.95 {
		t.Fatalf("cache sim: oversized stream miss rate %g, want ~1 (threshold model assumes 1)", r)
	}
	if r := mem.StreamMissRate(cfg, 1<<14, 64); r > 0.05 {
		t.Fatalf("cache sim: resident stream miss rate %g, want ~0", r)
	}
	// And the workload helper agrees at the LLC scale.
	if streamMisses(1<<20, LLCBytes/2) != 0 {
		t.Error("resident working set should not miss")
	}
	if streamMisses(1<<20, 2*LLCBytes) != (1<<20)/64 {
		t.Error("oversized working set should miss every line")
	}
}

func TestRandomTest1Deterministic(t *testing.T) {
	p := RandomTest1(rand.New(rand.NewSource(5)))
	a := profile(t, p.Program())
	b := profile(t, p.Program())
	if !tree.Equal(a, b, 0) {
		t.Fatal("same params produced different trees")
	}
	sec := a.TopLevelSections()
	if len(sec) != 1 || sec[0].Tasks() != p.Iters {
		t.Fatalf("test1 tree shape wrong: %d sections", len(sec))
	}
}

func TestRandomTest1CoversPatternsAndLocks(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	patterns := map[Pattern]bool{}
	locks := 0
	for i := 0; i < 200; i++ {
		p := RandomTest1(rng)
		patterns[p.Pattern] = true
		if p.RatioLock1 > 0 {
			locks++
		}
		if p.Iters < 16 || p.MaxWork < p.MinWork {
			t.Fatalf("bad sample: %+v", p)
		}
	}
	if len(patterns) < int(numPatterns) {
		t.Errorf("patterns drawn: %d of %d", len(patterns), numPatterns)
	}
	if locks < 50 {
		t.Errorf("only %d/200 samples have locks", locks)
	}
}

func TestTest1LocksAppearInTree(t *testing.T) {
	p := Test1Params{
		Iters: 10, Pattern: PatternUniform,
		MinWork: 1000, MaxWork: 1000,
		Ratio1: 0.4, RatioLock1: 0.3, Ratio3: 0.3,
		Lock1Prob: 1, Seed: 3,
	}
	root := profile(t, p.Program())
	lNodes := 0
	root.Walk(func(n *tree.Node) bool {
		if n.Kind == tree.L {
			lNodes++
			if n.LockID != 1 {
				t.Errorf("lock id %d", n.LockID)
			}
		}
		return true
	})
	if lNodes != 10 {
		t.Fatalf("L nodes = %d, want 10", lNodes)
	}
}

func TestTest2HasNestedSections(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	p := RandomTest2(rng)
	p.NestedProb = 1
	root := profile(t, p.Program())
	nested := 0
	root.Walk(func(n *tree.Node) bool {
		if n.Kind == tree.Sec && n.Name == "inner" {
			nested++
		}
		return true
	})
	if nested != p.Outer {
		t.Fatalf("nested sections = %d, want %d", nested, p.Outer)
	}
}

func TestPatternWorkBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for p := Pattern(0); p < numPatterns; p++ {
		if p.String() == "?" {
			t.Fatalf("pattern %d unnamed", p)
		}
		for i := 0; i < 50; i++ {
			w := workFor(p, rng, i, 50, 100, 1000)
			if w < 100 || w > 1000 {
				t.Fatalf("%v: work %d outside [100, 1000]", p, w)
			}
		}
	}
	// Increasing pattern is monotone.
	prev := workFor(PatternIncreasing, rng, 0, 10, 100, 1000)
	for i := 1; i < 10; i++ {
		w := workFor(PatternIncreasing, rng, i, 10, 100, 1000)
		if w < prev {
			t.Fatal("increasing pattern not monotone")
		}
		prev = w
	}
}

// TestISCompressionStressCase: the paper's §VI-B highlight — IS produces
// the biggest tree and compresses almost entirely (10 GB -> manageable).
func TestISCompressionStressCase(t *testing.T) {
	w, err := ByName("NPB-IS")
	if err != nil {
		t.Fatal(err)
	}
	root := profile(t, w.Program)
	st := compress.Compress(root, compress.DefaultTolerance)
	if st.NodesBefore < 10_000 {
		t.Fatalf("IS tree suspiciously small before compression: %d", st.NodesBefore)
	}
	if st.Reduction() < 0.99 {
		t.Fatalf("IS reduction = %.2f%%, want >= 99%% (the paper's RLE-friendly case)", 100*st.Reduction())
	}
	// The rank phase is scatter-bound: its traffic dominates counting's.
	var countTraffic, rankTraffic float64
	for _, sec := range root.TopLevelSections() {
		tr := sec.Counters.TrafficMBps(0)
		switch sec.Name {
		case "is-count":
			countTraffic = tr
		case "is-rank":
			rankTraffic = tr
		}
	}
	if rankTraffic <= countTraffic {
		t.Fatalf("rank traffic %.0f <= count traffic %.0f", rankTraffic, countTraffic)
	}
	// Memory-bound class: the hottest section crosses the model floor.
	if rankTraffic < 2000 {
		t.Fatalf("IS rank traffic %.0f MB/s below memory-bound class", rankTraffic)
	}
}

// TestISNotInFig12Names: IS is reachable by name but not part of the
// paper's Fig. 12 panel set.
func TestISNotInFig12Names(t *testing.T) {
	for _, n := range Names() {
		if n == "NPB-IS" {
			t.Fatal("NPB-IS should not be in the Fig. 12 list")
		}
	}
	if _, err := ByName("NPB-IS"); err != nil {
		t.Fatal(err)
	}
}
