package prophet

import (
	"context"
	"encoding/json"
	"errors"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"prophet/internal/memmodel"
	"prophet/internal/tree"
)

func TestAdviseBalancedLoop(t *testing.T) {
	p, err := ProfileProgramCtx(context.Background(), balancedProgram(48, 100_000), &Options{Machine: testMachine(12)})
	if err != nil {
		t.Fatal(err)
	}
	adv := mustAdvise(t, p, &AdviseOptions{Method: FastForward})
	if adv.Best.Speedup < 10 {
		t.Fatalf("best speedup = %.2f, want ~12 on a balanced loop", adv.Best.Speedup)
	}
	if adv.Best.Threads != 12 {
		t.Fatalf("best threads = %d, want 12", adv.Best.Threads)
	}
	if adv.MemoryLimited {
		t.Error("compute-only loop flagged memory-limited")
	}
	if adv.ParallelFraction < 0.999 {
		t.Errorf("parallel fraction = %g, want ~1", adv.ParallelFraction)
	}
	if adv.UpperBound < adv.Best.Speedup-0.2 {
		t.Errorf("upper bound %.2f below best %.2f", adv.UpperBound, adv.Best.Speedup)
	}
	// Sweep is sorted descending.
	for i := 1; i < len(adv.Sweep); i++ {
		if adv.Sweep[i].Speedup > adv.Sweep[i-1].Speedup {
			t.Fatal("sweep not sorted")
		}
	}
}

func TestAdviseMemoryBound(t *testing.T) {
	streaming := func(ctx Context) {
		ctx.SecBegin("stream")
		for i := 0; i < 96; i++ {
			ctx.TaskBegin("it")
			ctx.Compute(10_000, 3_000)
			ctx.TaskEnd()
		}
		ctx.SecEnd(false)
	}
	p, err := ProfileProgramCtx(context.Background(), streaming, &Options{Machine: testMachine(12)})
	if err != nil {
		t.Fatal(err)
	}
	adv := mustAdvise(t, p, &AdviseOptions{Method: FastForward})
	if !adv.MemoryLimited {
		t.Fatal("streaming workload not flagged memory-limited")
	}
	if adv.SaturationThreads == 0 || adv.SaturationThreads > 12 {
		t.Fatalf("saturation threads = %d, want within the sweep", adv.SaturationThreads)
	}
	s := adv.String()
	for _, want := range []string{"best:", "memory-limited", "top configurations"} {
		if !strings.Contains(s, want) {
			t.Errorf("advice report missing %q:\n%s", want, s)
		}
	}
}

func TestAdviseSerialProgram(t *testing.T) {
	// Mostly serial: the advisor must not promise much.
	prog := func(ctx Context) {
		ctx.Compute(900_000, 0)
		ctx.SecBegin("tiny")
		ctx.TaskBegin("t")
		ctx.Compute(50_000, 0)
		ctx.TaskEnd()
		ctx.TaskBegin("t")
		ctx.Compute(50_000, 0)
		ctx.TaskEnd()
		ctx.SecEnd(false)
	}
	p, err := ProfileProgramCtx(context.Background(), prog, &Options{Machine: testMachine(12)})
	if err != nil {
		t.Fatal(err)
	}
	adv := mustAdvise(t, p, &AdviseOptions{Method: FastForward, Threads: []int{2, 4, 8}})
	if adv.Best.Speedup > 1.15 {
		t.Fatalf("serial program promised %.2fx", adv.Best.Speedup)
	}
	if adv.ParallelFraction > 0.15 {
		t.Fatalf("parallel fraction = %g", adv.ParallelFraction)
	}
	if adv.SaturationThreads == 0 {
		t.Error("no saturation point on an Amdahl-bound program")
	}
}

func TestAdviseCilkWinsOnRecursion(t *testing.T) {
	// Deep recursion: the Cilk paradigm should beat nested OpenMP teams.
	var rec func(ctx Context, depth int)
	rec = func(ctx Context, depth int) {
		if depth == 0 {
			ctx.Compute(40_000, 0)
			return
		}
		ctx.SecBegin("split")
		ctx.TaskBegin("l")
		rec(ctx, depth-1)
		ctx.TaskEnd()
		ctx.TaskBegin("r")
		rec(ctx, depth-1)
		ctx.TaskEnd()
		ctx.SecEnd(false)
	}
	prog := func(ctx Context) {
		ctx.SecBegin("root")
		ctx.TaskBegin("t")
		rec(ctx, 5)
		ctx.TaskEnd()
		ctx.SecEnd(false)
	}
	p, err := ProfileProgramCtx(context.Background(), prog, &Options{Machine: testMachine(8), CompressTolerance: -1})
	if err != nil {
		t.Fatal(err)
	}
	adv := mustAdvise(t, p, &AdviseOptions{Threads: []int{4, 8}, Method: Synthesizer})
	if adv.Best.Paradigm != Cilk {
		t.Fatalf("best paradigm = %v, want Cilk for recursion (%.2fx)\n%s",
			adv.Best.Paradigm, adv.Best.Speedup, adv)
	}
}

// TestAdviseUnsortedThreads is the regression for the advise.go:99 bug:
// an unsorted -cores input used to compute UpperBound at the last (not
// largest) entry and corrupt the saturation walk. Threads are now
// normalized like ParseCores, so any ordering yields the same Advice.
func TestAdviseUnsortedThreads(t *testing.T) {
	p, err := ProfileProgramCtx(context.Background(), balancedProgram(48, 100_000), &Options{Machine: testMachine(12)})
	if err != nil {
		t.Fatal(err)
	}
	sorted := mustAdvise(t, p, &AdviseOptions{Method: FastForward, Threads: []int{1, 4, 12}})
	unsorted := mustAdvise(t, p, &AdviseOptions{Method: FastForward, Threads: []int{12, 1, 4, 4}})
	if unsorted.TargetThreads != 12 {
		t.Fatalf("target threads = %d, want 12 (largest, not last)", unsorted.TargetThreads)
	}
	if unsorted.UpperBound != sorted.UpperBound {
		t.Fatalf("upper bound %v != %v: computed at the wrong thread count", unsorted.UpperBound, sorted.UpperBound)
	}
	a, err := json.Marshal(sorted)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(unsorted)
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Fatalf("unsorted -cores changed the advice:\nsorted:   %s\nunsorted: %s", a, b)
	}
}

// TestAdviseMethodOwnsTheDefault: the empty name selects the advisor's
// default, which is also what nil options run; other names read as
// ParseMethod reads them, surrounding space ignored.
func TestAdviseMethodOwnsTheDefault(t *testing.T) {
	for name, want := range map[string]Method{"": Synthesizer, "ff": FastForward, " syn ": Synthesizer, "critical-path": CriticalPathBound} {
		if got, err := AdviseMethod(name); err != nil || got != want {
			t.Errorf("AdviseMethod(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	for _, name := range []string{" ", "bogus"} {
		if _, err := AdviseMethod(name); err == nil {
			t.Errorf("AdviseMethod(%q) accepted", name)
		}
	}
	p, err := ProfileProgramCtx(context.Background(), balancedProgram(24, 50_000), &Options{Machine: testMachine(4)})
	if err != nil {
		t.Fatal(err)
	}
	def, _ := AdviseMethod("")
	a, err := json.Marshal(mustAdvise(t, p, nil))
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(mustAdvise(t, p, &AdviseOptions{Method: def}))
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Fatalf("nil options and AdviseMethod(\"\") advise differently:\n%s\n%s", a, b)
	}
}

// TestAdviseAllErrors is the regression for the zero-value report: when
// every estimate fails (here: a 1-event watchdog budget), Best must stay
// unranked, the first error must surface on Advice, and the report must
// say so instead of "best: 0.00x with ff on 0 threads".
func TestAdviseAllErrors(t *testing.T) {
	machine := testMachine(12)
	machine.MaxEvents = 1
	p, err := ProfileProgramCtx(context.Background(), balancedProgram(8, 50_000), &Options{
		Machine:            machine,
		DisableMemoryModel: true, // calibration would hit the budget too
	})
	if err != nil {
		t.Fatal(err)
	}
	adv, aerr := p.AdviseCtx(context.Background(), &AdviseOptions{Method: Synthesizer, Threads: []int{2, 4}})
	if aerr == nil {
		t.Fatal("AdviseCtx returned nil error with every estimate failing")
	}
	if !errors.Is(aerr, ErrBudgetExceeded) {
		t.Fatalf("error = %v, want ErrBudgetExceeded", aerr)
	}
	if adv.Err == nil {
		t.Error("Advice.Err not surfaced")
	}
	if adv.Best.Speedup != 0 || adv.Best.Threads != 0 {
		t.Fatalf("Best ranked from errored estimates: %+v", adv.Best)
	}
	for _, e := range adv.Sweep {
		if e.Err == nil {
			t.Fatalf("sweep entry without error in an all-errors sweep: %+v", e)
		}
	}
	s := adv.String()
	if !strings.Contains(s, "no configuration could be estimated") {
		t.Errorf("report missing the failure message:\n%s", s)
	}
	if strings.Contains(s, "0.00x with") {
		t.Errorf("report still renders the zero-value best:\n%s", s)
	}
}

// TestAdviseCtxCancel cancels the advisor mid-fanout and asserts partial
// results come back with the cancellation error — and that no worker
// goroutines leak past the return.
func TestAdviseCtxCancel(t *testing.T) {
	p, err := ProfileProgramCtx(context.Background(), balancedProgram(24, 50_000), &Options{Machine: testMachine(12)})
	if err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var calls atomic.Int64
	adv, aerr := p.AdviseCtx(ctx, &AdviseOptions{
		Method:  FastForward,
		Threads: []int{2, 4, 6, 8, 10, 12},
		Workers: 1, // deterministic: cells run one at a time
		Estimator: func(ctx context.Context, scope string, prof *Profile, req Request) (Estimate, error) {
			if calls.Add(1) == 3 {
				cancel()
			}
			return prof.EstimateCtx(ctx, req)
		},
	})
	if !errors.Is(aerr, context.Canceled) {
		t.Fatalf("error = %v, want context.Canceled", aerr)
	}
	if len(adv.Sweep) == 0 {
		t.Fatal("no partial results survived the cancellation")
	}
	// 2 paradigms × (3 scheds + steal) × 6 threads = 24 grid cells; the
	// cancel landed at cell 3, so most of the grid must be missing.
	if len(adv.Sweep) >= 24 {
		t.Fatalf("sweep has %d entries, want a partial result", len(adv.Sweep))
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if g := runtime.NumGoroutine(); g > before {
		t.Errorf("goroutines leaked: %d before, %d after", before, g)
	}
}

// TestAdviseRegionCandidates pins the region enumeration: deterministic
// first-occurrence order, same-named sections grouped, zero-length
// serial runs skipped, Repeat runs counted at full weight.
func TestAdviseRegionCandidates(t *testing.T) {
	root := tree.NewRoot(
		tree.NewSec("a", tree.NewTask("t", tree.NewU(300))),
		tree.NewU(100),
		tree.NewSec("a", tree.NewTask("t", tree.NewU(500))),
		tree.NewU(0),
		tree.NewSec("b", tree.NewTask("t", tree.NewU(200))),
		&tree.Node{Kind: tree.U, Len: 50, Repeat: 2},
	)
	cands := adviseCandidates(root)
	want := []struct {
		name string
		kind string
		work Cycles
		idxs []int
	}{
		{"a", RegionSection, 800, []int{0, 2}},
		{"serial#1", RegionSerial, 100, []int{1}},
		{"b", RegionSection, 200, []int{4}},
		{"serial#2", RegionSerial, 100, []int{5}},
	}
	if len(cands) != len(want) {
		t.Fatalf("got %d candidates, want %d: %+v", len(cands), len(want), cands)
	}
	for i, w := range want {
		c := cands[i]
		if c.name != w.name || c.kind != w.kind || c.work != w.work {
			t.Errorf("candidate %d = {%s %s %d}, want {%s %s %d}", i, c.name, c.kind, c.work, w.name, w.kind, w.work)
		}
		if len(c.idxs) != len(w.idxs) {
			t.Errorf("candidate %d indices = %v, want %v", i, c.idxs, w.idxs)
			continue
		}
		for j := range w.idxs {
			if c.idxs[j] != w.idxs[j] {
				t.Errorf("candidate %d indices = %v, want %v", i, c.idxs, w.idxs)
			}
		}
	}
}

// TestAdviseRegionVariants pins variant synthesis: total work conserved
// exactly on the clone, the baseline tree untouched, sections serialized
// to one U, Repeat runs wrapped one-task-per-repetition, and single long
// runs split into near-equal tasks.
func TestAdviseRegionVariants(t *testing.T) {
	root := tree.NewRoot(
		tree.NewSec("hot",
			tree.NewTask("t", tree.NewU(400)),
			tree.NewTask("t", tree.NewU(600))),
		&tree.Node{Kind: tree.U, Len: 100, Repeat: 7, Mem: tree.MemTraits{Instructions: 40, LLCMisses: 2}},
		tree.NewU(10),
	)
	p, err := ProfileTreeCtx(context.Background(), root, &Options{Machine: testMachine(12), DisableMemoryModel: true})
	if err != nil {
		t.Fatal(err)
	}
	baseline := p.Tree.String()
	total := p.Tree.TotalLen()
	cands := adviseCandidates(p.Tree)
	if len(cands) != 3 {
		t.Fatalf("got %d candidates: %+v", len(cands), cands)
	}

	for _, c := range cands {
		v, err := p.regionVariant(c, 4)
		if err != nil {
			t.Fatalf("variant %s: %v", c.name, err)
		}
		if got := v.Tree.TotalLen(); got != total {
			t.Errorf("variant %s total work %d, want %d", c.name, got, total)
		}
		if v.SerialCycles != p.SerialCycles {
			t.Errorf("variant %s serial cycles %d, want %d", c.name, v.SerialCycles, p.SerialCycles)
		}
		if err := v.Tree.Validate(); err != nil {
			t.Errorf("variant %s invalid: %v", c.name, err)
		}
	}
	if got := p.Tree.String(); got != baseline {
		t.Fatalf("baseline tree mutated by variant synthesis:\nbefore:\n%s\nafter:\n%s", baseline, got)
	}

	// Section candidate: serialized to a single top-level U of its work.
	v, _ := p.regionVariant(cands[0], 4)
	if n := v.Tree.Children[0]; n.Kind != tree.U || n.Len != 1000 {
		t.Errorf("serialized section = %v len %d, want U len 1000", n.Kind, n.Len)
	}

	// Repeat run: one task per repetition, memory traits carried over.
	v, _ = p.regionVariant(cands[1], 4)
	sec := v.Tree.Children[1]
	if sec.Kind != tree.Sec || sec.Name != "serial#1" {
		t.Fatalf("wrapped run = %v %q, want Sec serial#1", sec.Kind, sec.Name)
	}
	if sec.Tasks() != 7 {
		t.Errorf("wrapped Repeat run has %d tasks, want 7", sec.Tasks())
	}
	if sec.Counters == nil || sec.Counters.Instructions != 40 || sec.Counters.LLCMisses != 2 || sec.Counters.Cycles != 100 {
		t.Errorf("synthesized counters = %+v, want per-rep {40, 100, 2}", sec.Counters)
	}

	// Single run of 10 cycles at 4 target threads: 2 tasks of 3 plus 2
	// of 2 — exact conservation, no Mem so no counters.
	v, _ = p.regionVariant(cands[2], 4)
	sec = v.Tree.Children[2]
	if sec.Kind != tree.Sec || sec.Tasks() != 4 || sec.TotalLen() != 10 {
		t.Fatalf("split run = %v tasks=%d total=%d, want Sec tasks=4 total=10", sec.Kind, sec.Tasks(), sec.TotalLen())
	}
	if sec.Counters != nil {
		t.Errorf("split run without Mem got counters %+v", sec.Counters)
	}
}

// TestAdviseAntiRecommendation is the acceptance case: a memory-bound
// region whose parallel variant predicts < 1.0x marginal gain must come
// back as an explicit anti-recommendation, while the compute-bound
// region tops the ranking.
func TestAdviseAntiRecommendation(t *testing.T) {
	hot := tree.NewSec("hot")
	for i := 0; i < 12; i++ {
		hot.Children = append(hot.Children, tree.NewTask("t", tree.NewU(100_000)))
	}
	membound := tree.NewSec("membound",
		tree.NewTask("t", tree.NewU(200_000)),
		tree.NewTask("t", tree.NewU(200_000)))
	// A saturated-bandwidth burden at every swept count: parallelizing
	// this section quadruples its per-task cost. Counters stay nil so
	// recalibration (which skips counter-less sections) preserves it.
	membound.Burden = map[int]float64{2: 4, 4: 4, 6: 4, 8: 4, 10: 4, 12: 4}
	root := tree.NewRoot(hot, membound)

	// An empty model keeps burden lookups live (Model != nil) without
	// calibrating: sections without counters keep their hand-set maps.
	p, err := ProfileTreeCtx(context.Background(), root, &Options{Machine: testMachine(12), MemModel: &memmodel.Model{}})
	if err != nil {
		t.Fatal(err)
	}
	adv, aerr := p.AdviseCtx(context.Background(), &AdviseOptions{Method: FastForward, Threads: []int{4, 12}})
	if aerr != nil {
		t.Fatal(aerr)
	}
	if len(adv.Regions) != 2 {
		t.Fatalf("got %d regions, want 2:\n%s", len(adv.Regions), adv)
	}
	top := adv.Regions[0]
	if top.Region != "hot" || !top.Recommend || top.Marginal <= 1 {
		t.Fatalf("top region = %+v, want hot recommended with marginal > 1\n%s", top, adv)
	}
	var mb *RegionAdvice
	for i := range adv.Regions {
		if adv.Regions[i].Region == "membound" {
			mb = &adv.Regions[i]
		}
	}
	if mb == nil {
		t.Fatalf("membound region missing:\n%s", adv)
	}
	if mb.Err != nil {
		t.Fatalf("membound experiment failed: %v", mb.Err)
	}
	if mb.Marginal >= 1 || mb.Recommend {
		t.Fatalf("memory-bound region not anti-recommended: marginal %.2f recommend %v\n%s", mb.Marginal, mb.Recommend, adv)
	}
	if mb.Kind != RegionSection {
		t.Errorf("membound kind = %s, want %s", mb.Kind, RegionSection)
	}
	if !strings.Contains(adv.String(), "not worth it") {
		t.Errorf("report missing the anti-recommendation:\n%s", adv)
	}
}

// TestAdviceJSONRoundTrip pins the advice wire format: Err flattens to a
// message on both Advice and RegionAdvice and survives a round trip.
func TestAdviceJSONRoundTrip(t *testing.T) {
	in := Advice{
		Best:             Estimate{Request: Request{Method: FastForward, Threads: 8}, Speedup: 3.5},
		ParallelFraction: 0.9,
		UpperBound:       8,
		TargetThreads:    8,
		Regions: []RegionAdvice{
			{Region: "loop", Kind: RegionSection, Work: 1000, Coverage: 0.8, WithSpeedup: 3.5, WithoutSpeedup: 1.1, Marginal: 3.18, Recommend: true},
			{Region: "serial#1", Kind: RegionSerial, Err: errors.New("boom")},
		},
		Err: errors.New("one cell failed"),
	}
	data, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	var out Advice
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if out.Err == nil || out.Err.Error() != "one cell failed" {
		t.Errorf("Advice.Err round trip = %v", out.Err)
	}
	if len(out.Regions) != 2 || out.Regions[1].Err == nil || out.Regions[1].Err.Error() != "boom" {
		t.Errorf("RegionAdvice.Err round trip = %+v", out.Regions)
	}
	if out.Regions[0] != in.Regions[0] {
		t.Errorf("region round trip = %+v, want %+v", out.Regions[0], in.Regions[0])
	}
	if out.TargetThreads != 8 || !out.Regions[0].Recommend {
		t.Errorf("fields lost in round trip: %+v", out)
	}
}
