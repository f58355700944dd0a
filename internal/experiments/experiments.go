// Package experiments regenerates every table and figure of the paper's
// evaluation (§III, §VII) from this reproduction's components. cmd/ppexp
// renders them to the terminal / CSV; the top-level benchmarks time them.
//
// The experiment grids run on the internal/sweep worker pool (see
// Harness): cells execute concurrently, results merge in deterministic
// cell order, so every table and CSV is byte-identical to a serial run
// at any worker count.
//
// Absolute numbers differ from the paper's (the substrate is a simulated
// machine, not their Westmere testbed — see DESIGN.md); the assertions and
// EXPERIMENTS.md track the *shape*: who wins, by what factor, and where
// speedups saturate.
package experiments

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"time"

	"prophet"
	"prophet/internal/clock"
	"prophet/internal/ff"
	"prophet/internal/memmodel"
	"prophet/internal/obs"
	"prophet/internal/report"
	"prophet/internal/sim"
	"prophet/internal/stats"
	"prophet/internal/sweep"
	"prophet/internal/trace"
	"prophet/internal/tree"
	"prophet/internal/workloads"
)

// Config parameterizes the harness.
type Config struct {
	// Machine is the simulated machine (zero = the paper's 12-core).
	Machine sim.Config
	// Cores is the thread-count sweep (default 2..12 step 2).
	Cores []int
	// Samples is the number of random Test1/Test2 programs for the
	// Fig. 11 validation (the paper uses 300 per case).
	Samples int
	// Seed drives sample generation.
	Seed int64
	// Workers bounds the sweep worker pool: 0 selects GOMAXPROCS, 1
	// runs serially. Output is identical at every setting.
	Workers int
	// FailFast cancels the remainder of a sweep when any cell errors:
	// in-flight cells drain, unclaimed cells are marked Skipped.
	FailFast bool
	// Metrics, when set, aggregates observability across the harness:
	// pipeline stage wall times (stage.*), DES counters from every
	// machine run (sim.*), profile-cache traffic (cache.*) and sweep
	// cell outcomes (sweep.*). Nil disables metrics at no cost.
	Metrics *obs.Registry
}

func (c Config) withDefaults() Config {
	if c.Cores == nil {
		c.Cores = prophet.DefaultThreadCounts()
	}
	if c.Samples <= 0 {
		c.Samples = 300
	}
	if c.Seed == 0 {
		c.Seed = 20120521 // IPDPS'12 started May 21, 2012
	}
	return c
}

// Fig4 returns the program tree of the paper's running example (§IV-A)
// rendered as text, profiled from the annotated code of Fig. 4.
func Fig4() string {
	prog := func(ctx trace.Context) {
		ctx.SecBegin("loop1")
		ctx.TaskBegin("t1")
		ctx.Compute(10, 0)
		ctx.LockBegin(1)
		ctx.Compute(20, 0)
		ctx.LockEnd(1)
		ctx.Compute(20, 0)
		ctx.TaskEnd()
		ctx.TaskBegin("t1")
		ctx.Compute(25, 0)
		ctx.LockBegin(1)
		ctx.Compute(25, 0)
		ctx.LockEnd(1)
		ctx.SecBegin("loop2")
		for _, c := range []int64{50, 50, 50, 40} {
			ctx.TaskBegin("t2")
			ctx.Compute(c, 0)
			ctx.TaskEnd()
		}
		ctx.SecEnd(true)
		ctx.Compute(10, 0)
		ctx.TaskEnd()
		ctx.SecEnd(true)
	}
	p, err := prophet.ProfileProgramCtx(context.Background(), prog, &prophet.Options{
		CompressTolerance:  -1,
		DisableMemoryModel: true,
	})
	if err != nil {
		return "error: " + err.Error()
	}
	return p.Tree.String()
}

// figure5Tree is the Fig. 5 example loop.
func figure5Tree() *tree.Node {
	i0 := tree.NewTask("i0", tree.NewU(150), tree.NewL(1, 450), tree.NewU(50))
	i1 := tree.NewTask("i1", tree.NewU(100), tree.NewL(1, 300), tree.NewU(200))
	i2 := tree.NewTask("i2", tree.NewU(150), tree.NewU(50), tree.NewU(50))
	return tree.NewRoot(tree.NewSec("loop", i0, i1, i2))
}

// Fig5 reproduces the Fig. 5 walkthrough: three schedules on a dual-core,
// FF-predicted makespans and speedups with zero parallel overhead.
func Fig5() (*report.Table, error) {
	root := figure5Tree()
	t := report.NewTable("Fig. 5 — FF schedule walkthrough (3 iterations + lock, 2 cores)",
		"schedule", "emulated cycles", "speedup", "paper")
	paper := map[string]string{"(static,1)": "1.30", "(static)": "1.20", "(dynamic,1)": "1.58 (incl. overhead ε)"}
	for _, sched := range []prophet.Sched{prophet.Static1, prophet.Static, prophet.Dynamic1} {
		est, err := zeroOverheadFF(root, 2, sched)
		if err != nil {
			return nil, err
		}
		t.AddRow(sched.String(),
			fmt.Sprintf("%d", est.time),
			fmt.Sprintf("%.2f", est.speedup),
			paper[sched.String()])
	}
	return t, nil
}

// Fig7 reproduces the §IV-D limitation story: the two-level nested loop
// where the FF and Suitability predict 1.5x, the synthesizer and the real
// run give 2.0x. Its four runs poll the harness context; the first
// failure is returned instead of a table.
func (h *Harness) Fig7() (*report.Table, error) {
	scale := clock.Cycles(20_000)
	la := tree.NewSec("LoopA",
		tree.NewTask("a0", tree.NewU(10*scale)),
		tree.NewTask("a1", tree.NewU(5*scale)))
	lb := tree.NewSec("LoopB",
		tree.NewTask("b0", tree.NewU(5*scale)),
		tree.NewTask("b1", tree.NewU(10*scale)))
	root := tree.NewRoot(tree.NewSec("Loop1",
		tree.NewTask("t0", la), tree.NewTask("t1", lb)))

	mc := h.cfg.Machine
	mc.Cores = 2
	p, err := prophet.ProfileTreeCtx(h.ctx, root, &prophet.Options{
		Machine: mc, DisableMemoryModel: true, CompressTolerance: -1,
	})
	if err != nil {
		return nil, err
	}
	real, err := p.RealSpeedupCtx(h.ctx, prophet.Request{Threads: 2, Sched: prophet.Static1})
	if err != nil {
		return nil, err
	}
	t := report.NewTable("Fig. 7 — two-level nested loop, dual core (paper: real 2.0, FF/Suitability 1.5)",
		"method", "speedup")
	t.AddRow("Real (machine)", fmt.Sprintf("%.2f", real))
	for _, r := range []struct {
		name string
		req  prophet.Request
	}{
		{"FF", prophet.Request{Method: prophet.FastForward, Threads: 2, Sched: prophet.Static1}},
		{"Suitability", prophet.Request{Method: prophet.Suitability, Threads: 2}},
		{"Synthesizer", prophet.Request{Method: prophet.Synthesizer, Threads: 2, Sched: prophet.Static1}},
	} {
		est, err := p.EstimateCtx(h.ctx, r.req)
		if err != nil {
			return nil, err
		}
		t.AddRow(r.name, fmt.Sprintf("%.2f", est.Speedup))
	}
	return t, nil
}

// zeroOverheadFF runs the FF with ε = 0 (for the hand-computed Fig. 5
// numbers).
type ffOut struct {
	time    clock.Cycles
	speedup float64
}

func zeroOverheadFF(root *tree.Node, threads int, sched prophet.Sched) (ffOut, error) {
	e := &ff.Emulator{Threads: threads, Sched: sched}
	t, err := e.PredictTimeCtx(context.Background(), root)
	if err != nil {
		return ffOut{}, err
	}
	// One FF run gives both numbers: speedup is serial / emulated time.
	return ffOut{time: t, speedup: float64(root.TotalLen()) / float64(t)}, nil
}

// Fig11Case is one validation panel of Fig. 11.
type Fig11Case struct {
	Name    string // e.g. "Test1, 8 core, FF"
	Acc     map[string]*stats.Accumulator
	Scatter *report.Scatter
}

// Fig11Result bundles the validation output.
type Fig11Result struct {
	Summary *report.Table
	Cases   []*Fig11Case
	// Failed counts samples whose cell failed (a worker panic is
	// isolated to its cell and reported here instead of killing the
	// sweep).
	Failed int
	// Skipped counts samples whose cell never ran because the harness
	// context was canceled (or a FailFast sweep had already failed). A
	// nonzero count marks the result as partial.
	Skipped int
}

var fig11Scheds = []prophet.Sched{prophet.Static1, prophet.Static, prophet.Dynamic1}

// fig11Panels are the paper's six validation panel configurations.
var fig11Panels = []struct {
	name   string
	test2  bool
	cores  int
	method prophet.Method
}{
	{"Test1, 8-core, FF", false, 8, prophet.FastForward},
	{"Test1, 12-core, FF", false, 12, prophet.FastForward},
	{"Test2, 8-core, FF", true, 8, prophet.FastForward},
	{"Test2, 12-core, FF", true, 12, prophet.FastForward},
	{"Test2, 12-core, SYN", true, 12, prophet.Synthesizer},
	{"Test2, 4-core, Suitability", true, 4, prophet.Suitability},
}

// Fig11 reproduces the §VII-B validation: random Test1/Test2 samples,
// FF/synthesizer/Suitability predictions versus real machine runs, per
// schedule, at the paper's panel configurations:
//
//	(a) Test1 8-core FF    (b) Test1 12-core FF
//	(c) Test2 8-core FF    (d) Test2 12-core FF
//	(e) Test2 12-core SYN  (f) Test2 4-core Suitability
//
// Sample parameters are drawn serially from cfg.Seed (so the sample set
// is identical at every worker count); each sample's profile→emulate
// pipeline then runs as one sweep cell, and results merge in sample
// order.
func (h *Harness) Fig11() Fig11Result {
	cfg := h.cfg

	rng := rand.New(rand.NewSource(cfg.Seed))
	type samplePair struct {
		t1 workloads.Test1Params
		t2 workloads.Test2Params
	}
	pairs := make([]samplePair, cfg.Samples)
	for s := range pairs {
		pairs[s].t1 = workloads.RandomTest1(rng)
		pairs[s].t2 = workloads.RandomTest2(rng)
	}

	cases := make([]*Fig11Case, len(fig11Panels))
	labels := make([]string, len(fig11Scheds))
	for i, s := range fig11Scheds {
		labels[i] = s.String()
	}
	for i, pn := range fig11Panels {
		cases[i] = &Fig11Case{
			Name:    pn.name,
			Acc:     map[string]*stats.Accumulator{},
			Scatter: report.NewScatter(pn.name, labels...),
		}
		for _, l := range labels {
			cases[i].Acc[l] = stats.NewAccumulator(true)
		}
	}

	type point struct{ pred, real float64 }
	type sampleOut struct {
		vals [][]point // [panel][schedule]
	}
	outs := sweep.RunCtx(h.ctx, h.eng, len(pairs), func(ctx context.Context, s int) (sampleOut, error) {
		var out sampleOut
		prof1, err := h.profileTest1(ctx, pairs[s].t1)
		if err != nil {
			return out, err
		}
		prof2, err := h.profileTest2(ctx, pairs[s].t2)
		if err != nil {
			return out, err
		}
		out.vals = make([][]point, len(fig11Panels))
		for i, pn := range fig11Panels {
			prof := prof1
			if pn.test2 {
				prof = prof2
			}
			out.vals[i] = make([]point, len(fig11Scheds))
			for si, sched := range fig11Scheds {
				real, err := prof.RealSpeedupCtx(ctx, prophet.Request{Threads: pn.cores, Sched: sched})
				if err != nil {
					return sampleOut{}, err
				}
				est, err := prof.EstimateCtx(ctx, prophet.Request{
					Method: pn.method, Threads: pn.cores, Sched: sched,
				})
				if err != nil {
					return sampleOut{}, err
				}
				out.vals[i][si] = point{est.Speedup, real}
			}
		}
		return out, nil
	})

	failed, skipped := 0, 0
	for _, o := range outs {
		if o.Skipped {
			skipped++
			continue
		}
		if o.Err != nil {
			failed++
			continue
		}
		for i := range fig11Panels {
			for si, sched := range fig11Scheds {
				pt := o.Value.vals[i][si]
				cases[i].Acc[sched.String()].Add(pt.pred, pt.real)
				cases[i].Scatter.Add(si, pt.pred, pt.real)
			}
		}
	}

	sum := report.NewTable(
		fmt.Sprintf("Fig. 11 — Test1/Test2 validation, %d random samples per case", cfg.Samples),
		"case", "schedule", "avg err", "max err", "within 20%")
	for _, c := range cases {
		for _, l := range labels {
			a := c.Acc[l]
			sum.AddRow(c.Name, l,
				fmt.Sprintf("%.1f%%", 100*a.AvgErr()),
				fmt.Sprintf("%.1f%%", 100*a.MaxErr()),
				fmt.Sprintf("%.0f%%", 100*a.FracWithin(0.20)))
		}
	}
	return Fig11Result{Summary: sum, Cases: cases, Failed: failed, Skipped: skipped}
}

// Fig12 reproduces the benchmark predictions (Fig. 12; the NPB-FT panel is
// also the paper's Fig. 2): for each benchmark and core count, Real, Pred
// (synthesizer without memory model), PredM (with), and Suit.
//
// The (benchmark, cores) grid is sharded across the worker pool; the
// per-benchmark profile is computed once through the harness cache,
// whichever cell reaches it first, and the series are assembled in
// benchmark-then-cores order.
func (h *Harness) Fig12(names []string) []*report.Series {
	cfg := h.cfg
	if names == nil {
		names = workloads.Names()
	}
	var ws []*workloads.Workload
	for _, name := range names {
		w, err := workloads.ByName(name)
		if err != nil {
			continue
		}
		ws = append(ws, w)
	}

	type cellID struct{ w, c int }
	grid := make([]cellID, 0, len(ws)*len(cfg.Cores))
	for wi := range ws {
		for ci := range cfg.Cores {
			grid = append(grid, cellID{wi, ci})
		}
	}
	// cellOut holds one (benchmark, cores) point: Real, Pred, PredM, Suit.
	type cellOut [4]float64
	outs := sweep.RunCtx(h.ctx, h.eng, len(grid), func(ctx context.Context, i int) (cellOut, error) {
		var out cellOut
		id := grid[i]
		w := ws[id.w]
		prof, err := h.profileBench(ctx, w)
		if err != nil {
			return out, err
		}
		base := prophet.Request{Threads: cfg.Cores[id.c], Paradigm: w.Paradigm, Sched: w.Sched}
		if out[0], err = prof.RealSpeedupCtx(ctx, base); err != nil {
			return out, err
		}
		for k, req := range []prophet.Request{
			withMethod(base, prophet.Synthesizer, false),
			withMethod(base, prophet.Synthesizer, true),
			withMethod(base, prophet.Suitability, false),
		} {
			est, err := prof.EstimateCtx(ctx, req)
			if err != nil {
				return out, err
			}
			out[k+1] = est.Speedup
		}
		return out, nil
	})

	var out []*report.Series
	for wi, w := range ws {
		s := report.NewSeries(fmt.Sprintf("%s — %s", w.Name, w.Desc), "cores",
			"Real", "Pred", "PredM", "Suit")
		for ci, cores := range cfg.Cores {
			o := outs[wi*len(cfg.Cores)+ci]
			if o.Err != nil {
				continue
			}
			s.AddPoint(float64(cores), o.Value[:]...)
		}
		if len(s.X) > 0 {
			out = append(out, s)
		}
	}
	return out
}

func withMethod(r prophet.Request, m prophet.Method, mem bool) prophet.Request {
	r.Method = m
	r.MemoryModel = mem
	return r
}

// Table1 renders the qualitative tool-comparison matrix of Table I.
func Table1() *report.Table {
	t := report.NewTable("Table I — dynamic tools for speedup prediction",
		"tool", "input", "simple loops/locks", "imbalance", "inner-loop", "recursive", "memory-limited", "overhead")
	t.AddRow("Cilkview", "parallelized code", "yes", "yes", "yes", "yes", "no", "moderate")
	t.AddRow("Kismet", "unmodified serial", "yes", "limited", "limited", "limited", "limited (superlinear only)", "huge")
	t.AddRow("Suitability", "annotated serial", "yes", "limited", "limited", "limited", "no", "small")
	t.AddRow("Parallel Prophet", "annotated serial", "yes", "yes", "yes", "yes", "limited (contention only)", "small")
	return t
}

// Table3 measures the FF-versus-synthesizer trade-off of Table III on the
// real benchmarks: wall-clock cost per estimate and agreement with the
// machine ground truth at 8 threads. Benchmarks run as parallel cells
// (profiles come from the shared cache); the per-estimate wall-clock
// columns are measurements, so — unlike the speedup columns — they vary
// run to run.
func (h *Harness) Table3(names []string) *report.Table {
	if names == nil {
		names = []string{"MD-OMP", "NPB-EP", "NPB-CG"}
	}
	outs := sweep.RunCtx(h.ctx, h.eng, len(names), func(ctx context.Context, i int) ([]string, error) {
		w, err := workloads.ByName(names[i])
		if err != nil {
			return nil, err
		}
		prof, err := h.profileBench(ctx, w)
		if err != nil {
			return nil, err
		}
		base := prophet.Request{Threads: 8, Paradigm: w.Paradigm, Sched: w.Sched, MemoryModel: true}
		real, err := prof.RealSpeedupCtx(ctx, base)
		if err != nil {
			return nil, err
		}
		// timed returns the method's speedup and its wall time in ms.
		timed := func(m prophet.Method) (float64, float64, error) {
			start := time.Now()
			est, err := prof.EstimateCtx(ctx, withMethod(base, m, true))
			return est.Speedup, float64(time.Since(start).Microseconds()) / 1000, err
		}
		ffS, ffMS, err := timed(prophet.FastForward)
		if err != nil {
			return nil, err
		}
		synS, synMS, err := timed(prophet.Synthesizer)
		if err != nil {
			return nil, err
		}
		return []string{
			w.Name,
			fmt.Sprintf("%.2f", ffMS),
			fmt.Sprintf("%.2f", synMS),
			fmt.Sprintf("%.1f%%", 100*stats.RelErr(ffS, real)),
			fmt.Sprintf("%.1f%%", 100*stats.RelErr(synS, real)),
		}, nil
	})
	t := report.NewTable("Table III — FF vs synthesizer (8 threads)",
		"benchmark", "FF ms/estimate", "SYN ms/estimate", "FF err", "SYN err")
	for _, o := range outs {
		if o.Err == nil {
			t.AddRow(o.Value...)
		}
	}
	return t
}

// OverheadTable reports the §VI-B / §VII-D profiling costs: wall time,
// tree sizes before/after compression, and the hottest section's burden
// factor at 12 threads. Because the table *times profiling itself*, it
// bypasses the harness profile cache — every row is a fresh profile run
// (in its own sweep cell, so rows still progress concurrently).
func (h *Harness) OverheadTable(names []string) *report.Table {
	if names == nil {
		// NPB-IS joins the overhead table: §VI-B calls it out as the
		// compression stress case (10 GB tree before compression).
		names = append(workloads.Names(), "NPB-IS")
	}
	outs := sweep.RunCtx(h.ctx, h.eng, len(names), func(ctx context.Context, i int) ([]string, error) {
		w, err := workloads.ByName(names[i])
		if err != nil {
			return nil, err
		}
		start := time.Now()
		prof, err := prophet.ProfileProgramCtx(ctx, w.Program, h.benchOpts())
		if err != nil {
			return nil, err
		}
		ms := float64(time.Since(start).Microseconds()) / 1000
		beta := 1.0
		for _, sec := range prof.Tree.TopLevelSections() {
			if b := sec.BurdenFor(12); b > beta {
				beta = b
			}
		}
		return []string{
			w.Name,
			fmt.Sprintf("%.1f", ms),
			fmt.Sprintf("%d", prof.Compression.NodesBefore),
			fmt.Sprintf("%d", prof.Compression.NodesAfter),
			fmt.Sprintf("%.1f%%", 100*prof.Compression.Reduction()),
			fmt.Sprintf("%d", prof.Compression.BytesAfter),
			fmt.Sprintf("%.2f", beta),
		}, nil
	})
	t := report.NewTable("Profiling & compression overhead (§VI-B, §VII-D)",
		"benchmark", "profile ms", "nodes before", "nodes after", "reduction", "~bytes", "β12 (hottest)")
	for _, o := range outs {
		if o.Err == nil {
			t.AddRow(o.Value...)
		}
	}
	return t
}

// Calibration reproduces Eq. (6)/(7): it calibrates Ψ and Φ against the
// simulated machine and returns the fitted formulas plus the raw
// measurement series.
func Calibration(cfg Config) (string, []*report.Series) {
	cfg = cfg.withDefaults()
	m, data, err := memmodel.CalibrateCtx(context.Background(), cfg.Machine, cfg.Cores)
	if err != nil {
		return "calibration failed: " + err.Error(), nil
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Fitted against the simulated machine (paper Eq. 6/7 on Westmere):\n%s\n", m)
	fmt.Fprintf(&b, "Paper's Eq. (7) for reference: w = 101481 * d^-0.964\n")

	byThreads := map[int]*report.Series{}
	var order []int
	for _, p := range data.Points {
		s, ok := byThreads[p.Threads]
		if !ok {
			s = report.NewSeries(fmt.Sprintf("calibration t=%d", p.Threads),
				"serial MB/s", "per-thread MB/s", "omega cyc/miss")
			byThreads[p.Threads] = s
			order = append(order, p.Threads)
		}
		s.AddPoint(math.Round(p.SerialDelta), p.PerThreadDelta, p.Omega)
	}
	out := make([]*report.Series, 0, len(order))
	for _, t := range order {
		out = append(out, byThreads[t])
	}
	return b.String(), out
}
