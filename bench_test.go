// Benchmarks regenerating every table and figure of the paper (one bench
// per experiment, as indexed in DESIGN.md), plus ablation benches for the
// design choices the reproduction makes. Run with:
//
//	go test -bench=. -benchmem
//
// The benches exercise the same code paths as cmd/ppexp with reduced
// sample counts so a full sweep stays in benchmark-friendly time; use
// cmd/ppexp for the paper-scale runs.
package prophet_test

import (
	"context"
	"math/rand"
	"testing"

	"prophet"
	"prophet/internal/compress"
	"prophet/internal/experiments"
	"prophet/internal/ff"
	"prophet/internal/machine"
	"prophet/internal/memmodel"
	"prophet/internal/obs"
	"prophet/internal/omprt"
	"prophet/internal/realrun"
	"prophet/internal/sim"
	"prophet/internal/synth"
	"prophet/internal/trace"
	"prophet/internal/tree"
	"prophet/internal/workloads"
)

// benchSpec is the paper machine with a 10k-cycle quantum and free
// context switches, built once so every benchmark shares its calibration.
var benchSpec = func() *machine.Spec {
	s := machine.Default().WithCores("bench-q10k", 12)
	s.Quantum, s.ContextSwitch = 10_000, 0
	return s
}()

func benchMachine() sim.Config { return sim.Config{Spec: benchSpec} }

// mustSim runs main on a machine built from cfg, failing the benchmark on
// a simulation error.
func mustSim(b *testing.B, cfg sim.Config, main func(*sim.Thread)) (prophet.Cycles, sim.Stats) {
	b.Helper()
	end, st, err := sim.Run(context.Background(), cfg, sim.RunOpts{}, main)
	if err != nil {
		b.Fatal(err)
	}
	return end, st
}

// BenchmarkFig4Tree profiles the paper's §IV-A running example into its
// program tree (Fig. 4).
func BenchmarkFig4Tree(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if out := experiments.Fig4(); len(out) == 0 {
			b.Fatal("empty tree")
		}
	}
}

// BenchmarkFig5FF regenerates the Fig. 5 schedule walkthrough.
func BenchmarkFig5FF(b *testing.B) {
	h := experiments.NewCtx(context.Background(), experiments.Config{})
	for i := 0; i < b.N; i++ {
		if t, err := h.Fig5(); err != nil || len(t.Rows) != 3 {
			b.Fatalf("bad table (%v)", err)
		}
	}
}

// BenchmarkFig7 regenerates the nested-loop limitation comparison
// (FF vs Suitability vs synthesizer vs real).
func BenchmarkFig7(b *testing.B) {
	h := experiments.NewCtx(context.Background(), experiments.Config{Machine: benchMachine()})
	for i := 0; i < b.N; i++ {
		if t, err := h.Fig7(); err != nil || len(t.Rows) != 4 {
			b.Fatalf("bad table (%v)", err)
		}
	}
}

// BenchmarkFig11Validation runs the Test1/Test2 validation (Fig. 11) at a
// reduced sample count per iteration.
func BenchmarkFig11Validation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.NewCtx(context.Background(), experiments.Config{
			Machine: benchMachine(), Samples: 2, Seed: int64(i + 1),
		}).Fig11()
		if len(res.Cases) != 6 {
			b.Fatal("bad result")
		}
	}
}

// BenchmarkFig12Benchmarks regenerates two Fig. 12 panels (EP and FT — the
// FT panel is also Fig. 2) at the sweep's endpoints.
func BenchmarkFig12Benchmarks(b *testing.B) {
	cfg := experiments.Config{Machine: benchMachine(), Cores: []int{2, 12}}
	for i := 0; i < b.N; i++ {
		s := experiments.NewCtx(context.Background(), cfg).Fig12([]string{"NPB-EP", "NPB-FT"})
		if len(s) != 2 {
			b.Fatal("bad series")
		}
	}
}

// BenchmarkPsiCalibration runs the Eq. (6)/(7) microbenchmark calibration.
func BenchmarkPsiCalibration(b *testing.B) {
	mc := benchMachine()
	for i := 0; i < b.N; i++ {
		m, _, err := memmodel.CalibrateCtx(context.Background(), mc, []int{2, 4, 8, 12})
		if err != nil || m.Phi.B >= 0 {
			b.Fatalf("calibration bad: %v", err)
		}
	}
}

// BenchmarkTable1 renders the qualitative comparison matrix.
func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if t := experiments.Table1(); len(t.Rows) != 4 {
			b.Fatal("bad table")
		}
	}
}

// BenchmarkTable3Overheads measures the FF-vs-synthesizer cost/accuracy
// table on one benchmark.
func BenchmarkTable3Overheads(b *testing.B) {
	cfg := experiments.Config{Machine: benchMachine()}
	for i := 0; i < b.N; i++ {
		if t := experiments.NewCtx(context.Background(), cfg).Table3([]string{"NPB-EP"}); len(t.Rows) != 1 {
			b.Fatal("bad table")
		}
	}
}

// BenchmarkProfilingOverhead measures interval profiling itself (§VII-D):
// one full profile of the MD benchmark per iteration.
func BenchmarkProfilingOverhead(b *testing.B) {
	w, _ := workloads.ByName("MD-OMP")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		root, _, err := trace.Profile(w.Program, machine.Default())
		if err != nil || root.TotalLen() == 0 {
			b.Fatal(err)
		}
	}
}

// BenchmarkCompression measures §VI-B compression on a CG-shaped tree
// (many nearly identical iterations).
func BenchmarkCompression(b *testing.B) {
	build := func() *tree.Node {
		rng := rand.New(rand.NewSource(1))
		tasks := make([]*tree.Node, 20_000)
		for i := range tasks {
			l := 1000.0 * (0.98 + 0.04*rng.Float64())
			tasks[i] = tree.NewTask("t", tree.NewU(prophet.Cycles(l)))
		}
		return tree.NewRoot(tree.NewSec("cg", tasks...))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		root := build()
		b.StartTimer()
		st := compress.Compress(root, compress.DefaultTolerance)
		if st.Reduction() < 0.9 {
			b.Fatalf("reduction %f", st.Reduction())
		}
	}
}

// BenchmarkCompressProfiled compresses raw profiled trees of the two
// largest benchmarks, LU-OMP (262,144 nodes) and NPB-FT (197,129). Unlike
// the flat tree above, they nest Sec/Task levels, so a cost that grows
// with tree depth shows here. Each iteration profiles a fresh tree
// outside the timer.
func BenchmarkCompressProfiled(b *testing.B) {
	for _, name := range []string{"LU-OMP", "NPB-FT"} {
		w, err := workloads.ByName(name)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				root, _, err := trace.Profile(w.Program, machine.Default())
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				st := compress.Compress(root, compress.DefaultTolerance)
				if st.Reduction() < 0.9 {
					b.Fatalf("reduction %f", st.Reduction())
				}
			}
		})
	}
}

// BenchmarkCompressionTolerance is the ablation for the 5% tolerance
// choice: it sweeps tolerances and reports nodes retained per run.
func BenchmarkCompressionTolerance(b *testing.B) {
	for _, tol := range []float64{0, 0.01, 0.05, 0.20} {
		tol := tol
		b.Run(benchName(tol), func(b *testing.B) {
			rng := rand.New(rand.NewSource(2))
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				tasks := make([]*tree.Node, 5_000)
				for j := range tasks {
					l := 1000.0 * (0.9 + 0.2*rng.Float64())
					tasks[j] = tree.NewTask("t", tree.NewU(prophet.Cycles(l)))
				}
				root := tree.NewRoot(tree.NewSec("s", tasks...))
				b.StartTimer()
				st := compress.Compress(root, tol)
				b.ReportMetric(float64(st.NodesAfter), "nodes")
			}
		})
	}
}

func benchName(tol float64) string {
	switch tol {
	case 0:
		return "tol=0"
	case 0.01:
		return "tol=1%"
	case 0.05:
		return "tol=5%"
	default:
		return "tol=20%"
	}
}

// BenchmarkFFEmulator measures one FF estimate on the profiled NPB-CG tree
// (Table III's "time overhead per estimate", FF column).
func BenchmarkFFEmulator(b *testing.B) {
	w, _ := workloads.ByName("NPB-CG")
	prof, err := prophet.ProfileProgramCtx(context.Background(), w.Program, &prophet.Options{Machine: benchMachine()})
	if err != nil {
		b.Fatal(err)
	}
	e := &ff.Emulator{Threads: 8, Sched: omprt.SchedStatic, Ov: omprt.DefaultOverheads()}
	b.ReportAllocs()
	b.ResetTimer()
	ctx := context.Background()
	for i := 0; i < b.N; i++ {
		if s, err := e.SpeedupCtx(ctx, prof.Tree); err != nil || s <= 0 {
			b.Fatalf("bad speedup (%v)", err)
		}
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "estimates/sec")
}

// BenchmarkFFEmulatorHeap measures one FF estimate on a section the
// closed form does not cover: a Fig. 9 Test1 loop with two critical
// sections, so every segment is a pseudo-clock heap step.
func BenchmarkFFEmulatorHeap(b *testing.B) {
	prm := workloads.Test1Params{
		Iters: 200, Pattern: workloads.PatternUniform, MinWork: 10_000, MaxWork: 60_000,
		Ratio1: 0.5, RatioLock1: 0.3, Ratio2: 0.4, RatioLock2: 0.2, Ratio3: 0.3,
		Lock1Prob: 0.8, Lock2Prob: 0.5, Seed: 9,
	}
	prof, err := prophet.ProfileProgramCtx(context.Background(), prm.Program(), &prophet.Options{Machine: benchMachine()})
	if err != nil {
		b.Fatal(err)
	}
	e := &ff.Emulator{Threads: 8, Sched: omprt.SchedStatic1, Ov: omprt.DefaultOverheads()}
	b.ReportAllocs()
	b.ResetTimer()
	ctx := context.Background()
	for i := 0; i < b.N; i++ {
		if s, err := e.SpeedupCtx(ctx, prof.Tree); err != nil || s <= 0 {
			b.Fatalf("bad speedup (%v)", err)
		}
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "estimates/sec")
}

// BenchmarkSynthesizer measures one synthesizer estimate on the same tree
// (Table III, SYN column).
func BenchmarkSynthesizer(b *testing.B) {
	w, _ := workloads.ByName("NPB-CG")
	prof, err := prophet.ProfileProgramCtx(context.Background(), w.Program, &prophet.Options{Machine: benchMachine()})
	if err != nil {
		b.Fatal(err)
	}
	s := &synth.Synthesizer{Threads: 8, Sched: omprt.SchedStatic, Machine: benchMachine(), OmpOv: omprt.DefaultOverheads()}
	b.ResetTimer()
	ctx := context.Background()
	for i := 0; i < b.N; i++ {
		if sp, err := s.SpeedupCtx(ctx, prof.Tree); err != nil || sp <= 0 {
			b.Fatalf("bad speedup (%v)", err)
		}
	}
}

// BenchmarkSimEngine is the ablation for the engine-serialized virtual
// thread design: raw event throughput of the discrete-event machine.
func BenchmarkSimEngine(b *testing.B) {
	b.ReportAllocs()
	var events int64
	for i := 0; i < b.N; i++ {
		_, st := mustSim(b, benchMachine(), func(t *sim.Thread) {
			ws := make([]*sim.Thread, 0, 24)
			for k := 0; k < 24; k++ {
				ws = append(ws, t.Spawn(func(w *sim.Thread) {
					for j := 0; j < 50; j++ {
						w.Work(5_000)
					}
				}))
			}
			for _, w := range ws {
				t.Join(w)
			}
		})
		events += st.Events
	}
	b.ReportMetric(float64(events)/float64(b.N), "events/op")
	b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/sec")
}

// BenchmarkSimEngineSpec is the same workload on the paper machine's own
// 50k-cycle quantum (free context switches): the spec→machine derivation
// and the pooled spec-keyed reset must sustain the engine's event
// throughput. CI gates the reported events/sec.
func BenchmarkSimEngineSpec(b *testing.B) {
	b.ReportAllocs()
	spec := machine.Default().WithCores("bench-freecs", 12)
	spec.ContextSwitch = 0
	cfg := sim.Config{Spec: spec}
	var events int64
	for i := 0; i < b.N; i++ {
		_, st := mustSim(b, cfg, func(t *sim.Thread) {
			ws := make([]*sim.Thread, 0, 24)
			for k := 0; k < 24; k++ {
				ws = append(ws, t.Spawn(func(w *sim.Thread) {
					for j := 0; j < 50; j++ {
						w.Work(5_000)
					}
				}))
			}
			for _, w := range ws {
				t.Join(w)
			}
		})
		events += st.Events
	}
	b.ReportMetric(float64(events)/float64(b.N), "events/op")
	b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/sec")
}

// BenchmarkDRAMContention is the ablation for the fluid bandwidth-sharing
// model: the traffic-saturation sweep behind the Ψ curves.
func BenchmarkDRAMContention(b *testing.B) {
	for _, threads := range []int{1, 4, 8, 12} {
		threads := threads
		b.Run(map[int]string{1: "t=1", 4: "t=4", 8: "t=8", 12: "t=12"}[threads], func(b *testing.B) {
			mc := benchMachine()
			for i := 0; i < b.N; i++ {
				end, _ := mustSim(b, mc, func(t *sim.Thread) {
					ws := make([]*sim.Thread, 0, threads-1)
					body := func(w *sim.Thread) { w.WorkMem(0, 10_000) }
					for k := 1; k < threads; k++ {
						ws = append(ws, t.Spawn(body))
					}
					body(t)
					for _, w := range ws {
						t.Join(w)
					}
				})
				if end <= 0 {
					b.Fatal("no time")
				}
			}
		})
	}
}

// BenchmarkRealGroundTruth measures one ground-truth machine run of NPB-EP
// at 12 threads (the cost basis for the evaluation harness).
func BenchmarkRealGroundTruth(b *testing.B) {
	w, _ := workloads.ByName("NPB-EP")
	prof, err := prophet.ProfileProgramCtx(context.Background(), w.Program, &prophet.Options{Machine: benchMachine()})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := mustReal(b, prof, prophet.Request{Threads: 12, Sched: w.Sched})
		if s < 1 {
			b.Fatal("bad speedup")
		}
	}
}

// BenchmarkRealLUOMP12 measures one ground-truth machine run of LU-OMP at
// 12 threads on the default machine: ROADMAP item 9's engine-cost target
// (≤ 50 ms per run). It also reports the run's DES events.
func BenchmarkRealLUOMP12(b *testing.B) {
	w, _ := workloads.ByName("LU-OMP")
	reg := &prophet.Metrics{}
	prof, err := prophet.ProfileProgramCtx(context.Background(), w.Program, &prophet.Options{Observer: prophet.Observer{Metrics: reg}})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if s := mustReal(b, prof, prophet.Request{Threads: 12, Sched: w.Sched}); s < 1 {
			b.Fatal("bad speedup")
		}
	}
	b.ReportMetric(float64(reg.Counter(obs.MSimEvents).Value())/float64(b.N), "events/op")
}

// BenchmarkQuantumSensitivity is the ablation for the OS time-slice
// choice: the Fig. 7 ground truth as a function of the scheduling quantum.
// Coarser quanta approach the FF's non-preemptive 1.5x; finer quanta
// approach the ideal 2.0x.
func BenchmarkQuantumSensitivity(b *testing.B) {
	scale := prophet.Cycles(20_000)
	la := tree.NewSec("LoopA",
		tree.NewTask("a0", tree.NewU(10*scale)),
		tree.NewTask("a1", tree.NewU(5*scale)))
	lb := tree.NewSec("LoopB",
		tree.NewTask("b0", tree.NewU(5*scale)),
		tree.NewTask("b1", tree.NewU(10*scale)))
	root := tree.NewRoot(tree.NewSec("Loop1",
		tree.NewTask("t0", la), tree.NewTask("t1", lb)))
	for _, q := range []prophet.Cycles{5_000, 50_000, 200_000} {
		q := q
		name := map[prophet.Cycles]string{5_000: "q=5k", 50_000: "q=50k", 200_000: "q=200k"}[q]
		b.Run(name, func(b *testing.B) {
			spec := machine.Default().WithCores("bench-"+name, 2)
			spec.Quantum, spec.ContextSwitch = q, 0
			mc := sim.Config{Spec: spec}
			for i := 0; i < b.N; i++ {
				s, err := realrun.SpeedupCtx(context.Background(), root, realrun.Config{Machine: mc, Threads: 2, Sched: omprt.SchedStatic1})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(s, "speedup")
			}
		})
	}
}
