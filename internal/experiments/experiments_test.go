package experiments

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"prophet"
	"prophet/internal/machine"
	"prophet/internal/obs"
	"prophet/internal/sim"
	"prophet/internal/stats"
)

// fastMachine keeps experiment tests quick and exact: the paper machine
// with a 10k-cycle quantum and free context switches.
func fastMachine() sim.Config {
	s := machine.Default().WithCores("t-experiments", 12)
	s.Quantum, s.ContextSwitch = 10_000, 0
	return sim.Config{Spec: s}
}

// harness is a harness for cfg that is never canceled.
func harness(cfg Config) *Harness { return NewCtx(context.Background(), cfg) }

func TestFig4TreeDump(t *testing.T) {
	s := Fig4()
	for _, want := range []string{"Sec \"loop1\" total=300", "Sec \"loop2\" total=190", "L 25 lock=1"} {
		if !strings.Contains(s, want) {
			t.Errorf("Fig4 output missing %q:\n%s", want, s)
		}
	}
}

func TestFig5PaperNumbers(t *testing.T) {
	tb, err := harness(Config{}).Fig5()
	if err != nil {
		t.Fatal(err)
	}
	out := tb.String()
	// The three emulated makespans from the paper's walkthrough (ε=0).
	for _, want := range []string{"1150", "1250", "900"} {
		if !strings.Contains(out, want) {
			t.Errorf("Fig5 missing makespan %s:\n%s", want, out)
		}
	}
}

// TestFig5Canceled: the Fig. 5 FF runs poll the harness context, so a
// canceled harness returns the cancellation instead of a table.
func TestFig5Canceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	tb, err := NewCtx(ctx, Config{}).Fig5()
	if !errors.Is(err, context.Canceled) || tb != nil {
		t.Fatalf("Fig5 = %v, %v; want only context.Canceled", tb, err)
	}
}

func TestFig7Shape(t *testing.T) {
	tb, err := harness(Config{Machine: fastMachine()}).Fig7()
	if err != nil {
		t.Fatal(err)
	}
	out := tb.String()
	if !strings.Contains(out, "FF") || !strings.Contains(out, "Synthesizer") {
		t.Fatalf("Fig7 table incomplete:\n%s", out)
	}
	// With calibrated overheads the FF lands near the paper's idealized
	// 1.5 while real and synthesizer reach ~2.
	var ffS, synS, realS float64
	for _, row := range tb.Rows {
		var v float64
		fmt.Sscanf(row[1], "%f", &v)
		switch row[0] {
		case "FF":
			ffS = v
		case "Synthesizer":
			synS = v
		case "Real (machine)":
			realS = v
		}
	}
	if ffS < 1.35 || ffS > 1.6 {
		t.Errorf("Fig7 FF prediction %.2f, want ~1.5:\n%s", ffS, out)
	}
	if realS < 1.85 || synS < 1.85 {
		t.Errorf("Fig7 real %.2f / synthesizer %.2f, want ~2.0:\n%s", realS, synS, out)
	}
}

// TestFig7SpecHarnessMatchesZero: Fig. 7 runs on a dual-core cut of the
// harness machine, so a harness built on the default spec prints the same
// table as the zero harness (whose nil spec is that machine).
func TestFig7SpecHarnessMatchesZero(t *testing.T) {
	render := func(mc sim.Config) string {
		tb, err := harness(Config{Machine: mc}).Fig7()
		if err != nil {
			t.Fatal(err)
		}
		return tb.String()
	}
	zero, spec := render(sim.Config{}), render(sim.Config{Spec: machine.Default()})
	if zero != spec {
		t.Errorf("Fig7 differs by harness machine spelling:\nzero harness:\n%s\nspec harness:\n%s", zero, spec)
	}
}

// TestFig11SmallSample runs the validation with a reduced sample count and
// checks the paper's qualitative claims: the FF is accurate on Test1, the
// synthesizer is accurate on Test2, and Suitability is visibly worse on
// Test2 than the synthesizer.
func TestFig11SmallSample(t *testing.T) {
	if testing.Short() {
		t.Skip("validation sweep is slow")
	}
	res := harness(Config{Machine: fastMachine(), Samples: 12, Seed: 7}).Fig11()
	get := func(name string) map[string]*stats.Accumulator {
		for _, c := range res.Cases {
			if c.Name == name {
				return c.Acc
			}
		}
		t.Fatalf("case %q missing", name)
		return nil
	}
	t1ff := get("Test1, 8-core, FF")
	for sched, acc := range t1ff {
		if acc.N() == 0 {
			t.Fatalf("no samples for %s", sched)
		}
		if acc.AvgErr() > 0.10 {
			t.Errorf("Test1 FF %s avg err %.1f%%, paper reports <4%%", sched, 100*acc.AvgErr())
		}
	}
	syn := get("Test2, 12-core, SYN")
	suit := get("Test2, 4-core, Suitability")
	var synAvg, suitAvg float64
	for _, acc := range syn {
		synAvg += acc.AvgErr()
	}
	for _, acc := range suit {
		suitAvg += acc.AvgErr()
	}
	synAvg /= float64(len(syn))
	suitAvg /= float64(len(suit))
	if synAvg > 0.12 {
		t.Errorf("Test2 synthesizer avg err %.1f%%, paper reports ~3%%", 100*synAvg)
	}
	if suitAvg <= synAvg {
		t.Errorf("Suitability (%.1f%%) should be worse than synthesizer (%.1f%%) on Test2",
			100*suitAvg, 100*synAvg)
	}
	// Scatter data present for every case.
	for _, c := range res.Cases {
		pts := 0
		for _, class := range c.Scatter.Points {
			pts += len(class)
		}
		if pts == 0 {
			t.Errorf("%s: empty scatter", c.Name)
		}
	}
	if res.Summary == nil || len(res.Summary.Rows) != 18 {
		t.Errorf("summary rows = %d, want 18 (6 cases x 3 schedules)", len(res.Summary.Rows))
	}
}

// TestFig12ShapeEPvsFT checks the headline memory-model result on the two
// extreme benchmarks: EP scales linearly and Pred≈PredM≈Real; FT saturates
// and PredM tracks Real while Pred overestimates (the paper's Fig. 2).
func TestFig12ShapeEPvsFT(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark sweep is slow")
	}
	series := harness(Config{Machine: fastMachine(), Cores: []int{2, 12}}).Fig12([]string{"NPB-EP", "NPB-FT"})
	if len(series) != 2 {
		t.Fatalf("series = %d", len(series))
	}
	col := func(s int, name string) []float64 {
		for j, c := range series[s].Cols {
			if c == name {
				out := make([]float64, len(series[s].Y))
				for i := range series[s].Y {
					out[i] = series[s].Y[i][j]
				}
				return out
			}
		}
		t.Fatalf("column %s missing", name)
		return nil
	}
	// EP at 12 cores: everything near 12.
	epReal := col(0, "Real")
	epPredM := col(0, "PredM")
	if epReal[1] < 10.5 || epPredM[1] < 10.5 {
		t.Errorf("EP not scaling: real %.1f predM %.1f", epReal[1], epPredM[1])
	}
	// FT at 12 cores: real saturates well below 12; PredM within 30% of
	// real; Pred overestimates real.
	ftReal := col(1, "Real")
	ftPred := col(1, "Pred")
	ftPredM := col(1, "PredM")
	if ftReal[1] > 8 {
		t.Errorf("FT real speedup %.1f did not saturate", ftReal[1])
	}
	if ftPred[1] <= ftReal[1] {
		t.Errorf("FT Pred %.1f should overestimate real %.1f (paper Fig. 2)", ftPred[1], ftReal[1])
	}
	if e := stats.RelErr(ftPredM[1], ftReal[1]); e > 0.30 {
		t.Errorf("FT PredM %.1f vs real %.1f: err %.0f%% (paper: within ~30%%)", ftPredM[1], ftReal[1], 100*e)
	}
}

func TestTable1Static(t *testing.T) {
	out := Table1().String()
	for _, tool := range []string{"Cilkview", "Kismet", "Suitability", "Parallel Prophet"} {
		if !strings.Contains(out, tool) {
			t.Errorf("Table I missing %s", tool)
		}
	}
}

func TestTable3AndOverhead(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	t3 := harness(Config{Machine: fastMachine()}).Table3([]string{"NPB-EP"})
	if len(t3.Rows) != 1 {
		t.Fatalf("Table3 rows = %d", len(t3.Rows))
	}
	ov := harness(Config{Machine: fastMachine()}).OverheadTable([]string{"NPB-EP", "NPB-FT"})
	if len(ov.Rows) != 2 {
		t.Fatalf("overhead rows = %d", len(ov.Rows))
	}
	out := ov.String()
	if !strings.Contains(out, "%") {
		t.Errorf("overhead table missing reductions:\n%s", out)
	}
}

func TestCalibrationReport(t *testing.T) {
	text, series, err := harness(Config{Machine: fastMachine(), Cores: []int{2, 4, 8, 12}}).Calibration()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text, "Phi") || !strings.Contains(text, "101481") {
		t.Errorf("calibration text incomplete:\n%s", text)
	}
	if len(series) < 4 {
		t.Errorf("calibration series = %d", len(series))
	}
}

// TestCalibrationFitsTheLadder: the printed model is the one predictions
// use, fitted on memmodel.Ladder of the requested thread counts, so asking
// for {2, 4} prints the model of the full ladder 2, 4, …, 12.
func TestCalibrationFitsTheLadder(t *testing.T) {
	fit := func(cores []int) string {
		text, _, err := harness(Config{Machine: fastMachine(), Cores: cores}).Calibration()
		if err != nil {
			t.Fatal(err)
		}
		return text
	}
	if got, want := fit([]int{2, 4}), fit([]int{2, 4, 6, 8, 10, 12}); got != want {
		t.Errorf("-cores 2,4 fits\n%s\nwant the ladder's\n%s", got, want)
	}
}

// TestCalibrationCanceled: calibration polls the harness context and
// returns its error instead of printing it as a result.
func TestCalibrationCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	text, series, err := NewCtx(ctx, Config{Machine: fastMachine()}).Calibration()
	if !errors.Is(err, context.Canceled) || text != "" || series != nil {
		t.Fatalf("Calibration = %q, %d series, %v; want only context.Canceled", text, len(series), err)
	}
}

// TestScheduleRanking: the tool's interactive use case — picking the right
// schedule. The FF must identify the (near-)best schedule for the vast
// majority of Test1 programs.
func TestScheduleRanking(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	tb := harness(Config{Machine: fastMachine(), Samples: 25, Seed: 13}).ScheduleRanking()
	if len(tb.Rows) != 3 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	for _, row := range tb.Rows {
		var pct float64
		fmt.Sscanf(row[1], "%f%%", &pct)
		if pct < 85 {
			t.Errorf("cores=%s: best-schedule accuracy %.0f%%, want >= 85%%", row[0], pct)
		}
	}
}

// TestMachineMatrix checks the machine-preset matrix on a memory-bound
// benchmark: the asymmetric preset (half the cores at half speed) lands
// below westmere12 at full thread count, the HBM preset above it, and
// every cell is a parseable speedup.
func TestMachineMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark sweep is slow")
	}
	h := harness(Config{Machine: fastMachine(), Cores: []int{8}})
	tab := h.MachineMatrix([]string{"NPB-CG"}, []string{"westmere12", "embedded4+4", "hbm12"})
	if len(tab.Rows) != 1 {
		t.Fatalf("rows = %d, want 1", len(tab.Rows))
	}
	row := tab.Rows[0]
	if len(row) != 5 {
		t.Fatalf("row width = %d, want benchmark+cores+3 machines: %v", len(row), row)
	}
	sp := make([]float64, 3)
	for i := range sp {
		if _, err := fmt.Sscanf(row[2+i], "%f", &sp[i]); err != nil || sp[i] <= 1 {
			t.Fatalf("cell %q is not a speedup > 1: %v", row[2+i], err)
		}
	}
	west, emb, hbm := sp[0], sp[1], sp[2]
	if emb >= west {
		t.Errorf("embedded4+4 %.2f should trail westmere12 %.2f at 8 threads", emb, west)
	}
	if hbm <= west {
		t.Errorf("hbm12 %.2f should beat westmere12 %.2f on a bandwidth-bound benchmark", hbm, west)
	}
}

// TestFailedCellsAreReportedNotZero: on a machine whose watchdog budget
// no run can meet, every emulation and ground-truth run fails. Each
// failure must become its cell's sweep error — counted in
// sweep.cells_failed and dropped from the output — never a printed 0×.
func TestFailedCellsAreReportedNotZero(t *testing.T) {
	mc := fastMachine()
	mc.MaxEvents = 20
	reg := &obs.Registry{}
	h := harness(Config{Machine: mc, Cores: []int{2, 4}, Samples: 2, Seed: 7, Metrics: reg})
	failed := reg.Counter(obs.MSweepCellsFailed)

	if res := h.Fig11(); res.Failed != 2 {
		t.Errorf("Fig11: %d failed samples, want 2", res.Failed)
	}
	if series := h.Fig12([]string{"NPB-EP"}); len(series) != 0 {
		t.Errorf("Fig12 printed %d panels from failed cells", len(series))
	}
	if tb := h.Table3([]string{"NPB-EP", "NO-SUCH-BENCH"}); len(tb.Rows) != 0 {
		t.Errorf("Table3 printed rows from failed cells: %v", tb.Rows)
	}
	if tb := h.ScheduleRanking(); len(tb.Rows) != 0 {
		t.Errorf("ScheduleRanking printed rows from failed cells: %v", tb.Rows)
	}
	// Fig11 2 + Fig12 2 + Table3 2 + ranking 2.
	if got := failed.Value(); got != 8 {
		t.Errorf("sweep.cells_failed = %d, want 8", got)
	}
	if tb := h.MachineMatrix([]string{"NPB-EP"}, []string{"westmere12"}); tb.Rows[0][2] != "-" {
		t.Errorf("MachineMatrix failed cell rendered %q, want -", tb.Rows[0][2])
	}
	if _, err := h.Fig7(); !errors.Is(err, prophet.ErrBudgetExceeded) {
		t.Errorf("Fig7 err = %v, want ErrBudgetExceeded", err)
	}
}

// TestOverheadTableUnknownBenchmarkFails: an unknown name is a failed
// row, not a silent gap in an otherwise successful table.
func TestOverheadTableUnknownBenchmarkFails(t *testing.T) {
	reg := &obs.Registry{}
	h := harness(Config{Machine: fastMachine(), Metrics: reg})
	if tb := h.OverheadTable([]string{"NO-SUCH-BENCH"}); len(tb.Rows) != 0 {
		t.Fatalf("rows = %v", tb.Rows)
	}
	if got := reg.Counter(obs.MSweepCellsFailed).Value(); got != 1 {
		t.Errorf("sweep.cells_failed = %d, want 1", got)
	}
}
