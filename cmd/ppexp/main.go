// Command ppexp regenerates the paper's tables and figures against the
// simulated machine.
//
// Usage:
//
//	ppexp                      # everything (Fig. 11 at -samples, Fig. 12 full)
//	ppexp -fig 5               # one figure: 4, 5, 7, 11, 12 (12 includes Fig. 2)
//	ppexp -table 1             # one table: 1, 3, overhead, ranking
//	ppexp -calibration         # Eq. (6)/(7) fits
//	ppexp -samples 300         # Fig. 11 sample count (paper: 300)
//	ppexp -bench NPB-FT,NPB-EP # restrict the benchmark figures and tables
//	ppexp -machines all        # machine matrix: PredM per machine preset
//	ppexp -csv dir             # also write CSV series/scatters into dir
//	ppexp -workers 8           # sweep worker pool (0 = GOMAXPROCS, 1 = serial)
//	ppexp -metrics m.json      # write a metrics snapshot ("-" = stdout)
//
// Experiment grids run on the internal/sweep worker pool; output is
// byte-identical at every -workers setting.
//
// -metrics snapshots the harness's observability registry after all
// experiments finish: pipeline stage wall times, DES event counts from
// every simulated machine run, profile-cache hit/miss/dedup traffic and
// per-cell sweep outcomes, as JSON with stable field names.
//
// Exit codes: 0 success; 1 a write or cell failure under -failfast, or a
// failed Fig. 5/7 run; 2 usage error, including an unknown -bench name;
// 3 the -timeout deadline expired (partial results are still printed —
// canceled cells are reported as skipped).
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"prophet"
	"prophet/internal/experiments"
	"prophet/internal/pprofutil"
	"prophet/internal/report"
	"prophet/internal/workloads"
)

func main() {
	var (
		fig        = flag.String("fig", "", "regenerate one figure: 4|5|7|11|12")
		table      = flag.String("table", "", "regenerate one table: 1|3|overhead")
		calib      = flag.Bool("calibration", false, "run the Eq. (6)/(7) calibration")
		samples    = flag.Int("samples", 60, "Fig. 11 random samples per case (paper: 300)")
		benches    = flag.String("bench", "", "comma-separated benchmark subset for Fig. 12")
		machinesIn = flag.String("machines", "", "machine matrix over these comma-separated presets (\"all\" = every preset); runs in addition to the selected figures")
		csvDir     = flag.String("csv", "", "directory for CSV output")
		markdown   = flag.Bool("md", false, "render tables as GitHub markdown instead of aligned text")
		coresArg   = flag.String("cores", "", "comma-separated core counts (default 2,4,6,8,10,12)")
		workers    = flag.Int("workers", 0, "sweep worker pool size (0 = GOMAXPROCS, 1 = serial)")
		timeout    = flag.Duration("timeout", 0, "stop starting new sweep cells after this duration and exit 3 (0 = no limit)")
		failFast   = flag.Bool("failfast", false, "cancel the remainder of a sweep when any cell fails")
		metricsOut = flag.String("metrics", "", "write a metrics snapshot as JSON to this file (\"-\" = stdout)")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memProfile = flag.String("memprofile", "", "write a heap (allocs) profile to this file at exit")
	)
	flag.Parse()

	stopProfiles, err := pprofutil.Start(*cpuProfile, *memProfile)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	defer stopProfiles()

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	cfg := experiments.Config{Samples: *samples, Workers: *workers, FailFast: *failFast}
	if *metricsOut != "" {
		cfg.Metrics = &prophet.Metrics{}
	}
	if *coresArg != "" {
		cores, err := prophet.ParseCores(*coresArg)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		cfg.Cores = cores
	}
	var names []string
	if *benches != "" {
		for _, b := range strings.Split(*benches, ",") {
			name := strings.TrimSpace(b)
			if _, err := workloads.ByName(name); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(2)
			}
			names = append(names, name)
		}
	}

	var machineNames []string
	if *machinesIn != "" && *machinesIn != "all" {
		specs, err := prophet.ParseMachines(*machinesIn)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		for _, sp := range specs {
			machineNames = append(machineNames, sp.Name)
		}
	}

	markdownOut = *markdown
	all := *fig == "" && *table == "" && !*calib && *machinesIn == ""
	out := os.Stdout

	// One harness for the whole invocation: figures sharing inputs
	// (Fig. 11 / ranking samples, Fig. 12 / Table III benchmark
	// profiles) reuse each other's cached profiles. The context gates
	// every sweep: when -timeout fires, no new cell starts, in-flight
	// cells drain, and the merged output marks the rest as skipped.
	h := experiments.NewCtx(ctx, cfg)

	if all || *fig == "4" {
		fmt.Fprintln(out, "## Fig. 4 — program tree of the running example")
		fmt.Fprintln(out)
		fmt.Fprintln(out, experiments.Fig4())
	}
	if all || *fig == "5" {
		t, err := experiments.Fig5()
		exitOn(ctx, "fig 5", err)
		mustWrite(t, out)
	}
	if all || *fig == "7" {
		t, err := h.Fig7()
		exitOn(ctx, "fig 7", err)
		mustWrite(t, out)
	}
	if all || *fig == "11" {
		res := h.Fig11()
		mustWrite(res.Summary, out)
		if res.Failed > 0 {
			fmt.Fprintf(os.Stderr, "fig 11: %d sample cells failed\n", res.Failed)
		}
		if res.Skipped > 0 {
			fmt.Fprintf(os.Stderr, "fig 11: %d sample cells skipped (canceled)\n", res.Skipped)
		}
		if *csvDir != "" {
			for _, c := range res.Cases {
				writeCSV(*csvDir, "fig11-"+slug(c.Name)+".csv", c.Scatter.WriteCSV)
			}
		}
	}
	if all || *fig == "12" || *fig == "2" {
		series := h.Fig12(names)
		fmt.Fprintln(out, "## Fig. 12 — benchmark predictions (the NPB-FT panel is Fig. 2)")
		fmt.Fprintln(out)
		for _, s := range series {
			mustWrite(s.Table(), out)
			if *csvDir != "" {
				writeCSV(*csvDir, "fig12-"+slug(s.Name)+".csv", s.WriteCSV)
			}
		}
	}
	if all || *table == "1" {
		mustWrite(experiments.Table1(), out)
	}
	if all || *table == "3" {
		mustWrite(h.Table3(names), out)
	}
	if all || *table == "overhead" {
		mustWrite(h.OverheadTable(names), out)
	}
	if all || *table == "ranking" {
		mustWrite(h.ScheduleRanking(), out)
	}
	if *machinesIn != "" {
		fmt.Fprintln(out, "## Machine matrix — predictions across machine presets")
		fmt.Fprintln(out)
		mustWrite(h.MachineMatrix(names, machineNames), out)
	}
	if all || *calib {
		text, series := experiments.Calibration(cfg)
		fmt.Fprintln(out, "## Eq. (6)/(7) — memory model calibration")
		fmt.Fprintln(out)
		fmt.Fprintln(out, text)
		for _, s := range series {
			mustWrite(s.Table(), out)
			if *csvDir != "" {
				writeCSV(*csvDir, "calibration-"+slug(s.Name)+".csv", s.WriteCSV)
			}
		}
	}

	if cfg.Metrics != nil {
		mout := os.Stdout
		if *metricsOut != "-" {
			f, err := os.Create(*metricsOut)
			if err != nil {
				fmt.Fprintln(os.Stderr, "metrics export:", err)
				os.Exit(1)
			}
			defer f.Close()
			mout = f
		}
		if err := prophet.WriteMetricsJSON(mout, cfg.Metrics); err != nil {
			fmt.Fprintln(os.Stderr, "metrics export:", err)
			os.Exit(1)
		}
		if *metricsOut != "-" {
			fmt.Fprintln(out, "metrics written to", *metricsOut)
		}
	}

	if err := ctx.Err(); err != nil {
		fmt.Fprintf(os.Stderr, "ppexp: %v — results above are partial\n", err)
		stopProfiles() // os.Exit skips the defer; a timed-out run is exactly one worth profiling
		os.Exit(3)
	}
}

var markdownOut bool

// exitOn reports the failure of a figure that is not a sweep and exits:
// 3 when the -timeout deadline stopped it, 1 otherwise.
func exitOn(ctx context.Context, what string, err error) {
	if err == nil {
		return
	}
	fmt.Fprintf(os.Stderr, "ppexp: %s: %v\n", what, err)
	if ctx.Err() != nil {
		os.Exit(3)
	}
	os.Exit(1)
}

func mustWrite(t *report.Table, out *os.File) {
	var err error
	if markdownOut {
		err = t.WriteMarkdown(out)
	} else {
		_, err = t.WriteTo(out)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func slug(s string) string {
	s = strings.ToLower(s)
	var b strings.Builder
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9':
			b.WriteRune(r)
		default:
			b.WriteByte('-')
		}
	}
	return strings.Trim(b.String(), "-")
}

func writeCSV(dir, name string, write func(w io.Writer) error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if err := write(f); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if err := f.Close(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
