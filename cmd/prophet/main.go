// Command prophet profiles one of the built-in annotated benchmarks (or
// loads a previously exported program tree) and prints its predicted
// speedups — the end-to-end tool workflow of the paper's Fig. 3.
//
// Usage:
//
//	prophet -bench NPB-FT [-method synthesizer] [-cores 2,4,6,8,10,12]
//	        [-machines westmere12,embedded4+4] [-sched dynamic1] [-mem]
//	        [-real] [-advise [-advise-json advice.json]]
//	        [-tree out.json] [-dot out.dot]
//	        [-trace trace.json] [-metrics metrics.json]
//	prophet -load tree.json [-method ff] ...
//	prophet -import prof.pb.gz [-sample-type cpu] [-collapse 0.001] ...
//	prophet -import-folded stacks.txt ...
//
// Use -list to see the available benchmarks and machine presets.
//
// -machines predicts the same grid for several machine presets and
// prints one speedup column per machine (the profile is re-profiled and
// the memory model recalibrated per machine, cached for the run).
// Without -machines, output is unchanged from earlier versions.
//
// -import ingests a pprof protobuf profile (go test -cpuprofile,
// runtime/pprof, net/http/pprof; gzipped or raw) and -import-folded a
// folded-stacks text capture (perf script | stackcollapse); both
// convert the sampled call tree into a program tree and predict over
// it, so any profiled binary becomes a scenario. A profile that fails
// to decode, or decodes to zero samples, is a usage error (exit 2).
//
// -advise runs the causal advisor: a paradigm × schedule × cores sweep
// plus one what-if experiment per candidate region (top-level sections
// and serial runs), ranking regions by the marginal speedup
// parallelizing each would unlock at the largest core count — marginal
// < 1.0x is an explicit anti-recommendation. The advisor defaults to
// the synthesizer method unless -method is given explicitly.
// -advise-json writes the same advice as JSON (byte-identical to the
// daemon's POST /v1/advise for the same workload, cores and method).
//
// -trace records every simulated machine run and emulation as Chrome
// trace_event JSON (one lane per simulated core; load the file in
// chrome://tracing or https://ui.perfetto.dev). -metrics writes a JSON
// snapshot of pipeline metrics — stage wall times, DES event counts —
// to the given file ("-" for stdout).
//
// Exit codes: 0 success; 1 profiling/prediction failure (a deadlocked
// emulation also prints its wait graph); 2 usage error; 3 the -timeout
// deadline expired.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"

	"prophet"
	"prophet/internal/pprofutil"
	"prophet/internal/profimport"
	"prophet/internal/report"
	"prophet/internal/workloads"
)

// Exit codes.
const (
	exitErr      = 1 // profiling or prediction failed
	exitUsage    = 2 // bad flags or input
	exitDeadline = 3 // -timeout expired
)

// stopProfiles flushes -cpuprofile/-memprofile output; fail() calls it
// because os.Exit skips main's defer, and a failing run (a deadlocked
// emulation, an expired deadline) is often the one worth profiling.
var stopProfiles = func() {}

// fail prints err for its stage and exits with the matching code. A
// deadline expiry exits 3; a deadlock additionally prints the wait-graph
// diagnostic so the user can see which virtual threads hold which locks.
func fail(stage string, err error) {
	stopProfiles()
	fmt.Fprintf(os.Stderr, "%s: %v\n", stage, err)
	if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
		os.Exit(exitDeadline)
	}
	var dl *prophet.DeadlockError
	if errors.As(err, &dl) {
		fmt.Fprintf(os.Stderr, "wait graph:\n%s\n", dl.WaitGraph())
	}
	os.Exit(exitErr)
}

func main() {
	var (
		benchName  = flag.String("bench", "", "benchmark to analyze (see -list)")
		loadPath   = flag.String("load", "", "load a program tree exported with -tree instead of profiling a benchmark")
		importPath = flag.String("import", "", "import a pprof protobuf profile (gzipped or raw) as the program tree")
		foldedPath = flag.String("import-folded", "", "import a folded-stacks text capture (stackcollapse format) as the program tree")
		sampleType = flag.String("sample-type", "", "pprof value column to import, by type name (default: cpu, then the profile's default)")
		collapse   = flag.Float64("collapse", 0, "leaf-collapse threshold: fold subtrees below this fraction of total weight (0 = default 0.001, negative disables)")
		list       = flag.Bool("list", false, "list available benchmarks")
		method     = flag.String("method", "ff", "prediction method: ff | synthesizer | suitability | amdahl | critical-path")
		coresFlag  = flag.String("cores", "2,4,6,8,10,12", "comma-separated CPU counts")
		machFlag   = flag.String("machines", "", "comma-separated machine presets to predict for, one speedup column each (see -list; empty = the profile's machine)")
		schedName  = flag.String("sched", "", "OpenMP schedule: static | static1 | dynamic1 | guided (default: the benchmark's)")
		useMem     = flag.Bool("mem", true, "apply the memory performance model (PredM)")
		withReal   = flag.Bool("real", false, "also run the machine ground truth (slow)")
		treeOut    = flag.String("tree", "", "write the program tree as JSON to this file")
		dotOut     = flag.String("dot", "", "write the program tree as Graphviz DOT to this file")
		regions    = flag.Bool("regions", false, "print the per-region work/span/self-parallelism profile")
		timeline   = flag.Bool("timeline", false, "render a per-core timeline of the machine ground truth at the largest core count")
		advise     = flag.Bool("advise", false, "sweep paradigms/schedules/cores, rank candidate regions by marginal speedup, and print a recommendation")
		adviseJSON = flag.String("advise-json", "", "with -advise, also write the advice as JSON to this file (\"-\" = stdout); implies -advise")
		timeout    = flag.Duration("timeout", 0, "abort profiling and prediction after this duration, exiting 3 (0 = no limit)")
		traceOut   = flag.String("trace", "", "write Chrome trace_event JSON of the simulated machine runs to this file")
		metricsOut = flag.String("metrics", "", "write a pipeline metrics snapshot as JSON to this file (\"-\" = stdout)")
		cpuProf    = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memProf    = flag.String("memprofile", "", "write a heap (allocs) profile to this file at exit")
		surrFlag   = flag.Bool("surrogate", false, "arm the learned surrogate predictor: confident repeat cells answer from the model instead of emulating (surrogate.* series land in -metrics)")
		surrMaxErr = flag.Float64("surrogate-maxerr", 0.05, "max cross-validated relative error a surrogate answer may carry")
	)
	flag.Parse()

	stop, err := pprofutil.Start(*cpuProf, *memProf)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(exitUsage)
	}
	stopProfiles = stop
	defer stop()

	var (
		traceBuf *prophet.TraceBuffer
		metrics  *prophet.Metrics
		observer prophet.Observer
	)
	if *traceOut != "" {
		traceBuf = &prophet.TraceBuffer{}
		observer.Trace = traceBuf
	}
	if *metricsOut != "" {
		metrics = &prophet.Metrics{}
		observer.Metrics = metrics
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	sources := 0
	for _, s := range []string{*benchName, *loadPath, *importPath, *foldedPath} {
		if s != "" {
			sources++
		}
	}
	if sources > 1 {
		fmt.Fprintln(os.Stderr, "at most one of -bench, -load, -import, -import-folded may be given")
		os.Exit(exitUsage)
	}
	if *list || sources == 0 {
		fmt.Println("available benchmarks:")
		for _, n := range workloads.Names() {
			w, _ := workloads.ByName(n)
			fmt.Printf("  %-11s %s\n", n, w.Desc)
		}
		fmt.Println("machine presets (-machines):")
		for _, sp := range prophet.MachinePresets() {
			fmt.Printf("  %-12s %2d cores — %s\n", sp.Name, sp.Cores(), sp.Desc)
		}
		if sources == 0 && !*list {
			os.Exit(2)
		}
		return
	}

	cores, err := prophet.ParseCores(*coresFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	m, err := prophet.ParseMethod(*method)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	var machines []*prophet.MachineSpec
	if *machFlag != "" {
		machines, err = prophet.ParseMachines(*machFlag)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
	}
	var surr *prophet.Surrogate
	if *surrFlag {
		if *surrMaxErr <= 0 || *surrMaxErr >= 1 {
			fmt.Fprintf(os.Stderr, "-surrogate-maxerr must be in (0, 1), got %v\n", *surrMaxErr)
			os.Exit(2)
		}
		surr = prophet.NewSurrogate(prophet.SurrogateConfig{MaxRelErr: *surrMaxErr, Metrics: metrics})
	}

	var (
		prof     *prophet.Profile
		name     string
		paradigm prophet.Paradigm
		sched    prophet.Sched
	)
	switch {
	case *importPath != "" || *foldedPath != "":
		root, stats, err := importTree(*importPath, *foldedPath, *sampleType, *collapse, metrics)
		if err != nil {
			fmt.Fprintln(os.Stderr, "import:", err)
			os.Exit(exitUsage)
		}
		name = *importPath + *foldedPath // the one that is set
		fmt.Printf("imported %s: %s\n", name, stats)
		prof, err = prophet.ProfileTreeCtx(ctx, root, &prophet.Options{ThreadCounts: cores, Observer: observer, Surrogate: surr})
		if err != nil {
			fail("profile", err)
		}
		sched = prophet.Static
	case *loadPath != "":
		data, err := os.ReadFile(*loadPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		var root prophet.Tree
		if err := json.Unmarshal(data, &root); err != nil {
			fmt.Fprintln(os.Stderr, "tree parse:", err)
			os.Exit(2)
		}
		prof, err = prophet.ProfileTreeCtx(ctx, &root, &prophet.Options{ThreadCounts: cores, Observer: observer, Surrogate: surr})
		if err != nil {
			fail("profile", err)
		}
		name = *loadPath
		sched = prophet.Static
	default:
		w, err := workloads.ByName(*benchName)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		fmt.Printf("profiling %s (%s)...\n", w.Name, w.Desc)
		prof, err = prophet.ProfileProgramCtx(ctx, w.Program, &prophet.Options{ThreadCounts: cores, Observer: observer, Surrogate: surr})
		if err != nil {
			fail("profile", err)
		}
		name = w.Name
		paradigm = w.Paradigm
		sched = w.Sched
		fmt.Printf("serial: %d cycles; tree: %s\n\n", prof.SerialCycles, prof.Compression)
	}
	if *schedName != "" {
		sched, err = prophet.ParseSched(*schedName)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
	}

	if len(machines) > 0 {
		// Machine matrix: one predicted-speedup column per preset (plus
		// a ground-truth column each with -real).
		headers := []string{"cores"}
		for _, sp := range machines {
			headers = append(headers, sp.Name)
			if *withReal {
				headers = append(headers, sp.Name+" (real)")
			}
		}
		t := report.NewTable(fmt.Sprintf("%s — %s, %s, %v, machine matrix", name, m, paradigm, sched), headers...)
		for _, c := range cores {
			row := []string{strconv.Itoa(c)}
			for _, sp := range machines {
				req := prophet.Request{Method: m, Threads: c, Paradigm: paradigm, Sched: sched, MemoryModel: *useMem, Machine: sp.Name}
				est, err := prof.EstimateCtx(ctx, req)
				if err != nil {
					fail(fmt.Sprintf("predict %d cores on %s", c, sp.Name), err)
				}
				row = append(row, fmt.Sprintf("%.2f", est.Speedup))
				if *withReal {
					real, err := prof.RealSpeedupCtx(ctx, req)
					if err != nil {
						fail(fmt.Sprintf("real run %d cores on %s", c, sp.Name), err)
					}
					row = append(row, fmt.Sprintf("%.2f", real))
				}
			}
			t.AddRow(row...)
		}
		if _, err := t.WriteTo(os.Stdout); err != nil {
			os.Exit(1)
		}
	} else {
		headers := []string{"cores", "predicted speedup"}
		if *withReal {
			headers = append(headers, "real (machine)")
		}
		t := report.NewTable(fmt.Sprintf("%s — %s, %s, %v", name, m, paradigm, sched), headers...)
		for _, c := range cores {
			req := prophet.Request{Method: m, Threads: c, Paradigm: paradigm, Sched: sched, MemoryModel: *useMem}
			est, err := prof.EstimateCtx(ctx, req)
			if err != nil {
				fail(fmt.Sprintf("predict %d cores", c), err)
			}
			row := []string{strconv.Itoa(c), fmt.Sprintf("%.2f", est.Speedup)}
			if *withReal {
				real, err := prof.RealSpeedupCtx(ctx, req)
				if err != nil {
					fail(fmt.Sprintf("real run %d cores", c), err)
				}
				row = append(row, fmt.Sprintf("%.2f", real))
			}
			t.AddRow(row...)
		}
		if _, err := t.WriteTo(os.Stdout); err != nil {
			os.Exit(1)
		}
	}

	if *advise || *adviseJSON != "" {
		// Unless -method was passed, the advisor picks its own default;
		// the flag's default ("ff") only governs the prediction table
		// above.
		name := ""
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "method" {
				name = *method
			}
		})
		adviseMethod, err := prophet.AdviseMethod(name)
		if err != nil {
			fail("advise", err)
		}
		adv, err := prof.AdviseCtx(ctx, &prophet.AdviseOptions{Threads: cores, Method: adviseMethod})
		if err != nil {
			fail("advise", err)
		}
		if *advise {
			fmt.Println(adv)
		}
		if *adviseJSON != "" {
			data, err := json.MarshalIndent(adv, "", "  ")
			if err == nil && *adviseJSON == "-" {
				_, err = fmt.Printf("%s\n", data)
			} else if err == nil {
				err = os.WriteFile(*adviseJSON, append(data, '\n'), 0o644)
			}
			if err != nil {
				fmt.Fprintln(os.Stderr, "advise export:", err)
				os.Exit(1)
			}
			if *adviseJSON != "-" {
				fmt.Println("advice written to", *adviseJSON)
			}
		}
	}

	if *timeline {
		top := cores[len(cores)-1]
		gantt, _, err := prof.TimelineCtx(ctx, prophet.Request{
			Threads: top, Paradigm: paradigm, Sched: sched,
		}, 100)
		if err != nil {
			fail("timeline", err)
		}
		fmt.Printf("machine execution, %d threads:\n", top)
		fmt.Print(gantt)
		fmt.Println()
	}

	if *regions {
		rt := report.NewTable("parallel regions (ranked by work)",
			"region", "nested", "executions", "work", "span", "self-par", "coverage")
		for _, r := range prof.Regions() {
			rt.AddRow(r.Name,
				fmt.Sprintf("%v", r.Nested),
				strconv.Itoa(r.Executions),
				strconv.FormatInt(int64(r.Work), 10),
				strconv.FormatInt(int64(r.Span), 10),
				fmt.Sprintf("%.1f", r.SelfParallelism),
				fmt.Sprintf("%.1f%%", 100*r.Coverage))
		}
		if _, err := rt.WriteTo(os.Stdout); err != nil {
			os.Exit(1)
		}
	}

	if *treeOut != "" {
		data, err := json.MarshalIndent(prof.Tree, "", " ")
		if err == nil {
			err = os.WriteFile(*treeOut, data, 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "tree export:", err)
			os.Exit(1)
		}
		fmt.Println("tree written to", *treeOut)
	}
	if *dotOut != "" {
		f, err := os.Create(*dotOut)
		if err == nil {
			err = prof.Tree.WriteDOT(f)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "dot export:", err)
			os.Exit(1)
		}
		fmt.Println("dot written to", *dotOut)
	}

	if traceBuf != nil {
		f, err := os.Create(*traceOut)
		if err == nil {
			err = traceBuf.WriteChromeTrace(f)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "trace export:", err)
			os.Exit(1)
		}
		fmt.Printf("trace written to %s (%d events; load in chrome://tracing or ui.perfetto.dev)\n",
			*traceOut, traceBuf.Len())
	}
	if metrics != nil {
		var err error
		if *metricsOut == "-" {
			err = prophet.WriteMetricsJSON(os.Stdout, metrics)
		} else {
			var f *os.File
			f, err = os.Create(*metricsOut)
			if err == nil {
				err = exportMetricsTo(metrics, f)
			}
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "metrics export:", err)
			os.Exit(1)
		}
		if *metricsOut != "-" {
			fmt.Println("metrics written to", *metricsOut)
		}
	}
}

// importTree reads an externally captured execution profile (pprof
// protobuf when pprofPath is set, folded-stacks text when foldedPath
// is) and converts it to a program tree. Errors are typed: errors.Is
// against prophet.ErrProfileCorrupt / ErrProfileEmpty /
// ErrProfileTooLarge; main maps all of them to exit code 2 — a bad
// input is a usage error, not a prediction failure.
func importTree(pprofPath, foldedPath, sampleType string, collapse float64, metrics *prophet.Metrics) (*prophet.Tree, profimport.Stats, error) {
	path, from := pprofPath, profimport.FromPprof
	if foldedPath != "" {
		path, from = foldedPath, profimport.FromFolded
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, profimport.Stats{}, err
	}
	res, err := from(data, &profimport.Options{
		SampleType:       sampleType,
		CollapseFraction: collapse,
		Metrics:          metrics,
	})
	if err != nil {
		return nil, profimport.Stats{}, err
	}
	return res.Tree, res.Stats, nil
}

// exportMetricsTo writes the metrics snapshot to w and closes it,
// propagating the Close error when the write itself succeeded: close is
// the last chance to hear the kernel reject buffered data (full disk,
// broken pipe), and the adjacent dot/trace export paths already report
// it. A dropped close error here used to let the command print "metrics
// written" and exit 0 with a truncated file on disk.
func exportMetricsTo(m *prophet.Metrics, w io.WriteCloser) error {
	err := prophet.WriteMetricsJSON(w, m)
	if cerr := w.Close(); err == nil {
		err = cerr
	}
	return err
}
