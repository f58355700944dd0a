package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"time"

	"prophet"
	"prophet/internal/obs"
	"prophet/internal/server"
	"prophet/internal/stats"
	"prophet/internal/sweep"
	"prophet/internal/workloads"
)

// The three serve workloads drive an in-process prophetd (internal/server)
// over a loopback listener with a closed loop of at most two clients:
// prophetd's callers (CLIs, sweep scripts, CI jobs) each wait for their
// answer before asking again.

var (
	allMethods = []prophet.Method{prophet.FastForward, prophet.Synthesizer, prophet.Suitability, prophet.AmdahlLaw, prophet.CriticalPathBound}
	allScheds  = []prophet.Sched{prophet.Static, prophet.Static1, prophet.Dynamic1, prophet.Guided}
)

// ints returns lo, lo+step, ... up to hi.
func ints(lo, hi, step int) []int {
	var out []int
	for v := lo; v <= hi; v += step {
		out = append(out, v)
	}
	return out
}

// benchSet is the eight benchmarks the daemon registers, profiled by the
// library with the daemon's own options: the reference side of every
// output check.
type benchSet struct {
	ws    []*workloads.Workload
	profs []*prophet.Profile
}

func loadBenches(ctx context.Context) (*benchSet, error) { return loadBenchesWith(ctx, nil) }

// loadBenchesWith profiles the eight benchmarks with opts.
func loadBenchesWith(ctx context.Context, opts *prophet.Options) (*benchSet, error) {
	bs := &benchSet{}
	for _, name := range workloads.Names() {
		w, err := workloads.ByName(name)
		if err != nil {
			return nil, err
		}
		p, err := prophet.ProfileProgramCtx(ctx, w.Program, opts)
		if err != nil {
			return nil, fmt.Errorf("profile %s: %w", name, err)
		}
		bs.ws = append(bs.ws, w)
		bs.profs = append(bs.profs, p)
	}
	return bs, nil
}

// cell is one prediction against one benchmark of a benchSet.
type cell struct {
	b   int
	req prophet.Request
}

func (bs *benchSet) cell(b int, m prophet.Method, threads int, sched prophet.Sched, mem bool) cell {
	return cell{b: b, req: prophet.Request{Method: m, Threads: threads, Paradigm: bs.ws[b].Paradigm, Sched: sched, MemoryModel: mem}}
}

// predictOp encodes the /v1/predict body of cells[key].
func (bs *benchSet) predictOp(cells []cell, key int) op {
	c := cells[key]
	body, err := json.Marshal(struct {
		Workload string          `json:"workload"`
		Request  prophet.Request `json:"request"`
	}{bs.ws[c.b].Name, c.req})
	if err != nil {
		panic(err) // a Request always encodes
	}
	return op{path: "/v1/predict", body: body, class: c.req.Method.String(), cells: 1, key: key}
}

// servePlan is everything one serve workload sends and expects.
type servePlan struct {
	cfg   server.Config
	cells []cell
	// grids are the /v1/sweep requests as cell indexes in grid order;
	// the op key of grid g is len(cells)+g.
	grids [][]int
	// warm is sent once, untimed and in this order, before the measured
	// phase; ops is one round of the measured stream.
	warm, ops            []op
	warmClients, clients int
	// latClasses are the op classes whose latency is the workload's
	// end-to-end p50/p90.
	latClasses []string
	// references: answers are checked against the library's own
	// estimates (false: against the warm-up answer of the same cell).
	references bool
	check      func(t *tables) checkFunc
}

// tables holds the expected answers and their errors, by op key.
type tables struct {
	bs     *benchSet
	cells  []cell
	body   [][]byte
	relErr []float64
	truth  []float64 // ground-truth speedup per cell
	// speedup is the library's estimate per cell (references only).
	speedup []float64
}

// planServeHot: LRU on, surrogate off. The warm-up computes every cell
// once; the measured rounds replay them and must all hit the LRU.
func planServeHot(bs *benchSet) *servePlan {
	p := &servePlan{cfg: serveConfig("serve-hot"), warmClients: 2, clients: 2}
	for b, w := range bs.ws {
		for _, m := range allMethods {
			if m == prophet.Synthesizer && contains(heavySynth, w.Name) {
				continue // its warm-up would cost seconds; see heavySynth
			}
			for _, t := range ints(2, 12, 2) {
				for _, s := range []prophet.Sched{prophet.Static, prophet.Dynamic1} {
					for _, mem := range []bool{false, true} {
						p.cells = append(p.cells, bs.cell(b, m, t, s, mem))
					}
				}
			}
		}
	}
	for k := range p.cells {
		p.ops = append(p.ops, bs.predictOp(p.cells, k))
	}
	p.warm = p.ops
	for _, m := range allMethods {
		p.latClasses = append(p.latClasses, m.String())
	}
	p.check = func(t *tables) checkFunc {
		return func(o *op, ex *exchange) (float64, error) {
			if ex.source != "cache" {
				return 0, fmt.Errorf("cell %d answered by %q, want cache", o.key, ex.source)
			}
			if !bytes.Equal(ex.body, t.body[o.key]) {
				return 0, fmt.Errorf("cell %d body differs from its warm-up body", o.key)
			}
			return t.relErr[o.key], nil
		}
	}
	return p
}

// heavySynth are the benchmarks whose Synthesizer cells cost 60–340 ms
// here, against 0.3–25 ms for the other six. serve-cold asks them for FF
// only: eleven such cells would make a round last seconds and be its
// whole latency tail. Their Synthesizer cost is measured by
// offline-paper's Fig 12, which runs it for all eight.
var heavySynth = []string{"LU-OMP", "NPB-FT"}

// planServeCold: LRU off, surrogate off. Every round asks each benchmark
// for FF predictions at 2..12 threads (and Synthesizer ones, but for
// heavySynth) and sends one FF sweep grid per benchmark, so every cell
// runs flight → batcher → pool → emulator.
func planServeCold(bs *benchSet) *servePlan {
	p := &servePlan{cfg: serveConfig("serve-cold"), clients: 2, references: true,
		latClasses: []string{prophet.FastForward.String(), prophet.Synthesizer.String()}}
	cores := ints(2, 12, 1)
	for b, w := range bs.ws {
		var grid []int
		for _, m := range []prophet.Method{prophet.FastForward, prophet.Synthesizer} {
			if m == prophet.Synthesizer && contains(heavySynth, w.Name) {
				continue
			}
			for _, t := range cores {
				if m == prophet.FastForward {
					grid = append(grid, len(p.cells))
				}
				p.cells = append(p.cells, bs.cell(b, m, t, w.Sched, true))
			}
		}
		p.grids = append(p.grids, grid)
	}
	for k := range p.cells {
		p.ops = append(p.ops, bs.predictOp(p.cells, k))
	}
	for g, grid := range p.grids {
		body, err := json.Marshal(map[string]any{
			"workload": bs.ws[p.cells[grid[0]].b].Name,
			"methods":  []string{prophet.FastForward.String()},
			"cores":    cores,
		})
		if err != nil {
			panic(err)
		}
		p.ops = append(p.ops, op{path: "/v1/sweep", body: body, class: "sweep", cells: len(grid), key: len(p.cells) + g})
	}
	p.check = func(t *tables) checkFunc {
		return func(o *op, ex *exchange) (float64, error) {
			if o.path == "/v1/predict" && ex.source != "emulated" {
				return 0, fmt.Errorf("cell %d answered by %q, want emulated", o.key, ex.source)
			}
			if !bytes.Equal(ex.body, t.body[o.key]) {
				return 0, fmt.Errorf("%s key %d body differs from the library's answer", o.path, o.key)
			}
			return t.relErr[o.key], nil
		}
	}
	return p
}

// surrogateSeed fixes the surrogate's reservoir sampling.
const surrogateSeed = 1

// planServeSurrogate: surrogate armed, LRU off. One client trains it on
// an FF grid at even thread counts in a fixed order, so the fitted model
// is the same every run; the measured rounds ask for the odd thread
// counts in between, answered as hits, shadow-sampled emulations and
// fallbacks. The measured phase also runs one client: with two, the
// order in which emulated answers retrain the model, and so the hit
// ratio, would differ from run to run.
func planServeSurrogate(bs *benchSet) *servePlan {
	p := &servePlan{
		cfg:         serveConfig("serve-surrogate"),
		warmClients: 1, clients: 1, references: true,
		latClasses: []string{prophet.FastForward.String()},
	}
	add := func(threads []int) []op {
		var ops []op
		for b := range bs.ws {
			for _, t := range threads {
				for _, s := range allScheds {
					for _, mem := range []bool{false, true} {
						p.cells = append(p.cells, bs.cell(b, prophet.FastForward, t, s, mem))
						ops = append(ops, bs.predictOp(p.cells, len(p.cells)-1))
					}
				}
			}
		}
		return ops
	}
	p.warm = add(ints(2, 12, 2))
	p.ops = add(ints(3, 11, 2))
	p.check = func(t *tables) checkFunc {
		return func(o *op, ex *exchange) (float64, error) {
			switch ex.source {
			case "emulated":
				if !bytes.Equal(ex.body, t.body[o.key]) {
					return 0, fmt.Errorf("cell %d emulated body differs from the library's answer", o.key)
				}
				return t.relErr[o.key], nil
			case prophet.SourceSurrogate:
				sp, err := checkSurrogateAnswer(t, o.key, ex.body)
				return stats.RelErr(sp, t.truth[o.key]), err
			}
			return 0, fmt.Errorf("cell %d answered by %q", o.key, ex.source)
		}
	}
	return p
}

// checkSurrogateAnswer validates a surrogate-served body: the wire
// format round-trips, the request is echoed, and time_cycles is derived
// from the speedup the way the emulators derive it.
func checkSurrogateAnswer(t *tables, key int, body []byte) (float64, error) {
	var est prophet.Estimate
	if err := json.Unmarshal(body, &est); err != nil {
		return 0, fmt.Errorf("cell %d: decode surrogate answer: %w", key, err)
	}
	re, err := json.MarshalIndent(est, "", "  ")
	if err != nil {
		return 0, err
	}
	c := t.cells[key]
	switch {
	case !bytes.Equal(append(re, '\n'), body):
		return 0, fmt.Errorf("cell %d: surrogate answer is not in the wire format", key)
	case est.Request != c.req || est.Source != prophet.SourceSurrogate:
		return 0, fmt.Errorf("cell %d: surrogate answer echoes %+v", key, est.Request)
	case !(est.Speedup > 0) || math.IsInf(est.Speedup, 0):
		return 0, fmt.Errorf("cell %d: surrogate speedup %v", key, est.Speedup)
	}
	serial := float64(t.bs.profs[c.b].SerialCycles)
	if want := prophet.Cycles(serial/est.Speedup + 0.5); est.Time != want {
		return 0, fmt.Errorf("cell %d: surrogate time_cycles %d, want %d", key, est.Time, want)
	}
	return est.Speedup, nil
}

// groundTruth runs realrun once per distinct (benchmark, threads,
// paradigm, schedule) of the wanted cells, on two workers, and returns
// each wanted cell's real speedup (0 for the others).
func groundTruth(ctx context.Context, bs *benchSet, cells []cell, want []bool) ([]float64, error) {
	type runKey struct {
		b, threads int
		par        prophet.Paradigm
		sched      prophet.Sched
	}
	idx := map[runKey]int{}
	var keys []runKey
	of := make([]int, len(cells))
	for i, c := range cells {
		if !want[i] {
			of[i] = -1
			continue
		}
		k := runKey{c.b, c.req.Threads, c.req.Paradigm, c.req.Sched}
		j, ok := idx[k]
		if !ok {
			j = len(keys)
			idx[k] = j
			keys = append(keys, k)
		}
		of[i] = j
	}
	outs := sweep.RunCtx(ctx, sweep.Engine{Workers: 2}, len(keys), func(ctx context.Context, i int) (float64, error) {
		k := keys[i]
		return bs.profs[k.b].RealSpeedupCtx(ctx, prophet.Request{Threads: k.threads, Paradigm: k.par, Sched: k.sched})
	})
	truth := make([]float64, len(cells))
	for i := range cells {
		if of[i] < 0 {
			continue
		}
		o := outs[of[i]]
		if o.Err != nil {
			return nil, fmt.Errorf("ground truth: %w", o.Err)
		}
		truth[i] = o.Value
	}
	return truth, nil
}

// libraryAnswers computes, on two workers, the library's estimate of
// every cell and its /v1/predict body (the wire contract is
// json.MarshalIndent of the Estimate plus a newline).
func libraryAnswers(ctx context.Context, bs *benchSet, cells []cell) ([]prophet.Estimate, [][]byte, error) {
	outs := sweep.RunCtx(ctx, sweep.Engine{Workers: 2}, len(cells), func(ctx context.Context, i int) (prophet.Estimate, error) {
		return bs.profs[cells[i].b].EstimateCtx(ctx, cells[i].req)
	})
	ests := make([]prophet.Estimate, len(cells))
	bodies := make([][]byte, len(cells))
	for i, o := range outs {
		if o.Err != nil {
			return nil, nil, fmt.Errorf("library estimate %+v: %w", cells[i].req, o.Err)
		}
		b, err := json.MarshalIndent(o.Value, "", "  ")
		if err != nil {
			return nil, nil, err
		}
		ests[i], bodies[i] = o.Value, append(b, '\n')
	}
	return ests, bodies, nil
}

// sweepBody encodes the /v1/sweep answer the server must give for grid:
// the same envelope and encoder settings as the daemon, with the library's
// estimates as outcomes.
func sweepBody(workload string, grid []int, ests []prophet.Estimate) ([]byte, error) {
	resp := struct {
		Workload string                            `json:"workload"`
		Cells    int                               `json:"cells"`
		Cached   int                               `json:"cached"`
		Outcomes []sweep.Outcome[prophet.Estimate] `json:"outcomes"`
	}{Workload: workload, Cells: len(grid)}
	for i, k := range grid {
		resp.Outcomes = append(resp.Outcomes, sweep.Outcome[prophet.Estimate]{Index: i, Value: ests[k]})
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(resp); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// buildTables computes the expected answers of a plan outside any clock,
// and the ground truth of the cells the measured rounds ask for.
func buildTables(ctx context.Context, bs *benchSet, p *servePlan) (*tables, error) {
	measured := make([]bool, len(p.cells))
	for _, o := range p.ops {
		if o.key < len(p.cells) {
			measured[o.key] = true
		}
	}
	for _, g := range p.grids {
		for _, k := range g {
			measured[k] = true
		}
	}
	truth, err := groundTruth(ctx, bs, p.cells, measured)
	if err != nil {
		return nil, err
	}
	n := len(p.cells) + len(p.grids)
	t := &tables{bs: bs, cells: p.cells, body: make([][]byte, n), relErr: make([]float64, n), truth: truth}
	if !p.references {
		return t, nil
	}
	ests, bodies, err := libraryAnswers(ctx, bs, p.cells)
	if err != nil {
		return nil, err
	}
	copy(t.body, bodies)
	t.speedup = make([]float64, len(ests))
	for i, est := range ests {
		t.speedup[i] = est.Speedup
		t.relErr[i] = stats.RelErr(est.Speedup, truth[i])
	}
	for g, grid := range p.grids {
		k := len(p.cells) + g
		if t.body[k], err = sweepBody(bs.ws[p.cells[grid[0]].b].Name, grid, ests); err != nil {
			return nil, err
		}
		for _, c := range grid {
			t.relErr[k] += t.relErr[c]
		}
	}
	return t, nil
}

// recordWarm is the serve-hot warm-up check: the first answer of a cell
// is emulated, carries no error, and becomes the body every later answer
// must equal.
func recordWarm(t *tables) checkFunc {
	return func(o *op, ex *exchange) (float64, error) {
		if ex.source != "emulated" {
			return 0, fmt.Errorf("warm-up cell %d answered by %q, want emulated", o.key, ex.source)
		}
		var est prophet.Estimate
		if err := json.Unmarshal(ex.body, &est); err != nil {
			return 0, fmt.Errorf("warm-up cell %d: %w", o.key, err)
		}
		if est.Err != nil {
			return 0, fmt.Errorf("warm-up cell %d: %w", o.key, est.Err)
		}
		t.body[o.key] = ex.body
		t.relErr[o.key] = stats.RelErr(est.Speedup, t.truth[o.key])
		return t.relErr[o.key], nil
	}
}

// daemon is an in-process prophetd on a loopback listener.
type daemon struct {
	srv  *server.Server
	hs   *http.Server
	base string
	done chan error
}

// startDaemon builds, loads and serves cfg, returning once /readyz
// answers 200.
func startDaemon(ctx context.Context, cfg server.Config) (*daemon, error) {
	d := &daemon{srv: server.New(cfg), done: make(chan error, 1)}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err == nil {
		err = d.srv.Load(ctx)
	}
	if err != nil {
		// Stop the batcher server.New started; the load error is the one
		// to report.
		_ = d.srv.Shutdown(context.Background())
		if ln != nil {
			ln.Close()
		}
		return nil, err
	}
	d.base = "http://" + ln.Addr().String()
	d.hs = &http.Server{Handler: d.srv.Handler()}
	go func() { d.done <- d.hs.Serve(ln) }()
	for {
		resp, err := http.Get(d.base + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		if err := ctx.Err(); err != nil {
			_ = d.stop() // the deadline is the error to report
			return nil, err
		}
		time.Sleep(time.Millisecond)
	}
}

// stop drains the daemon and waits for its serve loop to return.
func (d *daemon) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := d.srv.Shutdown(ctx)
	if herr := d.hs.Shutdown(ctx); err == nil {
		err = herr
	}
	if serr := <-d.done; err == nil && !errors.Is(serr, http.ErrServerClosed) {
		err = serr
	}
	return err
}

// scrape reads the daemon's /metrics snapshot over HTTP.
func (d *daemon) scrape() (obs.Snapshot, error) {
	var snap obs.Snapshot
	resp, err := http.Get(d.base + "/metrics")
	if err != nil {
		return snap, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return snap, fmt.Errorf("/metrics: status %d", resp.StatusCode)
	}
	err = json.NewDecoder(resp.Body).Decode(&snap)
	return snap, err
}

// serveConfig is the daemon configuration of a serve workload. Workers
// and MaxInFlight keep their defaults (GOMAXPROCS and 4×GOMAXPROCS), so a
// closed loop of two clients never sees a 429.
func serveConfig(name string) server.Config {
	switch name {
	case "serve-cold":
		return server.Config{CacheSize: -1}
	case "serve-surrogate":
		return server.Config{CacheSize: -1, Surrogate: &prophet.SurrogateConfig{Seed: surrogateSeed}}
	}
	return server.Config{}
}

// serveWorkloads maps each serve workload to its plan.
var serveWorkloads = map[string]func(*benchSet) *servePlan{
	"serve-hot":       planServeHot,
	"serve-cold":      planServeCold,
	"serve-surrogate": planServeSurrogate,
}

// runServe runs one serve workload: cold set-up in fresh processes, then
// an in-process daemon, the untimed warm-up, and the measured rounds.
func runServe(ctx context.Context, name string, o runOpts) (*report, error) {
	rep := newReport()
	if err := measureSetup(ctx, name, serveSetupRuns, rep); err != nil {
		return nil, err
	}
	logf("set-up measured")
	bs, err := loadBenches(ctx)
	if err != nil {
		return nil, err
	}
	plan := serveWorkloads[name](bs)
	tabs, err := buildTables(ctx, bs, plan)
	if err != nil {
		return nil, err
	}
	logf("references for %d cells computed", len(plan.cells))
	d, err := startDaemon(ctx, plan.cfg)
	if err != nil {
		return nil, err
	}
	defer func() {
		if err := d.stop(); err != nil {
			rep.fail("daemon shutdown: %v", err)
		}
	}()
	c := newClient(d.base, 2)
	defer c.close()

	if len(plan.warm) > 0 {
		warmCheck := plan.check(tabs)
		if !plan.references {
			warmCheck = recordWarm(tabs)
		}
		st := newStream(plan.warm, o.seed)
		st.ordered = true
		rep.addPhase(drive(ctx, httpDo(c, warmCheck), st, loop{clients: plan.warmClients}))
		logf("warm-up of %d ops done", len(plan.warm))
	}
	st := newStream(plan.ops, o.seed)
	lp := loop{clients: plan.clients, minTime: o.seconds, minRounds: minRounds}
	do := httpDo(c, plan.check(tabs))

	if o.trace {
		lr, err := tracedPhase(ctx, rep, do, st, lp, d.scrape)
		if err != nil {
			return nil, err
		}
		if err := serveLayers(ctx, name, o.seed, lr, bs, plan, tabs); err != nil {
			return nil, err
		}
	} else {
		ph := drive(ctx, do, st, lp)
		rep.addPhase(ph)
		rep.endToEnd(ph, plan.latClasses)
	}
	// The plan, tables and samples are unreachable from here on: the live
	// heap measured next is the daemon's own state after the phase.
	logf("measured")
	rep.heapLive()
	return rep, nil
}

// minRounds is the fewest rounds a measured phase runs: the timings are
// medians across rounds.
const minRounds = 5

// serveSetupRuns is how many fresh processes measure a serve set-up.
const serveSetupRuns = 7

// setupServe is the set-up a fresh daemon process pays: from server.New
// and Load to /readyz answering 200.
func setupServe(ctx context.Context, name string) (setupReport, error) {
	reg := &obs.Registry{}
	cfg := serveConfig(name)
	cfg.Metrics = reg
	start := time.Now()
	d, err := startDaemon(ctx, cfg)
	if err != nil {
		return setupReport{}, err
	}
	elapsed := time.Since(start)
	if err := d.stop(); err != nil {
		return setupReport{}, err
	}
	h := reg.Snapshot().Histograms
	return setupReport{
		SetupS:      elapsed.Seconds(),
		ProfileMS:   float64(h[obs.MStageProfile].Sum) / 1e6,
		CompressMS:  float64(h[obs.MStageCompress].Sum) / 1e6,
		CalibrateMS: float64(h[obs.MStageCalibrate].Sum) / 1e6,
	}, nil
}
