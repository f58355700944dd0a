package main

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"prophet"
	"prophet/internal/ff"
	"prophet/internal/obs"
	"prophet/internal/omprt"
	"prophet/internal/realrun"
	"prophet/internal/synth"
)

// The traced run. Spans are recorded by the benchmark's own code around
// every call it makes into a layer — each op of the measured phase's
// traced rounds, and each direct call into ff, synth, realrun and the
// library's surrogate hook — and kept in memory; the program's own
// counters come from /metrics (the harness registry offline), differenced
// across the phase.

// spanLog keeps spans in memory. A nil *spanLog records nothing, so
// untraced rounds run the same code at the cost of one branch.
type spanLog struct {
	mu    sync.Mutex
	t0    time.Time
	spans []spanRec
}

// spanRec is one span: the layer call and its start and end since the
// log began. Every span the benchmark records is a root: it times calls
// into the program from outside.
type spanRec struct {
	name       string
	start, end time.Duration
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

func (l *spanLog) begin(name string) int {
	if l == nil {
		return -1
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans = append(l.spans, spanRec{name: name, start: time.Since(l.t0)})
	return len(l.spans) - 1
}

func (l *spanLog) end(id int) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.spans[id].end = time.Since(l.t0)
	l.mu.Unlock()
}

// durations returns the sorted durations, in ms, of the spans named name.
func (l *spanLog) durations(name string) []float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []float64
	for _, s := range l.spans {
		if s.name == name {
			out = append(out, float64(s.end-s.start)/1e6)
		}
	}
	sort.Float64s(out)
	return out
}

// layerRun is what the measured phase of a traced run left behind.
type layerRun struct {
	rep           *report
	before, after obs.Snapshot // the program's counters around the phase
	phase         *phase
	phaseSpans    *spanLog     // the spans of the phase's traced rounds
	mem0, mem1    runtimeStats // around the phase
	spans         *spanLog     // the direct layer passes
}

// tracedPhase runs the measured phase with every other round traced.
// scrape reads the program's counters before and after it.
func tracedPhase(ctx context.Context, rep *report, do doFunc, st *stream, lp loop, scrape func() (obs.Snapshot, error)) (*layerRun, error) {
	lr := &layerRun{rep: rep, phaseSpans: newSpanLog(), spans: newSpanLog()}
	var err error
	if lr.before, err = scrape(); err != nil {
		return nil, err
	}
	lp.spans = lr.phaseSpans
	if lp.minRounds < 2 {
		lp.minRounds = 2
	}
	lr.mem0.read()
	lr.phase = drive(ctx, do, st, lp)
	lr.mem1.read()
	if lr.after, err = scrape(); err != nil {
		return nil, err
	}
	rep.addPhase(lr.phase)
	return lr, nil
}

func (lr *layerRun) set(name string, v float64, n int) { lr.rep.layer[name] = value{v, n} }

// counter is a /metrics counter's growth across the traced phase.
func (lr *layerRun) counter(name string) float64 {
	return float64(lr.after.Counters[name] - lr.before.Counters[name])
}

func (lr *layerRun) hist(name string) obs.HistogramSnapshot {
	return histDelta(lr.after.Histograms[name], lr.before.Histograms[name])
}

// p50 records the median of a span or latency sample, failing the run
// when the sample cannot support it.
func (lr *layerRun) p50(name string, ms []float64, scale float64) {
	lr.pct(name, ms, 0.5, scale)
}

func (lr *layerRun) pct(name string, ms []float64, p, scale float64) {
	v, err := percentile(ms, p)
	if err != nil {
		lr.rep.fail("%s: %v", name, err)
		return
	}
	lr.set(name, v*scale, len(ms))
}

// common sets the per-layer metrics every workload has: runtime costs and
// tracing overhead.
func (lr *layerRun) common() {
	cells := float64(lr.phase.cells)
	lr.set("runtime.alloc_kb_per_cell", ratio(float64(lr.mem1.totalAlloc-lr.mem0.totalAlloc)/1024, cells), int(cells))
	lr.set("runtime.gc_cycles", float64(lr.mem1.numGC-lr.mem0.numGC), 1)
	lr.set("runtime.gc_pause_ms", float64(lr.mem1.pauseNs-lr.mem0.pauseNs)/1e6, int(lr.mem1.numGC-lr.mem0.numGC))
	base := lr.phase.cellsPerSec(func(w window) bool { return !w.traced })
	traced := lr.phase.cellsPerSec(func(w window) bool { return w.traced })
	lr.set("obs.trace_overhead_pct", 100*ratio(base-traced, base), lr.phase.rounds)
}

// daemonCounters sets the per-layer metrics scraped from /metrics.
func (lr *layerRun) daemonCounters() {
	hits, misses := lr.counter(obs.MServerCacheHits), lr.counter(obs.MServerCacheMisses)
	lr.set("server.cache.hit_ratio", ratio(hits, hits+misses), int(hits+misses))
	lr.set("server.cache.evictions", float64(lr.after.Counters[obs.MServerCacheEvictions]), 1)
	h := lr.hist(obs.MServerPredictLatency)
	lr.set("server.handler_p50_us", histQuantile(h, 0.5)/1e3, int(h.Count))
	batches := lr.counter(obs.MServerBatches)
	lr.set("server.batch.batches", batches, 1)
	lr.set("server.batch.mean_size", ratio(lr.counter(obs.MServerBatchCells), batches), int(batches))
	lr.set("server.flight.dedups", lr.counter(obs.MServerFlightDedups), 1)
	lr.set("server.rejected", lr.counter(obs.MServerRejected), 1)
	sh, sf := lr.counter(obs.MSurrogateHits), lr.counter(obs.MSurrogateFallbacks)
	lr.set("surrogate.hit_ratio", ratio(sh, sh+sf), int(sh+sf))
	ev := lr.hist(obs.MSurrogateEvalLatency)
	lr.set("surrogate.eval_p50_us", histQuantile(ev, 0.5)/1e3, int(ev.Count))
	lr.set("surrogate.refits", lr.counter(obs.MSurrogateRefits), 1)
	lr.set("surrogate.shadow_runs", lr.counter(obs.MSurrogateShadowRuns), 1)
	re := lr.hist(obs.MSurrogateShadowRelErr)
	lr.set("surrogate.shadow_rel_err_p50_bp", histQuantile(re, 0.5), int(re.Count))
	lr.set("sweep.cells_ok", lr.counter(obs.MSweepCellsOK), 1)
	lr.set("sweep.cells_failed", lr.counter(obs.MSweepCellsFailed), 1)
	lr.set("sweep.cells_skipped", lr.counter(obs.MSweepCellsSkipped), 1)
}

// serveLayers sets the per-layer metrics of a serve workload's traced
// run, running the direct layer passes the workload targets.
func serveLayers(ctx context.Context, name string, seed int64, lr *layerRun, bs *benchSet, plan *servePlan, t *tables) error {
	lr.common()
	lr.daemonCounters()
	nodes := 0
	for _, p := range bs.profs {
		nodes += int(p.Compression.NodesAfter)
	}
	lr.set("compress.nodes_after", float64(nodes), len(bs.profs))
	switch name {
	case "serve-cold":
		for _, m := range []struct{ class, metric string }{{"ff", "server.ff"}, {"synthesizer", "server.synth"}} {
			lat := lr.phase.latencies(m.class)
			lr.pct(m.metric+"_p50_ms", lat, 0.5, 1)
			lr.pct(m.metric+"_p90_ms", lat, 0.9, 1)
		}
		direct, err := ffPass(ctx, lr, bs, plan.cells, t)
		if err != nil {
			return err
		}
		var wait []float64
		for _, s := range lr.phase.samples {
			if c, ok := direct[s.op.key]; ok && s.op.path == "/v1/predict" {
				wait = append(wait, float64(s.lat())/1e6-c)
			}
		}
		sort.Float64s(wait)
		lr.p50("server.wait_p50_ms", wait, 1)
		return synthPass(ctx, lr, bs, plan.cells, t)
	case "serve-surrogate":
		return surrogatePass(ctx, lr, plan, seed)
	}
	return nil
}

// ffPass times ff.Emulator.SpeedupCtx, configured exactly as the
// library's estimate does, over the FF cells; the speedups must equal
// the library's. It returns each cell's median direct cost in ms.
func ffPass(ctx context.Context, lr *layerRun, bs *benchSet, cells []cell, t *tables) (map[int]float64, error) {
	const reps = 3
	costs := map[int][]float64{}
	var total time.Duration
	for r := 0; r < reps; r++ {
		for k, c := range cells {
			if c.req.Method != prophet.FastForward {
				continue
			}
			prof := bs.profs[c.b]
			e := &ff.Emulator{
				Threads:   c.req.Threads,
				Sched:     c.req.Sched,
				Ov:        omprt.DefaultOverheads(),
				UseBurden: c.req.MemoryModel && prof.Model != nil,
			}
			id := lr.spans.begin("ff.SpeedupCtx")
			t0 := time.Now()
			sp, err := e.SpeedupCtx(ctx, prof.Tree)
			d := time.Since(t0)
			lr.spans.end(id)
			if err != nil {
				return nil, fmt.Errorf("ff cell %d: %w", k, err)
			}
			if sp != t.speedup[k] {
				lr.rep.fail("ff cell %d: direct speedup %v, library %v", k, sp, t.speedup[k])
			}
			total += d
			costs[k] = append(costs[k], float64(d)/1e6)
		}
	}
	spans := lr.spans.durations("ff.SpeedupCtx")
	lr.p50("ff.cell_p50_us", spans, 1e3)
	lr.set("ff.cells_per_s", ratio(float64(len(spans)), total.Seconds()), len(spans))
	direct := map[int]float64{}
	for k, cs := range costs {
		direct[k] = median(cs)
	}
	return direct, nil
}

// synthPass times synth.Synthesizer.SpeedupCtx, configured exactly as
// the library's estimate does, over the Synthesizer cells, and counts
// the simulated machine's events through the run's registry.
func synthPass(ctx context.Context, lr *layerRun, bs *benchSet, cells []cell, t *tables) error {
	reg := &obs.Registry{}
	var total time.Duration
	n := 0
	for k, c := range cells {
		if c.req.Method != prophet.Synthesizer {
			continue
		}
		prof := bs.profs[c.b]
		s := &synth.Synthesizer{
			Threads:   c.req.Threads,
			Paradigm:  c.req.Paradigm,
			Sched:     c.req.Sched,
			UseBurden: c.req.MemoryModel && prof.Model != nil,
			OmpOv:     omprt.DefaultOverheads(),
			Metrics:   reg,
		}
		id := lr.spans.begin("synth.SpeedupCtx")
		t0 := time.Now()
		sp, err := s.SpeedupCtx(ctx, prof.Tree)
		total += time.Since(t0)
		lr.spans.end(id)
		if err != nil {
			return fmt.Errorf("synth cell %d: %w", k, err)
		}
		if sp != t.speedup[k] {
			lr.rep.fail("synth cell %d: direct speedup %v, library %v", k, sp, t.speedup[k])
		}
		n++
	}
	lr.p50("synth.cell_p50_ms", lr.spans.durations("synth.SpeedupCtx"), 1)
	c := reg.Snapshot().Counters
	events := float64(c[obs.MSimEvents])
	lr.set("sim.events_per_s", ratio(events, total.Seconds()), n)
	lr.set("sim.events_per_cell", ratio(events, float64(n)), n)
	lr.set("sim.preemptions", float64(c[obs.MSimPreemptions]), n)
	return nil
}

// surrogatePass times the library's own surrogate hook: profiles armed
// through Options.Surrogate, trained on the same grid in the same order
// as the daemon, then asked two rounds of the measured stream.
func surrogatePass(ctx context.Context, lr *layerRun, plan *servePlan, seed int64) error {
	sg := prophet.NewSurrogate(prophet.SurrogateConfig{Seed: surrogateSeed})
	bs, err := loadBenchesWith(ctx, &prophet.Options{Surrogate: sg})
	if err != nil {
		return err
	}
	profs := bs.profs
	for _, o := range plan.warm {
		c := plan.cells[o.key]
		if _, err := profs[c.b].EstimateCtx(ctx, c.req); err != nil {
			return fmt.Errorf("surrogate training cell %d: %w", o.key, err)
		}
	}
	st := newStream(plan.ops, seed)
	for i := 0; i < 2*len(plan.ops); i++ {
		c := plan.cells[st.at(i).key]
		id := lr.spans.begin("prophet.EstimateCtx+surrogate")
		_, err := profs[c.b].EstimateCtx(ctx, c.req)
		lr.spans.end(id)
		if err != nil {
			return fmt.Errorf("surrogate cell: %w", err)
		}
	}
	lr.p50("surrogate.predict_p50_us", lr.spans.durations("prophet.EstimateCtx+surrogate"), 1e3)
	return nil
}

// realrunPass times realrun.SpeedupCtx over the ground-truth cells of the
// offline Fig 12 grid, twice, and checks both runs agree.
func realrunPass(ctx context.Context, lr *layerRun, bs *benchSet, cores []int) error {
	first := map[[2]int]float64{}
	for r := 0; r < 2; r++ {
		for b, w := range bs.ws {
			for _, c := range cores {
				id := lr.spans.begin("realrun.SpeedupCtx")
				sp, err := realrun.SpeedupCtx(ctx, bs.profs[b].Tree, realrun.Config{Threads: c, Paradigm: w.Paradigm, Sched: w.Sched})
				lr.spans.end(id)
				if err != nil {
					return fmt.Errorf("realrun %s at %d: %w", w.Name, c, err)
				}
				k := [2]int{b, c}
				if r == 0 {
					first[k] = sp
				} else if sp != first[k] {
					lr.rep.fail("realrun %s at %d cores: %v then %v", w.Name, c, first[k], sp)
				}
			}
		}
	}
	lr.p50("realrun.cell_p50_ms", lr.spans.durations("realrun.SpeedupCtx"), 1)
	return nil
}
