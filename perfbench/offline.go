package main

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"time"

	"prophet"
	"prophet/internal/experiments"
	"prophet/internal/obs"
	"prophet/internal/stats"
	"prophet/internal/workloads"
)

// offline-paper is the paper's own batch use, with no HTTP: a round
// regenerates a reduced Fig 11 as fig11Ops harness calls of fig11Samples
// validation samples each, and a reduced Fig 12 (the eight benchmarks at
// fig12Cores) as one call. Every input is fixed, so every round gives the
// same figures; the seed only orders the calls within a round.
const (
	fig11Ops     = 100
	fig11Samples = 2
	// fig11Seed is the harness's own default seed; call i uses
	// fig11Seed+i.
	fig11Seed = 20120521
	// offlineSetupRuns is how many fresh processes measure the set-up.
	offlineSetupRuns = 11
	// harnessWorkers is the harness's worker pool, one per core here.
	harnessWorkers = 2
)

var fig12Cores = []int{2, 12}

// offlineOps is one round: the Fig 11 calls (class "fig11", the
// latency the end-to-end percentiles report) and the Fig 12 call.
func offlineOps() []op {
	ops := make([]op, 0, fig11Ops+1)
	for i := 0; i < fig11Ops; i++ {
		ops = append(ops, op{class: "fig11", cells: fig11Samples, key: i})
	}
	return append(ops, op{class: "fig12", cells: len(workloads.Names()) * len(fig12Cores), key: fig11Ops})
}

// figureDo runs one harness call per op. The first answer to each op is
// remembered; a later answer that differs is a failure, since every input
// is fixed. reg aggregates the harness's metrics in traced rounds.
type figureDo struct {
	mu    sync.Mutex
	first map[int][32]byte
	reg   *obs.Registry
}

func (f *figureDo) do(ctx context.Context, o *op, traced bool) outcome {
	var reg *obs.Registry
	if traced {
		reg = f.reg
	}
	t0 := time.Now()
	var pairs [][2]float64
	var digest [32]byte
	var err error
	if o.class == "fig11" {
		pairs, digest, err = f.fig11(ctx, o.key, reg)
	} else {
		pairs, digest, err = f.fig12(ctx, reg)
	}
	lat := time.Since(t0)
	if err != nil {
		return outcome{err: err}
	}
	f.mu.Lock()
	first, seen := f.first[o.key]
	if !seen {
		f.first[o.key] = digest
	}
	f.mu.Unlock()
	if seen && first != digest {
		return outcome{err: fmt.Errorf("%s call %d: figures differ from the first round's", o.class, o.key)}
	}
	var sum float64
	for _, p := range pairs {
		sum += stats.RelErr(p[0], p[1])
	}
	return outcome{lat: lat, errSum: sum, errN: len(pairs)}
}

// fig11 regenerates the Fig 11 samples of call i and returns the
// (predicted, real) pairs of its FF and SYN panels.
func (f *figureDo) fig11(ctx context.Context, i int, reg *obs.Registry) ([][2]float64, [32]byte, error) {
	h := experiments.NewCtx(ctx, experiments.Config{Samples: fig11Samples, Seed: fig11Seed + int64(i), Workers: harnessWorkers, Metrics: reg})
	res := h.Fig11()
	if res.Failed+res.Skipped > 0 {
		return nil, [32]byte{}, fmt.Errorf("fig 11 call %d: %d cells failed, %d skipped", i, res.Failed, res.Skipped)
	}
	d := sha256.New()
	var pairs [][2]float64
	for _, c := range res.Cases {
		scheds := make([]string, 0, len(c.Acc))
		for s := range c.Acc {
			scheds = append(scheds, s)
		}
		sort.Strings(scheds)
		emulated := strings.HasSuffix(c.Name, ", FF") || strings.HasSuffix(c.Name, ", SYN")
		for _, s := range scheds {
			got := c.Acc[s].Pairs()
			if len(got) != fig11Samples {
				return nil, [32]byte{}, fmt.Errorf("fig 11 call %d: %s %s has %d samples", i, c.Name, s, len(got))
			}
			for _, p := range got {
				hashFloats(d, p[0], p[1])
				if emulated {
					pairs = append(pairs, p)
				}
			}
		}
	}
	var sum [32]byte
	copy(sum[:], d.Sum(nil))
	return pairs, sum, nil
}

// fig12 regenerates the reduced Fig 12 and returns its (PredM, Real)
// pairs.
func (f *figureDo) fig12(ctx context.Context, reg *obs.Registry) ([][2]float64, [32]byte, error) {
	h := experiments.NewCtx(ctx, experiments.Config{Cores: fig12Cores, Workers: harnessWorkers, Metrics: reg})
	series := h.Fig12(nil)
	if len(series) != len(workloads.Names()) {
		return nil, [32]byte{}, fmt.Errorf("fig 12: %d panels, want %d", len(series), len(workloads.Names()))
	}
	d := sha256.New()
	var pairs [][2]float64
	for _, s := range series {
		if len(s.X) != len(fig12Cores) || len(s.Cols) != 4 || s.Cols[0] != "Real" || s.Cols[2] != "PredM" {
			return nil, [32]byte{}, fmt.Errorf("fig 12 %s: %d points of %v", s.Name, len(s.X), s.Cols)
		}
		for _, y := range s.Y {
			hashFloats(d, y...)
			pairs = append(pairs, [2]float64{y[2], y[0]})
		}
	}
	var sum [32]byte
	copy(sum[:], d.Sum(nil))
	return pairs, sum, nil
}

func hashFloats(w interface{ Write([]byte) (int, error) }, xs ...float64) {
	var b [8]byte
	for _, x := range xs {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
		w.Write(b[:])
	}
}

// runOffline runs offline-paper: cold set-up in fresh processes, then
// rounds of harness calls, one at a time (the harness itself runs two
// workers).
func runOffline(ctx context.Context, o runOpts) (*report, error) {
	rep := newReport()
	if err := measureSetup(ctx, "offline-paper", offlineSetupRuns, rep); err != nil {
		return nil, err
	}
	// Calibrate here too, so no measured call pays the lazy set-up.
	if _, err := prophet.CalibrateModelCtx(ctx, prophet.MachineConfig{}); err != nil {
		return nil, err
	}
	logf("set-up measured")
	ops := offlineOps()
	st := newStream(ops, o.seed)
	lp := loop{clients: 1, minTime: o.seconds, minRounds: minRounds}
	fd := &figureDo{first: map[int][32]byte{}}
	if !o.trace {
		ph := drive(ctx, fd.do, st, lp)
		rep.addPhase(ph)
		rep.endToEnd(ph, []string{"fig11"})
		rep.heapLive()
		return rep, nil
	}

	fd.reg = &obs.Registry{}
	lr, err := tracedPhase(ctx, rep, fd.do, st, lp, func() (obs.Snapshot, error) { return fd.reg.Snapshot(), nil })
	if err != nil {
		return nil, err
	}
	lr.common()
	lr.set("sweep.cells_ok", lr.counter(obs.MSweepCellsOK), 1)
	lr.set("sweep.cells_failed", lr.counter(obs.MSweepCellsFailed), 1)
	lr.set("sweep.cells_skipped", lr.counter(obs.MSweepCellsSkipped), 1)
	hits, misses := lr.counter(obs.MCacheHits), lr.counter(obs.MCacheMisses)
	lr.set("experiments.profile_cache_hit_ratio", ratio(hits, hits+misses), int(hits+misses))
	fig11 := lr.phaseSpans.durations("op.fig11")
	var sum float64
	for _, d := range fig11 {
		sum += d
	}
	rounds := len(fig11) / fig11Ops
	lr.set("experiments.fig11_s", ratio(sum/1e3, float64(rounds)), rounds)
	fig12 := lr.phaseSpans.durations("op.fig12")
	lr.set("experiments.fig12_s", median(fig12)/1e3, len(fig12))

	bs, err := loadBenches(ctx)
	if err != nil {
		return nil, err
	}
	nodes := 0
	for _, p := range bs.profs {
		nodes += int(p.Compression.NodesAfter)
	}
	lr.set("compress.nodes_after", float64(nodes), len(bs.profs))
	if err := realrunPass(ctx, lr, bs, fig12Cores); err != nil {
		return nil, err
	}
	rep.heapLive()
	return rep, nil
}

// setupOffline is the lazy set-up every Fig 12 cell would otherwise wait
// on: calibrating the harness machine's memory model.
func setupOffline(ctx context.Context) (setupReport, error) {
	start := time.Now()
	if _, err := prophet.CalibrateModelCtx(ctx, prophet.MachineConfig{}); err != nil {
		return setupReport{}, err
	}
	s := time.Since(start).Seconds()
	return setupReport{SetupS: s, CalibrateMS: 1e3 * s}, nil
}
