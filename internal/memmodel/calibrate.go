package memmodel

import (
	"context"

	"prophet/internal/clock"
	"prophet/internal/counters"
	"prophet/internal/fit"
	"prophet/internal/sim"
)

// CalibrationPoint is one microbenchmark measurement.
type CalibrationPoint struct {
	// Threads that ran concurrently.
	Threads int
	// SerialDelta is the unconstrained single-thread traffic of this
	// intensity (MB/s) — the Ψ input.
	SerialDelta float64
	// PerThreadDelta is the achieved per-thread traffic (MB/s) — the Ψ
	// output and the Φ input.
	PerThreadDelta float64
	// Omega is the measured CPU stall per miss (cycles) — the Φ output.
	Omega float64
}

// CalibrationData holds every point measured during CalibrateCtx, for reports
// and the Fig.-Eq.6/7 regeneration harness.
type CalibrationData struct {
	Points []CalibrationPoint
}

// intensities are the instruction-cycles-per-miss mixes swept by the
// microbenchmark, from pure streaming (0) to compute-heavy. The paper's
// microbenchmark "makes various degrees of DRAM traffic" the same way.
var intensities = []int64{0, 8, 16, 24, 40, 64, 96, 160, 256}

// measure runs t symmetric streaming threads of the given intensity on a
// fresh machine and returns (perThreadDelta MB/s, omega cycles/miss).
func measure(ctx context.Context, mc sim.Config, hz float64, t int, instrPerMiss int64) (float64, float64, error) {
	const missesPerThread = 20_000
	end, _, err := sim.Run(ctx, mc, sim.RunOpts{}, func(main *sim.Thread) {
		ws := make([]*sim.Thread, 0, t-1)
		body := func(w *sim.Thread) {
			w.WorkMem(clock.Cycles(instrPerMiss*missesPerThread), missesPerThread)
		}
		for i := 1; i < t; i++ {
			ws = append(ws, main.Spawn(body))
		}
		body(main)
		for _, w := range ws {
			main.Join(w)
		}
	})
	if err != nil {
		return 0, 0, err
	}
	if end <= 0 {
		return 0, 0, nil
	}
	bytesPerCycle := float64(missesPerThread) * counters.LineSize / float64(end)
	delta := bytesPerCycle * hz / 1e6
	omega := (float64(end) - float64(instrPerMiss*missesPerThread)) / missesPerThread
	if omega < 0 {
		omega = 0
	}
	return delta, omega, nil
}

// CalibrateCtx runs the paper's §V-D microbenchmark against the simulated
// machine mc and fits Ψ for every thread count in threadCounts (linear for
// t = 2, a·ln δ + b otherwise, as Eq. (6) does) and Φ as a power law
// (Eq. (7), fitted on points with δ ≥ the traffic floor). The
// microbenchmark sweep checks ctx between machine runs and aborts with an
// error wrapping ctx.Err().
func CalibrateCtx(ctx context.Context, mc sim.Config, threadCounts []int) (*Model, CalibrationData, error) {
	// Context-switch noise would blur the symmetric measurement.
	mc.ContextSwitch = -1
	hz := clock.DefaultHz
	m := &Model{
		Hz:             hz,
		MinMPI:         DefaultMinMPI,
		MinTrafficMBps: DefaultMinTrafficMBps,
		Psi:            make(map[int]Psi),
	}
	var data CalibrationData

	// Single-thread sweep: the serial δ and the unloaded ω for each
	// intensity.
	serialDelta := make([]float64, len(intensities))
	serialOmega := make([]float64, len(intensities))
	for i, ipm := range intensities {
		d, w, err := measure(ctx, mc, hz, 1, ipm)
		if err != nil {
			return nil, data, err
		}
		serialDelta[i] = d
		serialOmega[i] = w
		data.Points = append(data.Points, CalibrationPoint{Threads: 1, SerialDelta: d, PerThreadDelta: d, Omega: w})
	}

	// Multi-thread sweeps: Ψ inputs/outputs and Φ points.
	var phiX, phiY []float64
	for _, t := range threadCounts {
		if t < 2 {
			continue
		}
		var xs, ys []float64
		for i, ipm := range intensities {
			d, w, err := measure(ctx, mc, hz, t, ipm)
			if err != nil {
				return nil, data, err
			}
			data.Points = append(data.Points, CalibrationPoint{
				Threads: t, SerialDelta: serialDelta[i], PerThreadDelta: d, Omega: w,
			})
			xs = append(xs, serialDelta[i])
			ys = append(ys, d)
			// Φ relates *achieved* traffic to the per-miss stall.
			// Like the paper's microbenchmark ("we manipulate
			// memory access patterns so that all memory
			// instructions miss L1 and L2"), only pure-streaming
			// points are used — mixed compute dilutes δ without
			// changing ω and would confound the fit — and only
			// saturated ones (ω above the unloaded floor), since
			// Eq. (7) is declared valid only for δ_t ≥ 2000 MB/s.
			if i == 0 && d > 0 && w > 1.05*serialOmega[i] {
				phiX = append(phiX, d)
				phiY = append(phiY, w)
			}
		}
		var psi Psi
		if t == 2 {
			l, err := fit.Linear(xs, ys)
			if err != nil {
				return nil, data, err
			}
			psi = Psi{Kind: PsiLinear, A: l.A, B: l.B}
		} else {
			l, err := fit.LogLinear(xs, ys)
			if err != nil {
				return nil, data, err
			}
			psi = Psi{Kind: PsiLog, A: l.A, B: l.B}
		}
		m.Psi[t] = psi
	}

	if len(phiX) < 2 {
		// Machine never saturated at these thread counts: fall back
		// to all measured points (Φ will be nearly flat, β ≈ 1, which
		// is the right answer for such a machine).
		for _, p := range data.Points {
			if p.PerThreadDelta > 0 && p.Omega > 0 {
				phiX = append(phiX, p.PerThreadDelta)
				phiY = append(phiY, p.Omega)
			}
		}
	}
	phi, err := fit.PowerLaw(phiX, phiY)
	if err != nil {
		return nil, data, err
	}
	m.Phi = phi
	return m, data, nil
}
