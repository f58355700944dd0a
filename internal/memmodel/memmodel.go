// Package memmodel implements the paper's lightweight memory performance
// model (§V): burden factors β_t that dilate a section's computation when
// the parallelized program would saturate DRAM bandwidth.
//
// The model follows the paper's equations exactly:
//
//	T = CPI$·N + ω·D                        (Eq. 1)
//	β_t = (CPI$ + MPI·ω_t) / (CPI$ + MPI·ω)  (Eq. 3)
//	δ_t = Ψ(δ)                               (Eq. 4)
//	ω_t = Φ(δ_t)                             (Eq. 5)
//
// Ψ (per-thread achieved traffic as a function of serial traffic) and Φ
// (per-miss stall as a function of achieved traffic) are empirical: the
// paper measures them with a microbenchmark on its Westmere and fits
// Eq. (6)/(7); this reproduction runs the same microbenchmark against the
// simulated machine (CalibrateCtx) and fits the same functional forms —
// linear for two threads, a·ln δ + b for four or more, and a power law for
// Φ. PaperModel returns the paper's literal coefficients for cross-checks.
package memmodel

import (
	"fmt"
	"sort"

	"prophet/internal/clock"
	"prophet/internal/counters"
	"prophet/internal/fit"
	"prophet/internal/tree"
)

// Defaults from §V: assumptions 4 and 5.
const (
	// DefaultMinMPI is the LLC-misses-per-instruction floor below which
	// β_t = 1 (Assumption 5: "less than 0.001").
	DefaultMinMPI = 0.001
	// DefaultMinTrafficMBps is Eq. (6)/(7)'s validity floor
	// ("only when δ ≥ 2000 MB/s").
	DefaultMinTrafficMBps = 2000
)

// PsiKind selects Ψ's functional form for one thread count.
type PsiKind uint8

// Ψ forms used by the paper's Eq. (6).
const (
	PsiLinear PsiKind = iota // δ_t = (A·δ + B)   (t = 2 in the paper)
	PsiLog                   // δ_t = A·ln δ + B  (t >= 4)
)

// Psi is the fitted per-thread traffic function for one thread count,
// already divided by t (the paper's right-hand sides carry the /t).
type Psi struct {
	Kind PsiKind
	A, B float64
}

// Eval returns the predicted per-thread achieved traffic (MB/s) when t
// threads each behave like the profiled serial program with traffic δ.
// The result is clamped to (0, δ]: contention never increases per-thread
// traffic.
func (p Psi) Eval(delta float64) float64 {
	var v float64
	switch p.Kind {
	case PsiLog:
		v = fit.LogLine{A: p.A, B: p.B}.Eval(delta)
	default:
		v = p.A*delta + p.B
	}
	if v > delta {
		v = delta
	}
	if v < 1 {
		v = 1
	}
	return v
}

// Model is a calibrated memory performance model.
type Model struct {
	// Hz converts cycles to seconds for MB/s traffic figures.
	Hz float64
	// MinMPI and MinTrafficMBps gate the model (Assumptions 4/5).
	MinMPI         float64
	MinTrafficMBps float64
	// Psi maps thread count to the fitted Ψ.
	Psi map[int]Psi
	// Phi is the fitted ω = A·δ^B power law (Eq. 7), δ in MB/s, ω in
	// cycles per miss.
	Phi fit.Power
}

// PaperModel returns the paper's literal Eq. (6)/(7) coefficients, fitted
// on their 12-core Westmere. Useful as a documented reference point and to
// unit-test the equation plumbing against numbers printed in the paper.
func PaperModel() *Model {
	return &Model{
		Hz:             clock.DefaultHz,
		MinMPI:         DefaultMinMPI,
		MinTrafficMBps: DefaultMinTrafficMBps,
		Psi: map[int]Psi{
			2:  {Kind: PsiLinear, A: 1.35 / 2, B: 1758.0 / 2},
			4:  {Kind: PsiLog, A: 5756.0 / 4, B: -38805.0 / 4},
			8:  {Kind: PsiLog, A: 6143.0 / 8, B: -39657.0 / 8},
			12: {Kind: PsiLog, A: 6314.0 / 12, B: -39621.0 / 12},
		},
		Phi: fit.Power{A: 101481, B: -0.964},
	}
}

// Omega returns Φ(δ): the modeled CPU stall per DRAM access at achieved
// traffic δ (MB/s).
func (m *Model) Omega(deltaMBps float64) float64 {
	if deltaMBps <= 0 {
		deltaMBps = 1
	}
	return m.Phi.Eval(deltaMBps)
}

// psiFor returns Ψ for thread count t, interpolating between calibrated
// thread counts when t itself was not calibrated.
func (m *Model) psiFor(t int) (Psi, bool) {
	if p, ok := m.Psi[t]; ok {
		return p, true
	}
	if len(m.Psi) == 0 {
		return Psi{}, false
	}
	ts := make([]int, 0, len(m.Psi))
	for k := range m.Psi {
		ts = append(ts, k)
	}
	sort.Ints(ts)
	if t <= ts[0] {
		return m.Psi[ts[0]], true
	}
	if t >= ts[len(ts)-1] {
		return m.Psi[ts[len(ts)-1]], true
	}
	// Between two calibrated counts: evaluate both and blend linearly at
	// Eval time. Encode by returning an interpolating closure-free form:
	// pick the nearer count (the paper only provides 2/4/8/12 and
	// interpolates the plots, so nearest is faithful enough for Ψ).
	lo, hi := ts[0], ts[len(ts)-1]
	for _, k := range ts {
		if k <= t {
			lo = k
		}
	}
	for i := len(ts) - 1; i >= 0; i-- {
		if ts[i] >= t {
			hi = ts[i]
		}
	}
	if t-lo <= hi-t {
		return m.Psi[lo], true
	}
	return m.Psi[hi], true
}

// Burden returns β_t for a section whose serial profile produced sample s,
// when parallelized on t threads (Eq. 3, with the Assumption-4/5 gates).
// The result is always >= 1.
func (m *Model) Burden(s counters.Sample, t int) float64 {
	if t <= 1 || s.Instructions == 0 || s.Cycles == 0 {
		return 1
	}
	mpi := s.MPI()
	if mpi < m.MinMPI {
		return 1 // Assumption 5: negligible memory traffic.
	}
	delta := s.TrafficMBps(m.Hz)
	if delta < m.MinTrafficMBps {
		return 1
	}
	psi, ok := m.psiFor(t)
	if !ok {
		return 1
	}
	omega := m.Omega(delta) // ω for the serial run
	deltaT := psi.Eval(delta)
	omegaT := m.Omega(deltaT) // ω_t under contention
	if omegaT < omega {
		omegaT = omega
	}
	// Eq. 1 gives CPI$ from the measured T, N, D and modeled ω.
	n := float64(s.Instructions)
	d := float64(s.LLCMisses)
	cpiC := (float64(s.Cycles) - omega*d) / n
	if cpiC < 0 {
		cpiC = 0
	}
	beta := (cpiC + mpi*omegaT) / (cpiC + mpi*omega)
	if beta < 1 {
		beta = 1
	}
	return beta
}

// AssignBurdens computes and stores β_t on every top-level section of the
// tree for each requested thread count (the numbers shown in Fig. 4's
// margin). Sections without counters get no burden (treated as 1).
func (m *Model) AssignBurdens(root *tree.Node, threadCounts []int) {
	for _, sec := range root.TopLevelSections() {
		if sec.Counters == nil {
			continue
		}
		if sec.Burden == nil {
			sec.Burden = make(map[int]float64, len(threadCounts))
		}
		for _, t := range threadCounts {
			sec.Burden[t] = m.Burden(*sec.Counters, t)
		}
	}
}

// AssignBurdensAveraged is the paper's exact §V policy: "Note that a
// burden factor is estimated for each top-level parallel section. If a
// top-level parallel section is executed multiple times, we take an
// average." Sections are grouped by annotation name (the static section),
// the per-execution burden factors are averaged (weighted by execution
// count for Repeat-compressed instances), and the average is assigned to
// every instance of that name.
//
// AssignBurdens (per dynamic execution) is strictly finer-grained; this
// variant exists for fidelity and for sections whose behaviour genuinely
// varies between executions, where the tool must commit to one factor.
func (m *Model) AssignBurdensAveraged(root *tree.Node, threadCounts []int) {
	type acc struct {
		sum    map[int]float64
		weight float64
		secs   []*tree.Node
	}
	groups := map[string]*acc{}
	var order []string
	for _, sec := range root.TopLevelSections() {
		if sec.Counters == nil {
			continue
		}
		g, ok := groups[sec.Name]
		if !ok {
			g = &acc{sum: make(map[int]float64, len(threadCounts))}
			groups[sec.Name] = g
			order = append(order, sec.Name)
		}
		w := float64(sec.Reps())
		for _, t := range threadCounts {
			g.sum[t] += m.Burden(*sec.Counters, t) * w
		}
		g.weight += w
		g.secs = append(g.secs, sec)
	}
	for _, name := range order {
		g := groups[name]
		if g.weight == 0 {
			continue
		}
		for _, sec := range g.secs {
			if sec.Burden == nil {
				sec.Burden = make(map[int]float64, len(threadCounts))
			}
			for _, t := range threadCounts {
				sec.Burden[t] = g.sum[t] / g.weight
			}
		}
	}
}

// String summarizes the model's fitted formulas in the style of Eq. (6)/(7).
func (m *Model) String() string {
	s := fmt.Sprintf("Phi: w = %.4g * d^%.4g\n", m.Phi.A, m.Phi.B)
	ts := make([]int, 0, len(m.Psi))
	for t := range m.Psi {
		ts = append(ts, t)
	}
	sort.Ints(ts)
	for _, t := range ts {
		p := m.Psi[t]
		switch p.Kind {
		case PsiLog:
			s += fmt.Sprintf("Psi[%2d]: d%d = %.4g*ln(d) %+.4g\n", t, t, p.A, p.B)
		default:
			s += fmt.Sprintf("Psi[%2d]: d%d = %.4g*d %+.4g\n", t, t, p.A, p.B)
		}
	}
	return s
}
