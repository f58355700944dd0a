package memmodel

import (
	"fmt"

	"prophet/internal/counters"
)

// Explanation exposes every intermediate quantity of the burden-factor
// computation (Eq. 1–5), so users can see *why* a section received its
// β_t — the transparency a first-order model owes its users.
type Explanation struct {
	Threads int
	// Inputs (from the section's counters).
	N   int64   // instructions
	T   int64   // cycles
	D   int64   // LLC misses
	MPI float64 // D/N
	// DeltaMBps is the serial DRAM traffic δ.
	DeltaMBps float64
	// Gate is non-empty when an assumption gate short-circuited the
	// model (β = 1), naming the §V assumption that fired.
	Gate string
	// Model terms (zero when gated).
	Omega      float64 // ω = Φ(δ): per-miss stall of the serial run
	CPICache   float64 // CPI$ from Eq. (1)
	DeltaT     float64 // δ_t = Ψ(δ): per-thread traffic under contention
	OmegaT     float64 // ω_t = Φ(δ_t)
	Burden     float64 // β_t from Eq. (3)
	MemoryTime float64 // fraction of T attributed to memory (ω·D/T)
}

// Explain computes the burden factor for (s, t) and returns every
// intermediate. Explain(s, t).Burden always equals Burden(s, t).
func (m *Model) Explain(s counters.Sample, t int) Explanation {
	e := m.burden(s, t)
	x := Explanation{
		Threads:    t,
		N:          s.Instructions,
		T:          int64(s.Cycles),
		D:          s.LLCMisses,
		MPI:        e.mpi,
		DeltaMBps:  e.delta,
		Omega:      e.omega,
		CPICache:   e.cpiCache,
		DeltaT:     e.deltaT,
		OmegaT:     e.omegaT,
		Burden:     e.beta,
		MemoryTime: e.memFrac,
	}
	switch e.gate {
	case gateSingleThread:
		x.Gate = "single thread"
	case gateNoData:
		x.Gate = "no profile data"
	case gateLowMPI:
		x.Gate = fmt.Sprintf("Assumption 5: MPI %.5f below %.5f", e.mpi, m.MinMPI)
	case gateLowTraffic:
		x.Gate = fmt.Sprintf("traffic %.0f MB/s below Eq.(6/7) floor %.0f", e.delta, m.MinTrafficMBps)
	case gateNoPsi:
		x.Gate = "no Psi calibration"
	}
	return x
}

// String renders the explanation as a short multi-line report.
func (e Explanation) String() string {
	if e.Gate != "" {
		return fmt.Sprintf("t=%d: beta=1 (%s)", e.Threads, e.Gate)
	}
	return fmt.Sprintf(
		"t=%d: N=%d T=%d D=%d MPI=%.4f delta=%.0fMB/s\n"+
			"  omega=%.1f cyc/miss, CPI$=%.3f, delta_t=%.0fMB/s, omega_t=%.1f\n"+
			"  beta=%.3f (memory is %.0f%% of serial time)",
		e.Threads, e.N, e.T, e.D, e.MPI, e.DeltaMBps,
		e.Omega, e.CPICache, e.DeltaT, e.OmegaT,
		e.Burden, 100*e.MemoryTime)
}
