// Package workloads defines the annotated serial programs the evaluation
// runs: the Test1/Test2 random program generators of the paper's Fig. 9
// and Fig. 10 (§VII-B validation), and the eight OmpSCR/NPB benchmarks of
// §VII-C, modeled from the real kernels in internal/kernels.
//
// Every workload is a trace.Program — an annotated serial program in the
// sense of Table II — whose Compute calls carry an
// (instruction-cycles, LLC-misses) cost model. The loop structures and
// trip counts come from the real kernel implementations; the miss counts
// come from the kernels' array footprints versus the simulated 12 MB LLC
// (cross-checked against the cache simulator in the tests). Inputs are
// scaled down from the paper's (a discrete-event simulator is slower than
// silicon); footprint-to-LLC ratios are preserved so each benchmark stays
// in its class: compute-bound (MD, LU, QSort, EP) or bandwidth-bound
// (FFT, FT, MG, CG).
package workloads

import (
	"fmt"
	"sort"

	"prophet/internal/counters"
	"prophet/internal/machine"
	"prophet/internal/omprt"
	"prophet/internal/synth"
	"prophet/internal/trace"
)

// Workload couples an annotated serial program with the parallelization
// the paper applies to it.
type Workload struct {
	// Name is the paper's benchmark name, e.g. "NPB-FT".
	Name string
	// Desc is a one-line description including the scaled input.
	Desc string
	// Paradigm is the threading model the paper parallelizes with.
	Paradigm synth.Paradigm
	// Sched is the OpenMP schedule used by the paper's parallelization
	// (ignored for Cilk workloads).
	Sched omprt.Sched
	// Program is the annotated serial program.
	Program trace.Program
	// FootprintBytes is the dominant working-set size, for reports.
	FootprintBytes int64
}

// LLCBytes is the simulated machine's last-level cache size (12 MB, as on
// the paper's Westmere).
var LLCBytes = machine.Default().LLC.SizeBytes

// streamMisses models the LLC misses of streaming `bytes` of data that
// belong to a working set of wsBytes: if the working set fits in the LLC
// the stream stays resident across passes (≈0 misses); otherwise every
// line must be refetched. The threshold behaviour is validated against
// the set-associative cache simulator in the tests.
func streamMisses(bytes, wsBytes int64) int64 {
	if wsBytes <= LLCBytes {
		return 0
	}
	return bytes / counters.LineSize
}

// registry of the eight paper benchmarks, built lazily.
var registry = map[string]func() *Workload{
	"MD-OMP":     NewMD,
	"LU-OMP":     NewLU,
	"FFT-Cilk":   NewFFT,
	"QSort-Cilk": NewQSort,
	"NPB-EP":     NewEP,
	"NPB-FT":     NewFT,
	"NPB-CG":     NewCG,
	"NPB-MG":     NewMG,
	"NPB-IS":     NewIS,
}

// Names returns the benchmark names in the paper's Fig. 12 order (the
// eight evaluated benchmarks; NPB-IS — the §VI-B compression stress case —
// is additionally available through ByName).
func Names() []string {
	return []string{"MD-OMP", "LU-OMP", "FFT-Cilk", "QSort-Cilk", "NPB-EP", "NPB-FT", "NPB-CG", "NPB-MG"}
}

// ByName builds the named benchmark workload.
func ByName(name string) (*Workload, error) {
	f, ok := registry[name]
	if !ok {
		names := make([]string, 0, len(registry))
		for n := range registry {
			names = append(names, n)
		}
		sort.Strings(names)
		return nil, fmt.Errorf("workloads: unknown benchmark %q (have %v)", name, names)
	}
	return f(), nil
}

// All builds every benchmark in Fig. 12 order.
func All() []*Workload {
	out := make([]*Workload, 0, len(registry))
	for _, n := range Names() {
		w, _ := ByName(n)
		out = append(out, w)
	}
	return out
}
