// Package baseline implements the comparison predictors of the paper's
// Table I and §II:
//
//   - Amdahl's law and Gustafson's law, the analytical bounds;
//   - the Karp–Flatt metric (experimentally determined serial fraction);
//   - a Kismet-style upper bound: hierarchical critical-path analysis of
//     the program tree, which (like Kismet) can only bound the speedup
//     from above and cannot predict saturation;
//   - a Suitability-style emulator modeling Intel Parallel Advisor's
//     Suitability analysis as the paper characterizes it (§II, §IV-D,
//     Fig. 11(f), Fig. 12 'Suit'): an FF-like emulator whose scheduling is
//     "close to OpenMP's (dynamic,1)", that cannot differentiate the
//     requested schedule, carries coarser overhead constants (the paper
//     observes it overestimates parallel overhead for frequent inner
//     loops), has the same non-preemptive nested limitation as the FF, and
//     has no memory model.
package baseline

import (
	"context"

	"prophet/internal/clock"
	"prophet/internal/ff"
	"prophet/internal/omprt"
	"prophet/internal/tree"
)

// Amdahl returns Amdahl's-law speedup for a program whose parallelizable
// fraction is f, on p processors: 1 / ((1-f) + f/p).
func Amdahl(f float64, p int) float64 {
	if p < 1 {
		p = 1
	}
	if f < 0 {
		f = 0
	}
	if f > 1 {
		f = 1
	}
	return 1 / ((1 - f) + f/float64(p))
}

// Gustafson returns Gustafson's-law scaled speedup: (1-f) + f·p.
func Gustafson(f float64, p int) float64 {
	if p < 1 {
		p = 1
	}
	if f < 0 {
		f = 0
	}
	if f > 1 {
		f = 1
	}
	return (1 - f) + f*float64(p)
}

// KarpFlatt returns the experimentally determined serial fraction e from a
// measured speedup s on p processors: e = (1/s − 1/p) / (1 − 1/p).
func KarpFlatt(s float64, p int) float64 {
	if p <= 1 || s <= 0 {
		return 1
	}
	return (1/s - 1/float64(p)) / (1 - 1/float64(p))
}

// ParallelFraction returns the fraction of the program tree's serial time
// that lies inside parallel sections — the f to feed Amdahl's law.
func ParallelFraction(root *tree.Node) float64 {
	total := root.TotalLen()
	if total == 0 {
		return 0
	}
	var par clock.Cycles
	for _, sec := range root.TopLevelSections() {
		par += sec.TotalLen()
	}
	return float64(par) / float64(total)
}

// AmdahlFromTree applies Amdahl's law to a profiled tree.
func AmdahlFromTree(root *tree.Node, p int) float64 {
	return Amdahl(ParallelFraction(root), p)
}

// CriticalPath returns (T1, T∞) of the tree: total work and the length of
// the longest chain that must execute sequentially, assuming every task of
// every section can run in parallel (locks are kept on the chain as
// ordinary computation, which preserves the upper-bound property).
//
// Repeat counts are interpreted by the parent's semantics: a repeated Task
// under a Sec stands for parallel siblings (span = one instance), while
// repeated nodes inside a Task or at the Root are sequential (span
// multiplies).
func CriticalPath(n *tree.Node) (t1, tinf clock.Cycles) {
	w1, s1 := pathOne(n)
	r := clock.Cycles(n.Reps())
	return w1 * r, s1 * r
}

// pathOne returns (work, span) of a single instance of n, ignoring
// n.Repeat (the caller applies it per its own semantics).
func pathOne(n *tree.Node) (w, s clock.Cycles) {
	switch n.Kind {
	case tree.U, tree.L, tree.W:
		return n.Len, n.Len
	case tree.Sec:
		// Children are parallel tasks: work adds (times each task's
		// repeat run), span is the longest single task instance.
		for _, c := range n.Children {
			cw, cs := pathOne(c)
			w += cw * clock.Cycles(c.Reps())
			if cs > s {
				s = cs
			}
		}
		return w, s
	default: // Root, Task: children are sequential, repeats included.
		for _, c := range n.Children {
			cw, cs := pathOne(c)
			w += cw * clock.Cycles(c.Reps())
			s += cs * clock.Cycles(c.Reps())
		}
		return w, s
	}
}

// KismetBound returns the Kismet-style speedup upper bound on p cores:
// T1 / max(T∞, T1/p). Like Kismet it knows nothing about schedules,
// runtime overhead, or memory, so it only bounds from above (Table I).
func KismetBound(root *tree.Node, p int) float64 {
	if p < 1 {
		p = 1
	}
	t1, tinf := CriticalPath(root)
	if t1 == 0 {
		return 1
	}
	bound := float64(t1) / float64(p)
	if float64(tinf) > bound {
		bound = float64(tinf)
	}
	return float64(t1) / bound
}

// SuitabilityOverheads returns the coarse overhead constants of the
// Suitability model: region entry is expensive (the paper notes it
// overestimates the cost of frequently invoked inner parallel loops, which
// is why its LU prediction is low in Fig. 12(b)).
func SuitabilityOverheads() omprt.Overheads {
	ov := omprt.DefaultOverheads()
	ov.ForkPerThread *= 4
	ov.JoinBarrier *= 4
	ov.Dispatch *= 2
	return ov
}

// Suitability predicts speedup the way the paper models Intel Parallel
// Advisor's Suitability analysis.
type Suitability struct {
	// Threads is the CPU count to predict for. The out-of-the-box tool
	// only reports speedups for 2^N CPU numbers; as the paper's Fig. 12
	// caption describes ("The predictions of Suitability for 6/10/12
	// cores are interpolated"), non-power-of-two counts are linearly
	// interpolated between the neighbouring powers of two (and 12
	// extrapolated from 8 toward 16).
	Threads int
}

// atPowerOfTwo evaluates the underlying emulator at an exact CPU count.
func (s *Suitability) atPowerOfTwo(ctx context.Context, root *tree.Node, threads int) (float64, error) {
	e := &ff.Emulator{
		Threads:   threads,
		Sched:     omprt.SchedDynamic1,
		Ov:        SuitabilityOverheads(),
		UseBurden: false,
	}
	return e.SpeedupCtx(ctx, root)
}

// SpeedupCtx returns the Suitability estimate: an FF emulation pinned to
// (dynamic,1) with coarse overheads, no burden factors, the
// non-preemptive nested limitation, and 2^N-only native outputs. The FF
// runs poll ctx.
func (s *Suitability) SpeedupCtx(ctx context.Context, root *tree.Node) (float64, error) {
	t := s.Threads
	if t < 1 {
		t = 1
	}
	if t&(t-1) == 0 { // native power-of-two output
		return s.atPowerOfTwo(ctx, root, t)
	}
	lo := 1
	for lo*2 < t {
		lo *= 2
	}
	hi := lo * 2
	sLo, err := s.atPowerOfTwo(ctx, root, lo)
	if err != nil {
		return 0, err
	}
	sHi, err := s.atPowerOfTwo(ctx, root, hi)
	if err != nil {
		return 0, err
	}
	frac := float64(t-lo) / float64(hi-lo)
	return sLo + frac*(sHi-sLo), nil
}
