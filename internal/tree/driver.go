package tree

import (
	"context"
	"fmt"

	"prophet/internal/clock"
)

// SectionFunc emulates one run of the top-level section sec, with every
// profiled length scaled by burden, and returns its duration.
type SectionFunc func(ctx context.Context, sec *Node, burden float64) (clock.Cycles, error)

// Driver is the whole-program loop every emulator shares: the formula of
// §IV-E (emulated top-level sections plus the untouched serial regions
// between them, then serial ÷ predicted) around one engine's Section.
type Driver struct {
	// Threads is the thread count burden factors are resolved at.
	Threads int
	// UseBurden passes each section's β_Threads to Section (the paper's
	// "PredM"); otherwise Section gets 1.
	UseBurden bool
	// EveryOccurrence emulates every occurrence of a section node, so a
	// trace shows each one; otherwise each distinct node is emulated
	// once.
	EveryOccurrence bool
	// Section is the engine's emulation of one top-level section.
	Section SectionFunc
}

// memoPrefix is how many distinct sections the driver memoizes before it
// needs a hit: a map operation per section costs more than it saves on a
// tree whose sections are all distinct (LU-OMP has 511), so a hit-free
// prefix this long switches the memo off for the rest of the estimate.
const memoPrefix = 32

// PredictTime returns the emulated parallel time of the whole program.
//
// Compression's dictionary pass makes identical sections one shared node,
// and a section's emulation depends only on that node (its burden factors
// live on it) and the engine's configuration, so a later occurrence reuses
// the first one's duration bit-identically. The memo stays on only while
// it pays: once memoPrefix sections have been emulated without a hit, the
// rest are emulated as they come. ctx is polled before each section is
// emulated. A Repeat-compressed section ran Reps times back to back, so
// its duration is multiplied.
func (d Driver) PredictTime(ctx context.Context, root *Node) (clock.Cycles, error) {
	var memo map[*Node]clock.Cycles
	if n := root.sectionCount(); n > 1 && !d.EveryOccurrence {
		memo = make(map[*Node]clock.Cycles, min(n, memoPrefix))
	}
	hit := false
	total := root.SerialOutsideSections()
	for _, sec := range root.Children {
		if sec.Kind != Sec {
			continue
		}
		dur, ok := memo[sec]
		hit = hit || ok
		if !ok {
			if err := ctx.Err(); err != nil {
				return 0, fmt.Errorf("emulation aborted before section %q: %w", sec.Name, err)
			}
			burden := 1.0
			if d.UseBurden {
				burden = sec.BurdenFor(d.Threads)
			}
			var err error
			if dur, err = d.Section(ctx, sec, burden); err != nil {
				return 0, err
			}
			switch {
			case memo == nil:
			case !hit && len(memo) == memoPrefix:
				memo = nil
			default:
				memo[sec] = dur
			}
		}
		total += dur * clock.Cycles(sec.Reps())
	}
	return total, nil
}

// Speedup returns the profiled serial time ÷ PredictTime.
func (d Driver) Speedup(ctx context.Context, root *Node) (float64, error) {
	pred, err := d.PredictTime(ctx, root)
	if err != nil {
		return 0, err
	}
	return Speedup(root.TotalLen(), pred), nil
}

// Speedup is serial ÷ parallel time, and 1 when the parallel time is not
// positive (a program with nothing to run).
func Speedup(serial, parallel clock.Cycles) float64 {
	if parallel <= 0 {
		return 1
	}
	return float64(serial) / float64(parallel)
}

// Scaled stretches a profiled length by a burden factor (§V), rounded to
// the nearest cycle; a factor of 1 returns l unchanged.
func Scaled(l clock.Cycles, burden float64) clock.Cycles {
	if burden == 1 {
		return l
	}
	return clock.Cycles(float64(l)*burden + 0.5)
}

func (n *Node) sectionCount() int {
	count := 0
	for _, c := range n.Children {
		if c.Kind == Sec {
			count++
		}
	}
	return count
}
