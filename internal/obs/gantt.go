package obs

import (
	"fmt"
	"io"
	"sort"

	"prophet/internal/clock"
)

// Text timelines over the KSlice events of a machine run: the per-core
// lanes Fig. 5's boxes and Fig. 7's CPU rows draw by hand. Every other
// event kind is ignored, so a full TraceBuffer stream can be passed as is.

// sliceMakespan returns the latest KSlice end time.
func sliceMakespan(events []ExecEvent) clock.Cycles {
	var end clock.Cycles
	for _, ev := range events {
		if ev.Kind == KSlice && ev.End > end {
			end = ev.End
		}
	}
	return end
}

// Utilization returns each core's busy fraction of the makespan, summed
// over the KSlice events (empty when there are none): a saturated
// memory-bound run shows high busy fractions with low speedup, an
// I/O-bound run the opposite.
func Utilization(events []ExecEvent) map[int]float64 {
	span := sliceMakespan(events)
	out := map[int]float64{}
	if span == 0 {
		return out
	}
	for _, ev := range events {
		if ev.Kind == KSlice {
			out[ev.Core] += float64(ev.End-ev.Time) / float64(span)
		}
	}
	return out
}

// WriteGantt renders the KSlice events as a text timeline, one row per
// core, width columns wide (at least 10). Each cell shows the thread
// (0-9, then a-z, then '#') that occupied the core for the largest share
// of that time bucket; '.' is idle.
func WriteGantt(w io.Writer, events []ExecEvent, width int) error {
	if width < 10 {
		width = 10
	}
	span := sliceMakespan(events)
	if span == 0 {
		_, err := fmt.Fprintln(w, "(empty timeline)")
		return err
	}
	perCore := map[int][]ExecEvent{}
	for _, ev := range events {
		if ev.Kind == KSlice {
			perCore[ev.Core] = append(perCore[ev.Core], ev)
		}
	}
	cores := make([]int, 0, len(perCore))
	for c, list := range perCore {
		cores = append(cores, c)
		sort.Slice(list, func(i, j int) bool { return list[i].Time < list[j].Time })
	}
	sort.Ints(cores)
	if _, err := fmt.Fprintf(w, "timeline: %d cycles, %d cores, '.'=idle\n", span, len(cores)); err != nil {
		return err
	}
	bucket := float64(span) / float64(width)
	row := make([]byte, width)
	occupancy := make([]clock.Cycles, width)
	owner := make([]int, width)
	for _, c := range cores {
		for i := range row {
			row[i], occupancy[i], owner[i] = '.', 0, -1
		}
		for _, ev := range perCore[c] {
			lo := int(float64(ev.Time) / bucket)
			hi := int(float64(ev.End) / bucket)
			if hi >= width {
				hi = width - 1
			}
			for b := lo; b <= hi; b++ {
				bLo := clock.Cycles(float64(b) * bucket)
				bHi := clock.Cycles(float64(b+1) * bucket)
				if ov := min(ev.End, bHi) - max(ev.Time, bLo); ov > occupancy[b] {
					occupancy[b] = ov
					owner[b] = ev.Thread
				}
			}
		}
		for i, o := range owner {
			if o >= 0 {
				row[i] = threadGlyph(o)
			}
		}
		if _, err := fmt.Fprintf(w, "core %2d |%s|\n", c, row); err != nil {
			return err
		}
	}
	return nil
}

func threadGlyph(id int) byte {
	switch {
	case id < 10:
		return byte('0' + id)
	case id < 36:
		return byte('a' + id - 10)
	default:
		return '#'
	}
}
