package obs

import (
	"errors"
	"strings"
	"testing"

	"prophet/internal/clock"
)

func slice(core, thread int, start, end int64) ExecEvent {
	return ExecEvent{Kind: KSlice, Time: clock.Cycles(start), End: clock.Cycles(end), Core: core, Thread: thread, Lock: -1}
}

// TestWriteGanttLanes renders a hand-built stream: one row per core in
// core order, the largest occupant of each bucket (the earlier slice on a
// tie), idle buckets as '.', and every event kind but KSlice ignored.
func TestWriteGanttLanes(t *testing.T) {
	events := []ExecEvent{
		slice(1, 2, 0, 50),
		{Kind: KSchedule, Time: 0, Core: 3, Thread: 7, Lock: -1}, // not a slice: no lane
		slice(0, 0, 0, 100),
		slice(1, 11, 50, 80),
		{Kind: KFFStep, Time: 0, End: 500, Core: 0, Thread: 9}, // FF steps do not widen the span
		slice(2, 4, 0, 5), // a tie in bucket 0: the earlier slice keeps it
		slice(2, 5, 5, 10),
	}
	var b strings.Builder
	if err := WriteGantt(&b, events, 10); err != nil {
		t.Fatal(err)
	}
	want := "timeline: 100 cycles, 3 cores, '.'=idle\n" +
		"core  0 |0000000000|\n" +
		"core  1 |22222bbb..|\n" +
		"core  2 |4.........|\n"
	if got := b.String(); got != want {
		t.Fatalf("gantt:\n%s\nwant:\n%s", got, want)
	}
}

// TestWriteGanttWidthAndGlyphs: widths below 10 clamp to 10, and thread
// ids past 9 use a-z, then '#'.
func TestWriteGanttWidthAndGlyphs(t *testing.T) {
	var events []ExecEvent
	for core, thread := range []int{9, 10, 35, 36} {
		events = append(events, slice(core, thread, 0, 10))
	}
	var b strings.Builder
	if err := WriteGantt(&b, events, 3); err != nil {
		t.Fatal(err)
	}
	for _, row := range []string{"|9999999999|", "|aaaaaaaaaa|", "|zzzzzzzzzz|", "|##########|"} {
		if !strings.Contains(b.String(), row) {
			t.Errorf("row %s missing:\n%s", row, b.String())
		}
	}
}

func TestWriteGanttEmpty(t *testing.T) {
	var b strings.Builder
	if err := WriteGantt(&b, []ExecEvent{{Kind: KSchedule, Core: 0}}, 40); err != nil {
		t.Fatal(err)
	}
	if b.String() != "(empty timeline)\n" {
		t.Fatalf("empty stream rendered %q", b.String())
	}
}

type failWriter struct{ after int }

func (w *failWriter) Write(p []byte) (int, error) {
	if w.after == 0 {
		return 0, errors.New("disk full")
	}
	w.after--
	return len(p), nil
}

// TestWriteGanttWriteError: a failing writer's error comes back, whether
// it fails on the header or on a lane.
func TestWriteGanttWriteError(t *testing.T) {
	events := []ExecEvent{slice(0, 0, 0, 10)}
	for _, after := range []int{0, 1} {
		if err := WriteGantt(&failWriter{after: after}, events, 10); err == nil {
			t.Errorf("writer failing after %d writes: no error", after)
		}
	}
	if err := WriteGantt(&failWriter{}, nil, 10); err == nil {
		t.Error("empty chart: writer error dropped")
	}
}

func TestUtilization(t *testing.T) {
	events := []ExecEvent{
		slice(0, 0, 0, 100),
		slice(1, 1, 0, 25),
		slice(1, 2, 50, 75),
		{Kind: KBlock, Time: 10, Core: 2, Thread: 3, Lock: -1},
	}
	u := Utilization(events)
	if len(u) != 2 || u[0] != 1 || u[1] != 0.5 {
		t.Fatalf("utilization = %v, want map[0:1 1:0.5]", u)
	}
	if len(Utilization(nil)) != 0 {
		t.Fatal("an empty stream has no utilization")
	}
}
