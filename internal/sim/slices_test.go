package sim

import (
	"context"
	"sort"
	"strings"
	"testing"

	"prophet/internal/clock"
	"prophet/internal/obs"
)

// slices runs main with a trace buffer attached and returns the makespan,
// the run stats and the KSlice events, in emission order.
func slices(t *testing.T, c Config, main func(*Thread)) (clock.Cycles, Stats, []obs.ExecEvent) {
	t.Helper()
	buf := &obs.TraceBuffer{}
	end, st, err := Run(context.Background(), c, RunOpts{Tracer: buf}, main)
	if err != nil {
		t.Fatal(err)
	}
	var out []obs.ExecEvent
	for _, ev := range buf.Events() {
		if ev.Kind == obs.KSlice {
			out = append(out, ev)
		}
	}
	return end, st, out
}

// TestRecorderCapturesSlices: the KSlice stream, which replaced the slice
// recorder as the source of timelines, accounts for exactly the run's
// busy time, and its last slice ends at the makespan.
func TestRecorderCapturesSlices(t *testing.T) {
	end, st, evs := slices(t, cfg(2), func(th *Thread) {
		w := th.Spawn(func(w *Thread) { w.Work(40_000) })
		th.Work(20_000)
		th.Join(w)
	})
	if len(evs) == 0 {
		t.Fatal("no slices traced")
	}
	var busy, last clock.Cycles
	for _, ev := range evs {
		busy += ev.End - ev.Time
		last = max(last, ev.End)
	}
	if busy != st.BusyCycles {
		t.Fatalf("slice busy %d != stats busy %d", busy, st.BusyCycles)
	}
	if last != end {
		t.Fatalf("slice makespan %d != run end %d", last, end)
	}
}

// TestRecorderIntervalsDisjointPerCore: a core never runs two KSlice
// intervals at once.
func TestRecorderIntervalsDisjointPerCore(t *testing.T) {
	_, _, evs := slices(t, cfg(2), func(th *Thread) {
		var ws []*Thread
		for i := 0; i < 6; i++ {
			n := clock.Cycles(15_000 + 5_000*i)
			ws = append(ws, th.Spawn(func(w *Thread) { w.Work(n) }))
		}
		for _, w := range ws {
			th.Join(w)
		}
	})
	perCore := map[int][]obs.ExecEvent{}
	for _, ev := range evs {
		perCore[ev.Core] = append(perCore[ev.Core], ev)
	}
	for core, list := range perCore {
		sort.Slice(list, func(i, j int) bool { return list[i].Time < list[j].Time })
		for i := 1; i < len(list); i++ {
			if list[i].Time < list[i-1].End {
				t.Fatalf("core %d: overlapping slices %+v and %+v", core, list[i-1], list[i])
			}
		}
	}
}

func TestGanttRendering(t *testing.T) {
	_, _, evs := slices(t, cfg(2), func(th *Thread) {
		w := th.Spawn(func(w *Thread) { w.Work(50_000) })
		th.Work(50_000)
		th.Join(w)
	})
	var b strings.Builder
	if err := obs.WriteGantt(&b, evs, 40); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "core  0") || !strings.Contains(out, "core  1") {
		t.Fatalf("missing core rows:\n%s", out)
	}
	// Both threads appear; no idle-only rows for a fully busy run.
	if !strings.Contains(out, "0") || !strings.Contains(out, "1") {
		t.Fatalf("thread glyphs missing:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 3 {
		t.Fatalf("lines = %d, want header + 2 cores:\n%s", len(lines), out)
	}
}

func TestGanttEmpty(t *testing.T) {
	var b strings.Builder
	if err := obs.WriteGantt(&b, nil, 40); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "empty") {
		t.Fatalf("empty timeline output: %q", b.String())
	}
}

// TestThreadGlyphs: threads render as 0-9, then a-z, then '#'.
func TestThreadGlyphs(t *testing.T) {
	var evs []obs.ExecEvent
	for core, thread := range []int{3, 10, 35, 99} {
		evs = append(evs, obs.ExecEvent{Kind: obs.KSlice, Time: 0, End: 100, Core: core, Thread: thread})
	}
	var b strings.Builder
	if err := obs.WriteGantt(&b, evs, 10); err != nil {
		t.Fatal(err)
	}
	for _, row := range []string{"|3333333333|", "|aaaaaaaaaa|", "|zzzzzzzzzz|", "|##########|"} {
		if !strings.Contains(b.String(), row) {
			t.Fatalf("glyph row %s missing:\n%s", row, b.String())
		}
	}
}

func TestUtilization(t *testing.T) {
	_, _, evs := slices(t, cfg(2), func(th *Thread) {
		w := th.Spawn(func(w *Thread) { w.Work(50_000) })
		th.Work(100_000) // core 0 fully busy; core 1 half busy
		th.Join(w)
	})
	u := obs.Utilization(evs)
	if u[0] < 0.99 {
		t.Fatalf("core 0 utilization = %.2f, want ~1", u[0])
	}
	if u[1] < 0.45 || u[1] > 0.55 {
		t.Fatalf("core 1 utilization = %.2f, want ~0.5", u[1])
	}
	if len(obs.Utilization(nil)) != 0 {
		t.Fatal("an empty stream should have no utilization")
	}
}
