package prophet

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// lockedImbalancedProgram is an annotated loop of uneven tasks, each with
// a critical section: enough structure that the per-core lanes differ
// between schedules and show lock waits as idle gaps.
func lockedImbalancedProgram(n int) Program {
	return func(ctx Context) {
		ctx.SecBegin("loop")
		for i := 0; i < n; i++ {
			ctx.TaskBegin("it")
			ctx.Compute(int64(20_000+15_000*(i%4)), 0)
			ctx.LockBegin(1)
			ctx.Compute(4_000, 0)
			ctx.LockEnd(1)
			ctx.Compute(int64(5_000*(i%3)), 0)
			ctx.TaskEnd()
		}
		ctx.SecEnd(false)
	}
}

// TestTimelineGolden pins the text Gantt chart and utilization map that
// TimelineCtx renders, byte for byte: two schedules of one program, and
// one run stopped by the watchdog budget, whose partial chart comes back
// together with the error.
//
//	go test . -run TestTimelineGolden -update
func TestTimelineGolden(t *testing.T) {
	var b strings.Builder
	render := func(title string, mc MachineConfig, req Request) {
		p, err := ProfileProgramCtx(context.Background(), lockedImbalancedProgram(12), &Options{
			Machine:            mc,
			DisableMemoryModel: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		gantt, util, err := p.TimelineCtx(context.Background(), req, 60)
		fmt.Fprintf(&b, "== %s\n%s", title, gantt)
		cores := make([]int, 0, len(util))
		for c := range util {
			cores = append(cores, c)
		}
		sort.Ints(cores)
		for _, c := range cores {
			fmt.Fprintf(&b, "util core %d = %v\n", c, util[c])
		}
		fmt.Fprintf(&b, "err = %v\n\n", err)
	}
	render("4 threads, (static)", testMachine(4), Request{Threads: 4, Sched: Static})
	render("6 threads on 4 cores, (dynamic,1)", testMachine(4), Request{Threads: 6, Sched: Dynamic1})
	budget := testMachine(4)
	budget.MaxEvents = 40
	render("6 threads on 4 cores, (dynamic,1), MaxEvents 40", budget, Request{Threads: 6, Sched: Dynamic1})

	path := filepath.Join("results", "golden", "timeline.golden")
	got := b.String()
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (regenerate with `go test . -run TestTimelineGolden -update`): %v", err)
	}
	if got != string(want) {
		t.Errorf("timeline drifted from golden file %s:\ngot:\n%s\nwant:\n%s", path, got, want)
	}
}

// TestTimelineCtxMachine: a named machine renders on that machine's
// cores, and an unknown name is an error, not an empty chart.
func TestTimelineCtxMachine(t *testing.T) {
	p, err := ProfileProgramCtx(context.Background(), lockedImbalancedProgram(8), &Options{DisableMemoryModel: true})
	if err != nil {
		t.Fatal(err)
	}
	gantt, util, err := p.TimelineCtx(context.Background(), Request{Machine: "embedded4+4", Sched: Static}, 40)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(gantt, "core  7") || len(util) != 8 {
		t.Errorf("embedded4+4 timeline should fill its 8 cores (utilization %v):\n%s", util, gantt)
	}
	if _, _, err := p.TimelineCtx(context.Background(), Request{Machine: "no-such-machine"}, 40); !errors.Is(err, ErrUnknownMachine) {
		t.Errorf("unknown machine err = %v, want ErrUnknownMachine", err)
	}
}
