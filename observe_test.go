package prophet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"strings"
	"sync/atomic"
	"testing"
)

// TestObserverEndToEnd drives the full pipeline with an Observer attached:
// profile, estimate (both emulators) and ground truth, then checks that
// the trace exports as valid Chrome trace-event JSON with one lane per
// simulated core and that the metrics registry saw every stage.
func TestObserverEndToEnd(t *testing.T) {
	buf := &TraceBuffer{}
	reg := &Metrics{}
	p, err := ProfileProgramCtx(context.Background(), balancedProgram(16, 50_000), &Options{
		Machine:            testMachine(4),
		DisableMemoryModel: true,
		Observer:           Observer{Trace: buf, Metrics: reg},
	})
	if err != nil {
		t.Fatal(err)
	}
	req := Request{Threads: 4, Sched: Static}
	for _, m := range []Method{FastForward, Synthesizer} {
		r := req
		r.Method = m
		mustEstimate(t, p, r)
	}
	if _, err := p.RealSpeedupCtx(context.Background(), req); err != nil {
		t.Fatal(err)
	}

	if buf.Len() == 0 {
		t.Fatal("observer saw no execution events")
	}
	var out bytes.Buffer
	if err := buf.WriteChromeTrace(&out); err != nil {
		t.Fatal(err)
	}
	if err := ValidateChromeTrace(out.Bytes()); err != nil {
		t.Fatalf("trace does not validate: %v", err)
	}
	// One lane per simulated core: the synthesizer and ground-truth runs
	// on a 4-core machine must produce machine lanes 0..3.
	var trace struct {
		TraceEvents []struct {
			Name  string         `json:"name"`
			Phase string         `json:"ph"`
			PID   int            `json:"pid"`
			Args  map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(out.Bytes(), &trace); err != nil {
		t.Fatal(err)
	}
	lanes := map[string]bool{}
	for _, ev := range trace.TraceEvents {
		if ev.Phase == "M" && ev.Name == "thread_name" && ev.PID == 0 {
			lanes[ev.Args["name"].(string)] = true
		}
	}
	for _, want := range []string{"core 0", "core 1", "core 2", "core 3"} {
		if !lanes[want] {
			t.Errorf("trace missing lane %q (lanes: %v)", want, lanes)
		}
	}

	snap := reg.Snapshot()
	for _, h := range []string{"stage.profile_ns", "stage.compress_ns", "stage.emulate_ns"} {
		if snap.Histograms[h].Count == 0 {
			t.Errorf("histogram %s not recorded (snapshot: %+v)", h, snap.Histograms)
		}
	}
	if snap.Counters["sim.runs"] == 0 || snap.Counters["sim.events"] == 0 {
		t.Errorf("sim counters not recorded: %v", snap.Counters)
	}
}

// TestExplainBurdenDisabledGate pins the disabled-model contract: with the
// memory model off, a known section explains as a gated β = 1, and an
// unknown section reports not-found.
func TestExplainBurdenDisabledGate(t *testing.T) {
	p, err := ProfileProgramCtx(context.Background(), balancedProgram(8, 10_000), &Options{
		Machine:            testMachine(2),
		DisableMemoryModel: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	e, ok := p.ExplainBurden("loop", 8)
	if !ok {
		t.Fatal("known section not found")
	}
	if e.Gate != "memory model disabled" {
		t.Errorf("gate = %q, want \"memory model disabled\"", e.Gate)
	}
	if e.Burden != 1 {
		t.Errorf("burden = %g, want 1 (disabled model must not scale)", e.Burden)
	}
	if e.Threads != 8 {
		t.Errorf("threads = %d, want 8", e.Threads)
	}
	if _, ok := p.ExplainBurden("no-such-section", 8); ok {
		t.Error("unknown section reported found")
	}
}

// countdownCtx cancels itself after Err has been consulted n times: a
// deterministic way to cancel between two points of a curve sweep.
type countdownCtx struct {
	context.Context
	left atomic.Int64
}

func (c *countdownCtx) Err() error {
	if c.left.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// TestCurveCtxPartialOnCancel pins the cancellation contract of CurveCtx:
// points evaluated before the cancellation are returned alongside the
// error, and the point that observed the cancellation carries it in Err.
func TestCurveCtxPartialOnCancel(t *testing.T) {
	p, err := ProfileProgramCtx(context.Background(), balancedProgram(8, 10_000), &Options{
		Machine:            testMachine(4),
		DisableMemoryModel: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Suitability consults ctx exactly once per estimate (at entry), so a
	// budget of one Err() call completes the first point and cancels the
	// second.
	ctx := &countdownCtx{Context: context.Background()}
	ctx.left.Store(1)
	out, err := p.CurveCtx(ctx, Request{Method: Suitability}, []int{2, 4, 8})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(out) != 2 {
		t.Fatalf("got %d points, want 2 (one computed, one canceled)", len(out))
	}
	if out[0].Err != nil || out[0].Speedup <= 0 {
		t.Errorf("first point should have completed: %+v", out[0])
	}
	if out[1].Err == nil {
		t.Errorf("second point should carry the cancellation: %+v", out[1])
	}

	// A context canceled before the sweep starts returns the first
	// (canceled) point and the error — never a silent empty success.
	done, cancel := context.WithCancel(context.Background())
	cancel()
	out, err = p.CurveCtx(done, Request{Method: Suitability}, []int{2, 4, 8})
	if err == nil || len(out) != 1 || out[0].Err == nil {
		t.Fatalf("pre-canceled sweep: out=%d err=%v", len(out), err)
	}
}

// TestTimelineCtxReturnsError: a ground-truth failure comes back as the
// error, together with the non-empty chart of what ran up to it.
func TestTimelineCtxReturnsError(t *testing.T) {
	mc := testMachine(2)
	mc.MaxEvents = 10 // far below what any real run needs
	p, err := ProfileProgramCtx(context.Background(), balancedProgram(8, 10_000), &Options{
		Machine:            mc,
		DisableMemoryModel: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	gantt, _, err := p.TimelineCtx(context.Background(), Request{Threads: 2, Sched: Static}, 40)
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("TimelineCtx err = %v, want ErrBudgetExceeded", err)
	}
	if gantt == "" || strings.Contains(gantt, "empty") {
		t.Errorf("TimelineCtx returned no partial chart with its error:\n%s", gantt)
	}
}
