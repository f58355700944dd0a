package tree

import (
	"context"
	"errors"
	"testing"

	"prophet/internal/clock"
)

// lenSection is a SectionFunc that emulates one run of a section as its
// serial length scaled by burden, and records every section it is asked
// for.
type lenSection struct{ seen []*Node }

func (l *lenSection) emulate(_ context.Context, sec *Node, burden float64) (clock.Cycles, error) {
	l.seen = append(l.seen, sec)
	return Scaled(sec.TotalLen()/clock.Cycles(sec.Reps()), burden), nil
}

// sharedRoot is U100, A, U7×3, B, A, A: two distinct section nodes, A
// shared by three occurrences, with serial gaps around them.
func sharedRoot() (root, a, b *Node) {
	a = NewSec("a", NewTask("t", NewU(40)))
	b = NewSec("b", NewTask("t", NewU(10)), NewTask("t", NewU(20)))
	a.Burden = map[int]float64{4: 1.5}
	gap := NewU(7)
	gap.Repeat = 3
	root = NewRoot(NewU(100), a, gap, b, a, a)
	return root, a, b
}

func TestDriverEmulatesDistinctSectionsOnce(t *testing.T) {
	root, a, b := sharedRoot()
	a.Repeat = 2 // every occurrence of a now stands for two runs
	l := &lenSection{}
	got, err := Driver{Threads: 4, Section: l.emulate}.PredictTime(context.Background(), root)
	if err != nil {
		t.Fatal(err)
	}
	// Serial gaps 100 + 7·3, plus a (40, ×2 runs) three times and b (30).
	if want := clock.Cycles(100 + 21 + 3*2*40 + 30); got != want {
		t.Errorf("PredictTime = %d, want %d", got, want)
	}
	if len(l.seen) != 2 || l.seen[0] != a || l.seen[1] != b {
		t.Errorf("emulated %d sections, want a then b once each", len(l.seen))
	}

	every := &lenSection{}
	again, err := Driver{Threads: 4, EveryOccurrence: true, Section: every.emulate}.PredictTime(context.Background(), root)
	if err != nil {
		t.Fatal(err)
	}
	if again != got || len(every.seen) != 4 {
		t.Errorf("EveryOccurrence: %d over %d sections, want %d over 4", again, len(every.seen), got)
	}
}

// TestDriverMemoNeedsAnEarlyHit: the memo stays on once a section repeats
// within the first memoPrefix distinct ones, and switches off after a
// hit-free prefix that long, so a late repeat is emulated again. The
// estimate is the same either way.
func TestDriverMemoNeedsAnEarlyHit(t *testing.T) {
	distinct := func(n int) []*Node {
		out := make([]*Node, n)
		for i := range out {
			out[i] = NewSec("s", NewTask("t", NewU(clock.Cycles(10+i))))
		}
		return out
	}
	secs := distinct(memoPrefix + 8)
	for _, tc := range []struct {
		name  string
		order []*Node
		runs  int
	}{
		// A repeat as the second section: every later repeat hits.
		{"early hit", append([]*Node{secs[0], secs[0]}, append(secs[1:], secs...)...), len(secs)},
		// memoPrefix+8 distinct sections, then all of them again.
		{"hit-free prefix", append(append([]*Node{}, secs...), secs...), 2 * len(secs)},
	} {
		root := NewRoot(tc.order...)
		l := &lenSection{}
		got, err := Driver{Threads: 4, Section: l.emulate}.PredictTime(context.Background(), root)
		if err != nil {
			t.Fatal(err)
		}
		every := &lenSection{}
		want, _ := Driver{Threads: 4, EveryOccurrence: true, Section: every.emulate}.PredictTime(context.Background(), root)
		if got != want || len(l.seen) != tc.runs {
			t.Errorf("%s: %d over %d emulations, want %d over %d", tc.name, got, len(l.seen), want, tc.runs)
		}
	}
}

func TestDriverResolvesBurden(t *testing.T) {
	root, _, _ := sharedRoot()
	l := &lenSection{}
	off, _ := Driver{Threads: 4, Section: l.emulate}.PredictTime(context.Background(), root)
	on, _ := Driver{Threads: 4, UseBurden: true, Section: l.emulate}.PredictTime(context.Background(), root)
	other, _ := Driver{Threads: 8, UseBurden: true, Section: l.emulate}.PredictTime(context.Background(), root)
	// β_4 = 1.5 stretches each of a's three 40-cycle runs by 20.
	if on != off+3*20 || other != off {
		t.Errorf("burden off %d, β at 4 threads %d, at 8 threads %d", off, on, other)
	}
}

// countdownCtx reports cancellation from its (n+1)-th Err call on.
type countdownCtx struct {
	context.Context
	left int
}

func (c *countdownCtx) Err() error {
	if c.left--; c.left < 0 {
		return context.Canceled
	}
	return nil
}

func TestDriverCancelPollsBeforeEachEmulatedSection(t *testing.T) {
	root, _, _ := sharedRoot()
	for budget, wantSeen := range []int{0, 1} {
		l := &lenSection{}
		ctx := &countdownCtx{Context: context.Background(), left: budget}
		_, err := Driver{Section: l.emulate}.PredictTime(ctx, root)
		if !errors.Is(err, context.Canceled) || len(l.seen) != wantSeen {
			t.Errorf("budget %d: err %v after %d sections, want context.Canceled after %d", budget, err, len(l.seen), wantSeen)
		}
	}
	// Memo hits need no poll: two polls cover a and b.
	l := &lenSection{}
	if _, err := (Driver{Section: l.emulate}).PredictTime(&countdownCtx{Context: context.Background(), left: 2}, root); err != nil {
		t.Errorf("two polls for two distinct sections: %v", err)
	}
	// A section's error stops the estimate.
	boom := errors.New("boom")
	calls := 0
	_, err := Driver{Section: func(context.Context, *Node, float64) (clock.Cycles, error) {
		calls++
		return 0, boom
	}}.Speedup(context.Background(), root)
	if !errors.Is(err, boom) || calls != 1 {
		t.Errorf("Speedup err %v after %d calls, want boom after 1", err, calls)
	}
}

func TestDriverSpeedupRule(t *testing.T) {
	root, _, _ := sharedRoot()
	l := &lenSection{}
	// Emulating every section at its serial length predicts the serial
	// time exactly.
	if got, err := (Driver{Section: l.emulate}).Speedup(context.Background(), root); err != nil || got != 1 {
		t.Errorf("serial-length emulation: speedup %v, %v; want 1", got, err)
	}
	half := func(_ context.Context, sec *Node, _ float64) (clock.Cycles, error) { return sec.TotalLen() / 2, nil }
	onlySec := NewRoot(NewSec("s", NewTask("t", NewU(50)), NewTask("t", NewU(50))))
	if got, _ := (Driver{Section: half}).Speedup(context.Background(), onlySec); got != 2 {
		t.Errorf("halved section: speedup %v, want 2", got)
	}
	// Nothing to run: speedup 1, not a division by zero.
	if got, _ := (Driver{Section: l.emulate}).Speedup(context.Background(), NewRoot()); got != 1 {
		t.Errorf("empty program: speedup %v, want 1", got)
	}
	for _, c := range []struct {
		serial, parallel clock.Cycles
		want             float64
	}{{100, 50, 2}, {100, 0, 1}, {100, -5, 1}, {0, 10, 0}} {
		if got := Speedup(c.serial, c.parallel); got != c.want {
			t.Errorf("Speedup(%d, %d) = %v, want %v", c.serial, c.parallel, got, c.want)
		}
	}
}

func TestScaled(t *testing.T) {
	for _, c := range []struct {
		l      clock.Cycles
		burden float64
		want   clock.Cycles
	}{{40, 1, 40}, {40, 1.5, 60}, {3, 1.5, 5}, {1, 1.4, 1}} {
		if got := Scaled(c.l, c.burden); got != c.want {
			t.Errorf("Scaled(%d, %v) = %d, want %d", c.l, c.burden, got, c.want)
		}
	}
}
