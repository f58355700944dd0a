package ff

import (
	"context"
	"errors"
	"strings"
	"testing"

	"prophet/internal/omprt"
	"prophet/internal/tree"
)

// cancelAfterPolls is a context that turns canceled once it has been
// polled n times.
type cancelAfterPolls struct {
	context.Context
	n int
}

func (c *cancelAfterPolls) Err() error {
	if c.n--; c.n < 0 {
		return context.Canceled
	}
	return nil
}

// TestCanceledCtxStopsEverySection: a context canceled before the FF
// starts stops it even on Fig. 5's three-task loop, far too short to reach
// the in-section poll, under every schedule; the driver polls before each
// section.
func TestCanceledCtxStopsEverySection(t *testing.T) {
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	for _, sched := range []omprt.Sched{omprt.SchedStatic, omprt.SchedStatic1, omprt.SchedDynamic1, omprt.SchedGuided} {
		if sp, err := emu(2, sched).SpeedupCtx(canceled, figure5()); !errors.Is(err, context.Canceled) || sp != 0 {
			t.Errorf("%v: SpeedupCtx = %v, %v; want 0, context.Canceled", sched, sp, err)
		}
	}
}

// TestCancelInsideLongSection: a cancellation landing while a long section
// runs is seen by the FF's poll every 4096 events and aborts the section.
func TestCancelInsideLongSection(t *testing.T) {
	task := tree.NewTask("t", tree.NewU(10))
	task.Repeat = 10_000
	root := tree.NewRoot(tree.NewSec("s", task))
	ctx := &cancelAfterPolls{Context: context.Background(), n: 1} // the driver's poll passes
	_, err := emu(4, omprt.SchedDynamic1).PredictTimeCtx(ctx, root)
	if !errors.Is(err, context.Canceled) || !strings.Contains(err.Error(), "ff: emulation aborted") {
		t.Fatalf("err = %v, want the FF's in-section abort wrapping context.Canceled", err)
	}
}
