package prophet_test

import (
	"context"
	"errors"
	"testing"

	"prophet"
	"prophet/internal/baseline"
	"prophet/internal/ff"
	"prophet/internal/omprt"
	"prophet/internal/synth"
	"prophet/internal/workloads"
)

// TestEnginesReturnCanceledOnPreCanceledCtx: every engine run with a
// context canceled before it starts returns context.Canceled, never a
// speedup, on each paper benchmark. The engines share one top-level loop
// (tree.Driver) that polls ctx before each section it emulates, so even a
// tree whose sections are each too short to reach the FF's in-section
// poll is stopped.
func TestEnginesReturnCanceledOnPreCanceledCtx(t *testing.T) {
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	const threads = 8
	for _, name := range workloads.Names() {
		w, err := workloads.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		prof, err := prophet.ProfileProgramCtx(context.Background(), w.Program, &prophet.Options{Machine: benchMachine()})
		if err != nil {
			t.Fatal(err)
		}
		check := func(engine string, speedup float64, err error) {
			t.Helper()
			if !errors.Is(err, context.Canceled) {
				t.Errorf("%s %s: speedup %v, err %v; want context.Canceled", name, engine, speedup, err)
			}
		}
		for _, sched := range []omprt.Sched{omprt.SchedStatic, omprt.SchedStatic1, omprt.SchedDynamic1} {
			e := &ff.Emulator{Threads: threads, Sched: sched, Ov: omprt.DefaultOverheads(), UseBurden: true}
			sp, err := e.SpeedupCtx(canceled, prof.Tree)
			check("FF "+sched.String(), sp, err)

			s := &synth.Synthesizer{Threads: threads, Sched: sched, UseBurden: true, Machine: benchMachine(), OmpOv: omprt.DefaultOverheads()}
			sp, err = s.SpeedupCtx(canceled, prof.Tree)
			check("Synthesizer "+sched.String(), sp, err)
		}
		// Suitability always emulates (dynamic,1); it has no schedule.
		s := &baseline.Suitability{Threads: threads}
		sp, err := s.SpeedupCtx(canceled, prof.Tree)
		check("Suitability", sp, err)
	}
}
