package prophet_test

import (
	"context"
	"sync/atomic"
	"testing"

	"prophet"
	"prophet/internal/ff"
	"prophet/internal/obs"
	"prophet/internal/omprt"
	"prophet/internal/synth"
	"prophet/internal/tree"
	"prophet/internal/workloads"
)

// countTracer counts execution events and keeps none of them.
type countTracer struct{ n int }

func (c *countTracer) Exec(obs.ExecEvent) { c.n++ }

// TestSynthesizerEmulatesDistinctSectionsOnce pins the synthesizer's
// per-estimate memo: NPB-CG's 80 top-level sections compress to 3
// distinct nodes, so an untraced estimate runs the machine 3 times. A
// traced estimate emulates every occurrence (80 runs, so the trace shows
// each section) and must give the bit-identical speedup.
func TestSynthesizerEmulatesDistinctSectionsOnce(t *testing.T) {
	w, _ := workloads.ByName("NPB-CG")
	prof, err := prophet.ProfileProgramCtx(context.Background(), w.Program, &prophet.Options{Machine: benchMachine()})
	if err != nil {
		t.Fatal(err)
	}
	secs := prof.Tree.TopLevelSections()
	distinct := make(map[*tree.Node]bool)
	for _, s := range secs {
		distinct[s] = true
	}
	if len(secs) != 80 || len(distinct) != 3 {
		t.Fatalf("NPB-CG has %d top-level sections, %d distinct; want 80 and 3", len(secs), len(distinct))
	}

	ctx := context.Background()
	for threads := 2; threads <= 12; threads++ {
		newSyn := func(reg *obs.Registry, tr obs.ExecTracer) *synth.Synthesizer {
			return &synth.Synthesizer{
				Threads:   threads,
				Sched:     omprt.SchedStatic,
				UseBurden: true,
				Machine:   benchMachine(),
				OmpOv:     omprt.DefaultOverheads(),
				Tracer:    tr,
				Metrics:   reg,
			}
		}
		plainReg, tracedReg := &obs.Registry{}, &obs.Registry{}
		plain, err := newSyn(plainReg, nil).SpeedupCtx(ctx, prof.Tree)
		if err != nil {
			t.Fatal(err)
		}
		tr := &countTracer{}
		traced, err := newSyn(tracedReg, tr).SpeedupCtx(ctx, prof.Tree)
		if err != nil {
			t.Fatal(err)
		}
		if got := plainReg.Counter(obs.MSimRuns).Value(); got != int64(len(distinct)) {
			t.Errorf("t=%d untraced: %d machine runs, want %d (one per distinct section)", threads, got, len(distinct))
		}
		if got := tracedReg.Counter(obs.MSimRuns).Value(); got != int64(len(secs)) {
			t.Errorf("t=%d traced: %d machine runs, want %d (one per section)", threads, got, len(secs))
		}
		if tr.n == 0 {
			t.Errorf("t=%d: tracer attached but saw no events", threads)
		}
		if plain != traced {
			t.Errorf("t=%d: speedup %v untraced vs %v traced", threads, plain, traced)
		}
	}
}

// pollCounter is a context that is never canceled and counts its Err
// calls.
type pollCounter struct {
	context.Context
	polls atomic.Int64
}

func (c *pollCounter) Err() error {
	c.polls.Add(1)
	return nil
}

// TestFFEmulatesDistinctSectionsOnce is the synthesizer test above for the
// FF, which shares its top-level loop (tree.Driver): an untraced NPB-CG
// estimate emulates the 3 distinct section nodes, a traced one all 80
// occurrences, and both give the bit-identical speedup under every
// schedule and thread count. The driver polls ctx once before each
// section it emulates, and no NPB-CG section runs the 4096 events that
// trigger the FF's in-section poll, so the poll count is the number of
// sections emulated.
func TestFFEmulatesDistinctSectionsOnce(t *testing.T) {
	w, _ := workloads.ByName("NPB-CG")
	prof, err := prophet.ProfileProgramCtx(context.Background(), w.Program, &prophet.Options{Machine: benchMachine()})
	if err != nil {
		t.Fatal(err)
	}
	for _, sched := range []omprt.Sched{omprt.SchedStatic, omprt.SchedStatic1, omprt.SchedDynamic1, omprt.SchedGuided} {
		for threads := 2; threads <= 12; threads++ {
			speedup := func(tr obs.ExecTracer) (float64, int64) {
				ctx := &pollCounter{Context: context.Background()}
				e := &ff.Emulator{Threads: threads, Sched: sched, Ov: omprt.DefaultOverheads(), UseBurden: true, Tracer: tr}
				sp, err := e.SpeedupCtx(ctx, prof.Tree)
				if err != nil {
					t.Fatal(err)
				}
				return sp, ctx.polls.Load()
			}
			plain, plainSecs := speedup(nil)
			tr := &countTracer{}
			traced, tracedSecs := speedup(tr)
			if plainSecs != 3 || tracedSecs != 80 {
				t.Errorf("%v t=%d: emulated %d sections untraced and %d traced, want 3 and 80", sched, threads, plainSecs, tracedSecs)
			}
			if tr.n == 0 {
				t.Errorf("%v t=%d: tracer attached but saw no events", sched, threads)
			}
			if plain != traced {
				t.Errorf("%v t=%d: speedup %v untraced vs %v traced", sched, threads, plain, traced)
			}
		}
	}
}

// TestMachineVariantKeepsSectionSharing: asking a tree-only profile about
// another machine clones its tree, and the clone must keep compression's
// sharing, so the variant's Synthesizer estimate emulates NPB-CG's 3
// distinct sections just as the original's does — not all 80.
func TestMachineVariantKeepsSectionSharing(t *testing.T) {
	ctx := context.Background()
	w, _ := workloads.ByName("NPB-CG")
	prof, err := prophet.ProfileProgramCtx(ctx, w.Program, nil)
	if err != nil {
		t.Fatal(err)
	}
	reg := &prophet.Metrics{}
	tp, err := prophet.ProfileTreeCtx(ctx, prof.Tree, &prophet.Options{Observer: prophet.Observer{Metrics: reg}})
	if err != nil {
		t.Fatal(err)
	}
	runs := func(machine string) int64 {
		req := prophet.Request{Method: prophet.Synthesizer, Threads: 12, MemoryModel: true, Machine: machine}
		if _, err := tp.EstimateCtx(ctx, req); err != nil { // builds the variant
			t.Fatal(err)
		}
		before := reg.Counter(obs.MSimRuns).Value()
		if _, err := tp.EstimateCtx(ctx, req); err != nil {
			t.Fatal(err)
		}
		return reg.Counter(obs.MSimRuns).Value() - before
	}
	orig, variant := runs(""), runs("hbm12")
	if orig != 3 {
		t.Errorf("original: %d machine runs, want 3 (one per distinct section)", orig)
	}
	if variant != orig {
		t.Errorf("hbm12 variant: %d machine runs, want the original's %d", variant, orig)
	}
}
