package synth

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"prophet/internal/cilkrt"
	"prophet/internal/clock"
	"prophet/internal/machine"
	"prophet/internal/obs"
	"prophet/internal/omprt"
	"prophet/internal/sim"
	"prophet/internal/tree"
)

// source is what the case generator draws from: a seeded *rand.Rand in
// the tier-1 test, the fuzzer's bytes in the fuzz target.
type source interface{ Intn(n int) int }

// byteSource draws from fuzz input; it reads zeros once the input ends.
type byteSource struct{ data []byte }

func (b *byteSource) Intn(n int) int {
	if len(b.data) == 0 {
		return 0
	}
	v := int(b.data[0])
	b.data = b.data[1:]
	return v % n
}

// queueCase is one section run both ways.
type queueCase struct {
	sec      *tree.Node
	machine  sim.Config
	threads  int
	paradigm Paradigm
	sched    omprt.Sched
	ompOv    omprt.Overheads
	cilkOv   cilkrt.Overheads
	// mem replays memory traits with ground-truth leaves; otherwise the
	// leaves are the synthesizer's, with burden and traversal charges.
	mem    bool
	burden float64
}

func (c queueCase) String() string {
	return fmt.Sprintf("%s t=%d %s %s mem=%v pipeline=%v burden=%g tasks=%d",
		c.machine.MachineSpec().Name, c.threads, c.paradigm, c.sched, c.mem, c.sec.Pipeline, c.burden, len(c.sec.Children))
}

// genSegment returns one task child: a U, L or W leaf, or (when depth
// allows) a nested section; some carry a repeat count.
func genSegment(src source, mem bool, depth int) *tree.Node {
	var n *tree.Node
	l := clock.Cycles(src.Intn(30_000))
	switch k := src.Intn(8); {
	case k == 0 && depth > 0:
		n = genSection(src, mem, depth-1, false, 4)
	case k == 1:
		n = tree.NewL(src.Intn(3), l)
	case k == 2:
		n = &tree.Node{Kind: tree.W, Len: l}
	default:
		n = tree.NewU(l)
	}
	if mem && n.Kind != tree.Sec && n.Kind != tree.W && src.Intn(3) > 0 {
		n.Mem = tree.MemTraits{Instructions: int64(l) * 3 / 4, LLCMisses: int64(src.Intn(int(l)/40 + 1))}
	}
	if src.Intn(4) == 0 {
		n.Repeat = 2 + src.Intn(3)
	}
	return n
}

// genSection returns a section of up to maxTasks tasks. Pipeline stages
// are leaves, so a pipeline section nests nothing.
func genSection(src source, mem bool, depth int, pipeline bool, maxTasks int) *tree.Node {
	if pipeline {
		depth = -1
	}
	sec := tree.NewSec("s")
	sec.Pipeline = pipeline
	for i := 1 + src.Intn(maxTasks); i > 0; i-- {
		task := tree.NewTask("t")
		for j := 1 + src.Intn(4); j > 0; j-- {
			seg := genSegment(src, mem, depth)
			if pipeline && seg.Kind == tree.W {
				seg.Kind = tree.U
			}
			task.Children = append(task.Children, seg)
		}
		if src.Intn(5) == 0 {
			task.Repeat = 2 + src.Intn(2)
		}
		sec.Children = append(sec.Children, task)
	}
	return sec
}

// queueMachines are the targets the cases run on: the paper machine, two
// DRAM domains (gracelike72), mixed core speeds (embedded4+4), and a
// small machine with a short quantum, where teams oversubscribe.
func queueMachines(t testing.TB) []sim.Config {
	var out []sim.Config
	for _, name := range []string{"westmere12", "gracelike72", "embedded4+4"} {
		s, err := machine.ParseSpec(name)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, sim.Config{Spec: s})
	}
	small := machine.Default().WithCores("t-queue2", 2)
	small.Quantum, small.ContextSwitch = 5_000, 500
	return append(out, sim.Config{Spec: small})
}

// genCase draws one case.
func genCase(src source, machines []sim.Config) queueCase {
	c := queueCase{
		machine:  machines[src.Intn(len(machines))],
		threads:  1 + src.Intn(16),
		paradigm: Paradigm(src.Intn(2)),
		sched:    omprt.Sched{Kind: omprt.ScheduleKind(src.Intn(4)), Chunk: 1 + src.Intn(4)},
		mem:      src.Intn(2) == 0,
		burden:   []float64{1, 1.37}[src.Intn(2)],
	}
	if src.Intn(3) > 0 {
		c.ompOv, c.cilkOv = omprt.DefaultOverheads(), cilkrt.DefaultOverheads()
	}
	c.sec = genSection(src, c.mem, 1, src.Intn(5) == 0, 24)
	return c
}

// steps makes a leaf's engine steps, queued or called.
type steps bool

func (q steps) work(w *sim.Thread, c clock.Cycles) {
	if q {
		w.Queue(sim.WorkOp(c))
	} else {
		w.Work(c)
	}
}

func (q steps) mem(w *sim.Thread, instr clock.Cycles, misses int64) {
	if q {
		w.Queue(sim.MemOp(instr, misses))
	} else {
		w.WorkMem(instr, misses)
	}
}

func (q steps) sleep(w *sim.Thread, d clock.Cycles) {
	if q {
		w.Queue(sim.SleepOp(d))
	} else {
		w.Sleep(d)
	}
}

// replayLeaf is the ground truth's leaf body (internal/realrun): memory
// traits when recorded. The walker holds an L segment's lock, and pays
// LockEnter/LockExit in OpenMP teams, around it; those steps are queued in
// both runs, and the engine's own differential test covers called locks.
func replayLeaf(q steps) func(*sim.Thread, *tree.Node) {
	return func(w *sim.Thread, seg *tree.Node) {
		switch {
		case seg.Kind == tree.W:
			q.sleep(w, seg.Len)
		case seg.Mem.Instructions > 0 || seg.Mem.LLCMisses > 0:
			q.mem(w, clock.Cycles(seg.Mem.Instructions), seg.Mem.LLCMisses)
		default:
			q.work(w, seg.Len)
		}
	}
}

// calledEmulation mirrors the synthesizer's Leaf and traversal charges
// with called steps.
func calledEmulation(p *Program, burden float64, access, call clock.Cycles) {
	q := steps(false)
	p.Leaf = func(w *sim.Thread, seg *tree.Node) {
		if seg.Kind == tree.W {
			q.sleep(w, seg.Len)
			return
		}
		q.work(w, tree.Scaled(seg.Len, burden))
	}
	p.visit = func(w *sim.Thread, seg *tree.Node) {
		q.work(w, access)
		if seg.Kind == tree.Sec {
			q.work(w, call)
		}
	}
}

// sectionRun is the outcome of one machine run of a section.
type sectionRun struct {
	end    clock.Cycles
	stats  sim.Stats
	events []obs.ExecEvent
}

func runSection(t testing.TB, c queueCase, p *Program) sectionRun {
	t.Helper()
	buf := &obs.TraceBuffer{}
	end, st, err := sim.Run(context.Background(), c.machine, sim.RunOpts{Tracer: buf}, func(main *sim.Thread) {
		p.RunSection(main, c.sec)
	})
	if err != nil {
		t.Fatalf("%v: %v", c, err)
	}
	st.Resumes = 0 // the one figure queuing is meant to change
	return sectionRun{end, st, buf.Events()}
}

// checkQueuedMatchesEager runs c with queued leaves (the synthesizer's
// own, or the ground truth's replay) and with called ones, and requires
// the same end time, stats and event stream.
func checkQueuedMatchesEager(t testing.TB, c queueCase) {
	t.Helper()
	base := Program{Threads: c.threads, Paradigm: c.paradigm, Sched: c.sched, OmpOv: c.ompOv, CilkOv: c.cilkOv}
	queued, called := base, base
	if c.mem {
		queued.Leaf = replayLeaf(true)
		called.Leaf = replayLeaf(false)
	} else {
		s := &Synthesizer{Threads: c.threads, Paradigm: c.paradigm, Sched: c.sched, Machine: c.machine, OmpOv: c.ompOv, CilkOv: c.cilkOv}
		e := s.newEmulation()
		e.burden = c.burden
		queued = e.prog
		calledEmulation(&called, c.burden, s.accessNode(), s.recursiveCall())
	}
	want := runSection(t, c, &called)
	got := runSection(t, c, &queued)
	if !reflect.DeepEqual(got, want) {
		n := min(len(got.events), len(want.events))
		i := 0
		for i < n && got.events[i] == want.events[i] {
			i++
		}
		t.Fatalf("%v: queued run differs from the called one (first differing event %d of %d/%d):\nqueued end %d stats %+v\ncalled end %d stats %+v",
			c, i, len(got.events), len(want.events), got.end, got.stats, want.end, want.stats)
	}
}

// TestQueuedMatchesEager is the differential test for queued steps: a
// synth.Program whose leaves queue gives exactly the run of one whose
// leaves call Work, WorkMem, Lock, Unlock and Sleep directly, under every
// OpenMP schedule, Cilk and pipelines, with L and W segments, memory
// traits, zero and default overheads, oversubscription, two DRAM domains
// and mixed core speeds.
func TestQueuedMatchesEager(t *testing.T) {
	machines := queueMachines(t)
	rng := rand.New(rand.NewSource(2012))
	cases := 240
	if testing.Short() {
		cases = 60
	}
	for i := 0; i < cases; i++ {
		c := genCase(rng, machines)
		// Walk every schedule, paradigm and machine in turn as well.
		c.sched.Kind = omprt.ScheduleKind(i % 4)
		c.paradigm = Paradigm(i / 4 % 2)
		c.machine = machines[i/8%len(machines)]
		checkQueuedMatchesEager(t, c)
	}
}

// FuzzQueuedMatchesEager drives the same check from fuzz input.
func FuzzQueuedMatchesEager(f *testing.F) {
	machines := queueMachines(f)
	f.Add([]byte{})
	f.Add([]byte{3, 11, 0, 2, 1, 0, 1, 1, 0, 9, 3, 1, 2, 0, 7, 7})
	f.Add([]byte{1, 15, 1, 1, 0, 1, 0, 1, 4, 200, 6, 2, 5, 1, 9, 0, 250, 2, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		checkQueuedMatchesEager(t, genCase(&byteSource{data: data}, machines))
	})
}

// TestFlatStaticSectionResumesPerThread: the synthesizer's leaves and
// traversal charges and the static runtime's charges are all queued, so
// one flat static section at t = 12 resumes thread code a few times per
// thread, not once per task. The count is deterministic; it is read from
// the sim.resumes counter.
func TestFlatStaticSectionResumesPerThread(t *testing.T) {
	const threads, tasks = 12, 1200
	reg := &obs.Registry{}
	s := &Synthesizer{Threads: threads, Sched: omprt.SchedStatic, Machine: mcfg(12), OmpOv: omprt.DefaultOverheads(), Metrics: reg}
	mustTime(t, s, balancedLoop(tasks, 10_000))
	snap := reg.Snapshot()
	if runs := snap.Counters[obs.MSimRuns]; runs != 1 {
		t.Fatalf("sim.runs = %d, want 1", runs)
	}
	if r := snap.Counters[obs.MSimResumes]; r > 3*threads {
		t.Fatalf("sim.resumes = %d for %d tasks on %d threads, want at most %d", r, tasks, threads, 3*threads)
	}
}
