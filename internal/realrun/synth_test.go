package realrun_test

import (
	"context"
	"math/rand"
	"testing"

	"prophet/internal/clock"
	"prophet/internal/machine"
	"prophet/internal/omprt"
	"prophet/internal/realrun"
	"prophet/internal/sim"
	"prophet/internal/synth"
	"prophet/internal/tree"
)

// source is what the tree generator draws from: a seeded *rand.Rand in
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

// synthCase is one generated program with the engine configuration both
// sides run it under.
type synthCase struct {
	root     *tree.Node
	machine  sim.Config
	threads  int
	paradigm synth.Paradigm
	sched    omprt.Sched
}

// genSegment returns one task child: a U, L or W leaf, or (when depth
// allows) a nested section; some carry a repeat count.
func genSegment(src source, depth int) *tree.Node {
	var n *tree.Node
	l := clock.Cycles(src.Intn(30_000))
	switch k := src.Intn(8); {
	case k == 0 && depth > 0:
		n = genSection(src, depth-1)
	case k == 1:
		n = tree.NewL(src.Intn(3), l)
	case k == 2:
		n = &tree.Node{Kind: tree.W, Len: l}
	default:
		n = tree.NewU(l)
	}
	if src.Intn(4) == 0 {
		n.Repeat = 2 + src.Intn(3)
	}
	return n
}

// genSection returns a section of up to 12 tasks nesting to depth.
func genSection(src source, depth int) *tree.Node {
	sec := tree.NewSec("s")
	for i := 1 + src.Intn(12); i > 0; i-- {
		task := tree.NewTask("t")
		for j := 1 + src.Intn(4); j > 0; j-- {
			task.Children = append(task.Children, genSegment(src, depth))
		}
		if src.Intn(5) == 0 {
			task.Repeat = 2 + src.Intn(2)
		}
		sec.Children = append(sec.Children, task)
	}
	return sec
}

// synthMachines are the targets: the paper machine, two DRAM domains
// (gracelike72) and mixed core speeds (embedded4+4).
func synthMachines(t testing.TB) []sim.Config {
	var out []sim.Config
	for _, name := range []string{"westmere12", "gracelike72", "embedded4+4"} {
		s, err := machine.ParseSpec(name)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, sim.Config{Spec: s, MaxEvents: 2_000_000})
	}
	return out
}

// genSynthCase draws a program of one top-level section, nesting to depth
// 2, on no more threads than the machine has cores.
func genSynthCase(src source, machines []sim.Config) synthCase {
	c := synthCase{
		machine:  machines[src.Intn(len(machines))],
		paradigm: synth.Paradigm(src.Intn(2)),
		sched:    omprt.Sched{Kind: omprt.ScheduleKind(src.Intn(4)), Chunk: 1 + src.Intn(4)},
	}
	c.threads = 1 + src.Intn(c.machine.MachineSpec().Cores())
	c.root = tree.NewRoot(genSection(src, 2))
	return c
}

// checkSynthMatchesReal requires the synthesizer's time (no burden
// factors, default overheads) to equal the ground truth's for c. A
// program without memory traits is one generated program on one machine
// for both, so they must agree to the cycle.
func checkSynthMatchesReal(t testing.TB, c synthCase) {
	t.Helper()
	ctx := context.Background()
	s := &synth.Synthesizer{Threads: c.threads, Paradigm: c.paradigm, Sched: c.sched, Machine: c.machine, OmpOv: omprt.DefaultOverheads()}
	syn, err := s.PredictTimeCtx(ctx, c.root)
	if err != nil {
		t.Fatalf("synthesizer: %v", err)
	}
	real, err := realrun.TimeCtx(ctx, c.root, realrun.Config{Machine: c.machine, Threads: c.threads, Paradigm: c.paradigm, Sched: c.sched})
	if err != nil {
		t.Fatalf("real: %v", err)
	}
	if syn != real {
		sec := c.root.Children[0]
		t.Fatalf("%s t=%d %v %v tasks=%d: Synthesizer %d, Real %d",
			c.machine.MachineSpec().Name, c.threads, c.paradigm, c.sched, len(sec.Children), syn, real)
	}
}

// TestSynthMatchesReal is the differential test of the synthesizer
// against the ground truth on generated single-section programs without
// memory traits: every OpenMP schedule kind and Cilk, nested sections,
// locks, W segments and repeats, on three machine presets. The
// synthesizer's section time is its machine run's time as measured, so
// the two must match exactly. Programs with top-level serial segments
// are left out: the synthesizer emulates each section on a fresh machine
// (§IV-E) while the ground truth runs the whole program in one machine
// run, so the serial code's place on the cores can differ.
func TestSynthMatchesReal(t *testing.T) {
	machines := synthMachines(t)
	rng := rand.New(rand.NewSource(35))
	cases := 400
	if testing.Short() {
		cases = 100
	}
	for i := 0; i < cases; i++ {
		// Walk every machine, schedule and paradigm in turn as well.
		c := genSynthCase(rng, machines[i/8%len(machines):][:1])
		c.sched.Kind = omprt.ScheduleKind(i % 4)
		c.paradigm = synth.Paradigm(i / 4 % 2)
		checkSynthMatchesReal(t, c)
	}
}

// FuzzSynthMatchesReal drives the same check from fuzz input.
func FuzzSynthMatchesReal(f *testing.F) {
	machines := synthMachines(f)
	f.Add([]byte{})
	f.Add([]byte{1, 0, 2, 1, 7, 3, 0, 9, 1, 4, 200, 6, 2, 5, 1, 9, 0, 250, 2, 3})
	f.Add([]byte{2, 1, 3, 2, 5, 0, 4, 0, 3, 2, 7, 1, 1, 30, 0, 11, 2, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		checkSynthMatchesReal(t, genSynthCase(&byteSource{data: data}, machines))
	})
}
