package trace

import (
	"errors"
	"testing"

	"prophet/internal/clock"
	"prophet/internal/machine"
	"prophet/internal/tree"
)

// figure4Program is the paper's §IV-A annotated example (Fig. 4): a
// two-iteration parallel loop with a critical section, where the second
// iteration runs a nested four-iteration parallel loop.
func figure4Program(ctx Context) {
	ctx.SecBegin("loop1")
	// iteration 0: U10 L20 U20
	ctx.TaskBegin("t1")
	ctx.Compute(10, 0)
	ctx.LockBegin(1)
	ctx.Compute(20, 0)
	ctx.LockEnd(1)
	ctx.Compute(20, 0)
	ctx.TaskEnd()
	// iteration 1: U25 L25 Sec(50,50,50,40) U10
	ctx.TaskBegin("t1")
	ctx.Compute(25, 0)
	ctx.LockBegin(1)
	ctx.Compute(25, 0)
	ctx.LockEnd(1)
	ctx.SecBegin("loop2")
	for _, c := range []int64{50, 50, 50, 40} {
		ctx.TaskBegin("t2")
		ctx.Compute(c, 0)
		ctx.TaskEnd()
	}
	ctx.SecEnd(true)
	ctx.Compute(10, 0)
	ctx.TaskEnd()
	ctx.SecEnd(true)
}

func TestFigure4Tree(t *testing.T) {
	root, _, err := Profile(figure4Program, machine.Default())
	if err != nil {
		t.Fatalf("Profile: %v", err)
	}
	if err := root.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	secs := root.TopLevelSections()
	if len(secs) != 1 {
		t.Fatalf("sections = %d, want 1", len(secs))
	}
	sec := secs[0]
	if sec.Name != "loop1" || sec.TotalLen() != 300 {
		t.Fatalf("section %q total %d, want loop1/300\n%s", sec.Name, sec.TotalLen(), root)
	}
	if got := len(sec.Children); got != 2 {
		t.Fatalf("tasks = %d, want 2\n%s", got, root)
	}
	it0, it1 := sec.Children[0], sec.Children[1]
	if it0.TotalLen() != 50 {
		t.Errorf("iteration 0 total = %d, want 50", it0.TotalLen())
	}
	if it1.TotalLen() != 250 {
		t.Errorf("iteration 1 total = %d, want 250", it1.TotalLen())
	}
	// iteration 0 shape: U10 L20 U20
	want0 := []struct {
		k tree.Kind
		l clock.Cycles
	}{{tree.U, 10}, {tree.L, 20}, {tree.U, 20}}
	if len(it0.Children) != len(want0) {
		t.Fatalf("iteration 0 children = %d, want 3\n%s", len(it0.Children), root)
	}
	for i, w := range want0 {
		c := it0.Children[i]
		if c.Kind != w.k || c.Len != w.l {
			t.Errorf("it0 child %d = %v %d, want %v %d", i, c.Kind, c.Len, w.k, w.l)
		}
	}
	// iteration 1: U25 L25 Sec(190) U10
	if len(it1.Children) != 4 {
		t.Fatalf("iteration 1 children = %d, want 4\n%s", len(it1.Children), root)
	}
	inner := it1.Children[2]
	if inner.Kind != tree.Sec || inner.Name != "loop2" || inner.TotalLen() != 190 {
		t.Fatalf("inner section = %v %q total %d, want Sec loop2 190", inner.Kind, inner.Name, inner.TotalLen())
	}
	if !inner.NoWait {
		t.Error("inner section nowait flag lost")
	}
	if inner.Tasks() != 4 {
		t.Errorf("inner tasks = %d, want 4", inner.Tasks())
	}
	// L nodes carry the lock id.
	if it0.Children[1].LockID != 1 {
		t.Errorf("lock id = %d, want 1", it0.Children[1].LockID)
	}
}

func TestSerialGapsBecomeRootUNodes(t *testing.T) {
	prog := func(ctx Context) {
		ctx.Compute(100, 0) // leading serial
		ctx.SecBegin("s")
		ctx.TaskBegin("t")
		ctx.Compute(50, 0)
		ctx.TaskEnd()
		ctx.SecEnd(false)
		ctx.Compute(30, 0) // trailing serial
	}
	root, _, err := Profile(prog, machine.Default())
	if err != nil {
		t.Fatal(err)
	}
	if got := root.SerialOutsideSections(); got != 130 {
		t.Fatalf("serial outside sections = %d, want 130\n%s", got, root)
	}
	if got := root.TotalLen(); got != 180 {
		t.Fatalf("total = %d, want 180", got)
	}
}

func TestCountersPerTopLevelSection(t *testing.T) {
	prog := func(ctx Context) {
		ctx.Compute(1000, 5) // outside: must not be charged to the section
		ctx.SecBegin("s")
		ctx.TaskBegin("t")
		ctx.Compute(2000, 40)
		ctx.TaskEnd()
		ctx.SecEnd(false)
	}
	root, _, err := Profile(prog, machine.Default())
	if err != nil {
		t.Fatal(err)
	}
	sec := root.TopLevelSections()[0]
	if sec.Counters == nil {
		t.Fatal("no counters on top-level section")
	}
	if sec.Counters.Instructions != 2000 || sec.Counters.LLCMisses != 40 {
		t.Fatalf("counters = %+v, want N=2000 D=40", sec.Counters)
	}
	// Cycles = 2000 + 40*ω0(=40) = 3600.
	if sec.Counters.Cycles != 3600 {
		t.Fatalf("section cycles = %d, want 3600", sec.Counters.Cycles)
	}
}

func TestMemTraitsAttachedToLeaves(t *testing.T) {
	prog := func(ctx Context) {
		ctx.SecBegin("s")
		ctx.TaskBegin("t")
		ctx.Compute(500, 7)
		ctx.LockBegin(2)
		ctx.Compute(100, 3)
		ctx.LockEnd(2)
		ctx.TaskEnd()
		ctx.SecEnd(false)
	}
	root, _, err := Profile(prog, machine.Default())
	if err != nil {
		t.Fatal(err)
	}
	task := root.TopLevelSections()[0].Children[0]
	u := task.Children[0]
	l := task.Children[1]
	if u.Mem != (tree.MemTraits{Instructions: 500, LLCMisses: 7}) {
		t.Errorf("U mem = %+v", u.Mem)
	}
	if l.Mem != (tree.MemTraits{Instructions: 100, LLCMisses: 3}) {
		t.Errorf("L mem = %+v", l.Mem)
	}
	// Lengths include the memory stall at ω0=40: U = 500+280, L = 100+120.
	if u.Len != 780 || l.Len != 220 {
		t.Errorf("lengths U=%d L=%d, want 780/220", u.Len, l.Len)
	}
}

func TestAnnotationErrors(t *testing.T) {
	cases := []struct {
		name string
		prog Program
	}{
		{"task outside section", func(c Context) { c.TaskBegin("t") }},
		{"secend without begin", func(c Context) { c.SecEnd(false) }},
		{"taskend without begin", func(c Context) { c.SecBegin("s"); c.TaskEnd() }},
		{"lock outside task", func(c Context) { c.LockBegin(1) }},
		{"lock id mismatch", func(c Context) {
			c.SecBegin("s")
			c.TaskBegin("t")
			c.LockBegin(1)
			c.LockEnd(2)
		}},
		{"lockend without begin", func(c Context) {
			c.SecBegin("s")
			c.TaskBegin("t")
			c.LockEnd(1)
		}},
		{"unclosed section", func(c Context) { c.SecBegin("s") }},
		{"sec inside sec", func(c Context) { c.SecBegin("a"); c.SecBegin("b") }},
	}
	for _, tc := range cases {
		_, _, err := Profile(tc.prog, machine.Default())
		if err == nil {
			t.Errorf("%s: no error reported", tc.name)
		} else if !errors.Is(err, ErrAnnotationMismatch) {
			t.Errorf("%s: error %v not an annotation mismatch", tc.name, err)
		}
	}
}

func TestFinishTwice(t *testing.T) {
	p := NewSimProfiler(machine.Default())
	if _, err := p.Finish(); err != nil {
		t.Fatalf("first Finish: %v", err)
	}
	if _, err := p.Finish(); err == nil {
		t.Fatal("second Finish should fail")
	}
}

func TestEmptyProgram(t *testing.T) {
	root, _, err := Profile(func(Context) {}, machine.Default())
	if err != nil {
		t.Fatal(err)
	}
	if len(root.Children) != 0 {
		t.Fatalf("empty program produced %d nodes", len(root.Children))
	}
}

func TestRepeatedTopLevelSectionAccumulatesCounters(t *testing.T) {
	// The same section executed twice: the paper takes the average burden
	// over executions; the tracer accumulates counters per Sec node
	// instance. Each dynamic execution is its own Sec node.
	prog := func(ctx Context) {
		for i := 0; i < 2; i++ {
			ctx.SecBegin("s")
			ctx.TaskBegin("t")
			ctx.Compute(100, 2)
			ctx.TaskEnd()
			ctx.SecEnd(false)
		}
	}
	root, _, err := Profile(prog, machine.Default())
	if err != nil {
		t.Fatal(err)
	}
	secs := root.TopLevelSections()
	if len(secs) != 2 {
		t.Fatalf("sections = %d, want 2", len(secs))
	}
	for i, s := range secs {
		if s.Counters == nil || s.Counters.Instructions != 100 {
			t.Errorf("section %d counters = %+v", i, s.Counters)
		}
	}
}

func TestHostProfilerExcludesOverhead(t *testing.T) {
	// Many annotations around tiny computations: with overhead exclusion
	// the tree's total must stay close to the pure compute time even
	// though the annotations themselves cost real time.
	p := NewHostProfiler(0)
	const iters = 200
	p.SecBegin("s")
	for i := 0; i < iters; i++ {
		p.TaskBegin("t")
		p.Compute(24_000, 0) // 10 µs at 2.4 GHz
		p.TaskEnd()
	}
	p.SecEnd(false)
	root, err := p.Finish()
	if err != nil {
		t.Fatal(err)
	}
	got := float64(root.TotalLen())
	want := float64(iters * 24_000)
	// Wall-clock tests on a contended machine can overshoot: only
	// require the right order of magnitude; the precise claim — that
	// the profiler excluded its own overhead — is checked directly.
	if got < 0.9*want || got > 5*want {
		t.Fatalf("host-profiled total = %g, want ~%g", got, want)
	}
	if p.ExcludedOverhead() <= 0 {
		t.Fatal("no profiling overhead was excluded on the host clock")
	}
}

func TestHostProfilerCounters(t *testing.T) {
	p := NewHostProfiler(0)
	p.SecBegin("s")
	p.TaskBegin("t")
	p.Compute(1000, 10)
	p.TaskEnd()
	p.SecEnd(false)
	root, err := p.Finish()
	if err != nil {
		t.Fatal(err)
	}
	c := root.TopLevelSections()[0].Counters
	if c == nil || c.Instructions != 1000 || c.LLCMisses != 10 {
		t.Fatalf("host counters = %+v", c)
	}
}

// BenchmarkProfileHeap measures one profile of the Fig. 4 example: the
// tracer's node allocations plus the serial run.
func BenchmarkProfileHeap(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := Profile(figure4Program, machine.Default()); err != nil {
			b.Fatal(err)
		}
	}
}
