package sim

import (
	"context"
	"testing"

	"prophet/internal/clock"
	"prophet/internal/machine"
)

// specFor builds a validated spec with the paper machine's quantum,
// context-switch cost and LLC.
func specFor(t *testing.T, name string, groups []machine.CoreGroup, dram machine.DRAMSpec) *machine.Spec {
	t.Helper()
	s := &machine.Spec{
		Name:          name,
		CoreGroups:    groups,
		Quantum:       50_000,
		ContextSwitch: 1_000,
		LLC:           machine.LLCSpec{SizeBytes: 12 << 20, Ways: 16, LineBytes: 64},
		DRAM:          dram,
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	return s
}

// memWorkload spawns n threads mixing compute, memory traffic and lock
// traffic — enough machinery (preemption, DRAM contention, FIFO handoff)
// to distinguish machines that differ in any dimension.
func memWorkload(n int) func(*Thread) {
	return func(m *Thread) {
		ws := make([]*Thread, 0, n)
		for k := 0; k < n; k++ {
			ws = append(ws, m.Spawn(func(w *Thread) {
				for i := 0; i < 40; i++ {
					w.WorkMem(20_000, 300)
					w.Lock(1)
					w.Work(500)
					w.Unlock(1)
				}
			}))
		}
		for _, w := range ws {
			m.Join(w)
		}
	}
}

// TestSpecContextSwitchZeroNotRewritten: a spec with ContextSwitch 0
// means genuinely free switches — spec fields are never silently
// rewritten to a default. Two 10k jobs serialized on one core take
// exactly 20k cycles.
func TestSpecContextSwitchZeroNotRewritten(t *testing.T) {
	s := specFor(t, "t-freecs",
		[]machine.CoreGroup{{Count: 1, Speed: 1}},
		machine.DRAMSpec{UnloadedLatency: 40, BandwidthBytesPerCycle: 8, Knee: 0.75})
	s.ContextSwitch = 0
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	end, _ := mustRun(t, Config{Spec: s}, func(th *Thread) {
		w := th.Spawn(func(w *Thread) { w.Work(10_000) })
		th.Work(10_000)
		th.Join(w)
	})
	if end != 20_000 {
		t.Fatalf("makespan = %d, want exactly 20000 with free context switches", end)
	}
}

// TestAsymmetricCoreSpeeds: on a big.LITTLE machine, the same serial work
// takes 1/speed as long on a fast core and speed× longer on a slow one.
func TestAsymmetricCoreSpeeds(t *testing.T) {
	s := specFor(t, "t-biglittle",
		[]machine.CoreGroup{{Count: 1, Speed: 2}, {Count: 1, Speed: 0.5}},
		machine.DRAMSpec{UnloadedLatency: 40, BandwidthBytesPerCycle: 8, Knee: 0.75})
	s.ContextSwitch = 0

	// Placement is deterministic: main starts on core 0 (the 2x core),
	// so the spawned worker lands on core 1 (the 0.5x core). 100k of
	// work takes 50k cycles at speed 2 and 200k at speed 0.5.
	var fastEnd, slowEnd clock.Cycles
	end, _, err := Run(context.Background(), Config{Spec: s}, RunOpts{}, func(m *Thread) {
		slow := m.Spawn(func(w *Thread) { w.Work(100_000); slowEnd = w.Now() })
		m.Work(100_000)
		fastEnd = m.Now()
		m.Join(slow)
	})
	if err != nil {
		t.Fatal(err)
	}
	if fastEnd != 50_000 {
		t.Errorf("fast-core 100k work finished at %d, want 50000", fastEnd)
	}
	if slowEnd != 200_000 {
		t.Errorf("slow-core 100k work finished at %d, want 200000", slowEnd)
	}
	if end != 200_000 {
		t.Errorf("makespan = %d, want 200000 (bounded by the slow core)", end)
	}
}

// TestAsymmetricDeterminism: asymmetric runs are as deterministic as
// homogeneous ones.
func TestAsymmetricDeterminism(t *testing.T) {
	s := specFor(t, "t-asymdet",
		[]machine.CoreGroup{{Count: 2, Speed: 1}, {Count: 2, Speed: 0.5}},
		machine.DRAMSpec{UnloadedLatency: 40, BandwidthBytesPerCycle: 4, Knee: 0.75})
	var ends []clock.Cycles
	var stats []Stats
	for i := 0; i < 3; i++ {
		e, st, err := Run(context.Background(), Config{Spec: s}, RunOpts{}, memWorkload(8))
		if err != nil {
			t.Fatal(err)
		}
		ends = append(ends, e)
		stats = append(stats, st)
	}
	for i := 1; i < len(ends); i++ {
		if ends[i] != ends[0] || stats[i] != stats[0] {
			t.Fatalf("run %d differs: end %d vs %d, stats %+v vs %+v", i, ends[i], ends[0], stats[i], stats[0])
		}
	}
}

// TestSecondDomainIsolatesBandwidth: with the machine split into two
// bandwidth domains, streaming threads in one domain do not stretch the
// other; on the equivalent single-bus machine with the same per-domain
// bandwidth, they do.
func TestSecondDomainIsolatesBandwidth(t *testing.T) {
	stream := func(w *Thread) {
		for i := 0; i < 50; i++ {
			w.WorkMem(1_000, 2_000) // far past saturation of a 4 B/cycle bus
		}
	}
	run := func(dram machine.DRAMSpec) clock.Cycles {
		s := specFor(t, "t-numa", []machine.CoreGroup{{Count: 4, Speed: 1}}, dram)
		s.ContextSwitch = 0
		end, _, err := Run(context.Background(), Config{Spec: s}, RunOpts{}, func(m *Thread) {
			var ws []*Thread
			// FIFO assignment puts two streamers in each domain: cores
			// 1-3 take the first three, and the fourth takes core 0 once
			// main blocks in Join.
			for k := 0; k < 4; k++ {
				ws = append(ws, m.Spawn(stream))
			}
			for _, w := range ws {
				m.Join(w)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return end
	}

	single := run(machine.DRAMSpec{UnloadedLatency: 40, BandwidthBytesPerCycle: 4, Knee: 0.75})
	split := run(machine.DRAMSpec{
		UnloadedLatency: 40, BandwidthBytesPerCycle: 4, Knee: 0.75,
		SecondDomain: &machine.DRAMDomain{BandwidthBytesPerCycle: 4, Cores: 2},
	})
	if split >= single {
		t.Errorf("two-domain makespan %d not faster than single 4 B/cycle bus %d", split, single)
	}

	// Doubling the single bus to the split machine's aggregate bandwidth
	// should recover (roughly) the same makespan: all four streamers are
	// identical, so the halves are symmetric.
	wide := run(machine.DRAMSpec{UnloadedLatency: 40, BandwidthBytesPerCycle: 8, Knee: 0.75})
	ratio := float64(split) / float64(wide)
	if ratio < 0.9 || ratio > 1.1 {
		t.Errorf("split-domain makespan %d vs aggregate-bandwidth bus %d (ratio %.3f), want within 10%%", split, wide, ratio)
	}
}

// TestSpecPooledReset: a pooled machine reused across runs with different
// specs re-derives speeds and domains each time — the embedded result
// must not depend on a westmere run having warmed the pool first.
func TestSpecPooledReset(t *testing.T) {
	little := specFor(t, "t-little",
		[]machine.CoreGroup{{Count: 2, Speed: 1}, {Count: 2, Speed: 0.5}},
		machine.DRAMSpec{UnloadedLatency: 60, BandwidthBytesPerCycle: 2, Knee: 0.7})

	coldEnd, coldStats, err := Run(context.Background(), Config{Spec: little}, RunOpts{}, memWorkload(8))
	if err != nil {
		t.Fatal(err)
	}
	// Interleave runs on other machines so the pooled instance is reset
	// across specs, then repeat the little run on the warmed pool.
	for i := 0; i < 3; i++ {
		if _, _, err := Run(context.Background(), Config{Spec: machine.Default()}, RunOpts{}, memWorkload(8)); err != nil {
			t.Fatal(err)
		}
		if _, _, err := Run(context.Background(), cfg(3), RunOpts{}, memWorkload(4)); err != nil {
			t.Fatal(err)
		}
		warmEnd, warmStats, err := Run(context.Background(), Config{Spec: little}, RunOpts{}, memWorkload(8))
		if err != nil {
			t.Fatal(err)
		}
		if warmEnd != coldEnd || warmStats != coldStats {
			t.Fatalf("pooled reset leaked machine state: cold (%d, %+v) vs warm (%d, %+v)",
				coldEnd, coldStats, warmEnd, warmStats)
		}
	}
}
