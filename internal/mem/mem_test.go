package mem

import (
	"math"
	"testing"
	"testing/quick"

	"prophet/internal/counters"
	"prophet/internal/machine"
)

// paperModel returns a DRAM model of the paper machine.
func paperModel() *DRAM {
	d := &DRAM{}
	d.ResetSpec(machine.Default().DRAM)
	return d
}

// paperDRAM returns the paper machine's DRAM parameters.
func paperDRAM() params { return paperModel().dom[0].cfg }

// paperLLC is the paper machine's last-level cache.
var paperLLC = machine.Default().LLC

func TestDRAMDefaults(t *testing.T) {
	cfg := paperDRAM()
	if want := (params{unloadedLatency: 40, bandwidth: 8, knee: 0.75}); cfg != want {
		t.Fatalf("paper-machine DRAM = %+v, want %+v", cfg, want)
	}
	if got := cfg.SingleThreadBandwidth(); math.Abs(got-64.0/40) > 1e-12 {
		t.Fatalf("single-thread bandwidth = %g, want 1.6", got)
	}
}

func TestStretchRegions(t *testing.T) {
	cfg := paperDRAM() // B=8, knee at 6
	if got := cfg.StretchAt(0); got != 1 {
		t.Errorf("stretch(0) = %g, want 1", got)
	}
	if got := cfg.StretchAt(5.9); got != 1 {
		t.Errorf("stretch below knee = %g, want 1", got)
	}
	mid := cfg.StretchAt(7)
	if mid <= 1 || mid >= 1.2 {
		t.Errorf("stretch in knee region = %g, want (1, 1.2)", mid)
	}
	if got := cfg.StretchAt(16); got != 2 {
		t.Errorf("stretch at 2x saturation = %g, want 2", got)
	}
}

// Property: stretch is monotone non-decreasing in demand and >= 1.
func TestStretchMonotoneProperty(t *testing.T) {
	cfg := paperDRAM()
	f := func(a, b uint16) bool {
		da := float64(a) / 1000
		db := float64(b) / 1000
		if da > db {
			da, db = db, da
		}
		sa, sb := cfg.StretchAt(da), cfg.StretchAt(db)
		return sa >= 1 && sb >= sa-1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRegisterUnregisterBalance(t *testing.T) {
	d := paperModel()
	h1 := d.Register(0, 1.5)
	h2 := d.Register(0, 2.0)
	if math.Abs(d.dom[0].demand-3.5) > 1e-12 {
		t.Fatalf("after register: demand=%g", d.dom[0].demand)
	}
	d.Unregister(0, h1)
	d.Unregister(0, h2)
	if d.dom[0].demand != 0 {
		t.Fatalf("after unregister: demand=%g", d.dom[0].demand)
	}
	// Extra unregisters clamp at zero instead of going negative.
	d.Unregister(0, 1)
	if d.dom[0].demand != 0 {
		t.Fatal("unregister underflow not clamped")
	}
	// Negative demand registers as zero.
	if h := d.Register(0, -1); h != 0 || d.dom[0].demand != 0 {
		t.Fatalf("negative demand registered as %g (total %g)", h, d.dom[0].demand)
	}
}

// TestDomainsAccumulateSeparately: demand registered in one bandwidth
// domain stretches that domain only, and the second domain takes its own
// bandwidth from the spec.
func TestDomainsAccumulateSeparately(t *testing.T) {
	d := &DRAM{}
	d.ResetSpec(machine.DRAMSpec{
		UnloadedLatency: 40, BandwidthBytesPerCycle: 8, Knee: 0.75,
		SecondDomain: &machine.DRAMDomain{BandwidthBytesPerCycle: 4, Cores: 2},
	})
	if got := d.dom[1].cfg; got != (params{unloadedLatency: 40, bandwidth: 4, knee: 0.75}) {
		t.Fatalf("second domain params = %+v", got)
	}
	h := d.Register(1, 8)
	if got := d.Stretch(1); got != 2 {
		t.Errorf("second-domain stretch at 2x its bandwidth = %g, want 2", got)
	}
	if got := d.Stretch(0); got != 1 {
		t.Errorf("primary stretch with demand only in the second domain = %g, want 1", got)
	}
	d.Register(0, 16)
	if got := d.Stretch(0); got != 2 {
		t.Errorf("primary stretch at 2x its bandwidth = %g, want 2", got)
	}
	d.Unregister(1, h)
	if got := d.Stretch(1); got != 1 {
		t.Errorf("second-domain stretch after unregister = %g, want 1", got)
	}
	if got := d.Stretch(0); got != 2 {
		t.Errorf("primary stretch after a second-domain unregister = %g, want 2", got)
	}
}

func TestUnconstrainedDemand(t *testing.T) {
	cfg := paperDRAM()
	// Pure streaming: instr=0 => demand equals single-thread bandwidth.
	if got, want := cfg.UnconstrainedDemand(0, 1000), cfg.SingleThreadBandwidth(); math.Abs(got-want) > 1e-12 {
		t.Errorf("pure stream demand = %g, want %g", got, want)
	}
	// No misses: zero demand.
	if got := cfg.UnconstrainedDemand(1e6, 0); got != 0 {
		t.Errorf("no-miss demand = %g, want 0", got)
	}
	// Compute-heavy: demand shrinks as instruction work grows.
	d1 := cfg.UnconstrainedDemand(1000, 10)
	d2 := cfg.UnconstrainedDemand(100000, 10)
	if !(d2 < d1 && d1 > 0) {
		t.Errorf("demand not decreasing with compute: %g vs %g", d1, d2)
	}
}

func TestOmegaGrowsPastSaturation(t *testing.T) {
	cfg := paperDRAM()
	if got := cfg.Omega(0); got != cfg.unloadedLatency {
		t.Errorf("omega unloaded = %g, want %g", got, cfg.unloadedLatency)
	}
	if got := cfg.Omega(3 * cfg.bandwidth); math.Abs(got-3*cfg.unloadedLatency) > 1e-9 {
		t.Errorf("omega at 3x = %g, want %g", got, 3*cfg.unloadedLatency)
	}
}

func TestCacheBasics(t *testing.T) {
	c := NewCache(machine.LLCSpec{SizeBytes: 1 << 12, Ways: 2, LineBytes: 64}) // 4KB, 32 sets
	if c.Sets() != 32 {
		t.Fatalf("sets = %d, want 32", c.Sets())
	}
	if c.Access(0) {
		t.Error("first access should miss")
	}
	if !c.Access(0) {
		t.Error("second access to same line should hit")
	}
	if !c.Access(63) {
		t.Error("same line (byte 63) should hit")
	}
	if c.Access(64) {
		t.Error("next line should miss")
	}
	acc, miss := c.Stats()
	if acc != 4 || miss != 2 {
		t.Fatalf("stats = (%d, %d), want (4, 2)", acc, miss)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	// 2-way cache with 1 set: capacity 2 lines.
	c := NewCache(machine.LLCSpec{SizeBytes: 128, Ways: 2, LineBytes: 64})
	if c.Sets() != 1 {
		t.Fatalf("sets = %d, want 1", c.Sets())
	}
	c.Access(0)   // miss, load A
	c.Access(64)  // miss, load B
	c.Access(0)   // hit A (B is now LRU)
	c.Access(128) // miss, evicts B
	if !c.Access(0) {
		t.Error("A should still be resident")
	}
	if c.Access(64) {
		t.Error("B should have been evicted (LRU)")
	}
}

func TestStreamMissRateRegimes(t *testing.T) {
	cfg := machine.LLCSpec{SizeBytes: 1 << 16, Ways: 8, LineBytes: 64} // 64 KB
	// Footprint fits: steady-state sweep should hit almost always.
	small := StreamMissRate(cfg, 1<<14, 8)
	if small > 0.01 {
		t.Errorf("in-cache sweep miss rate = %g, want ~0", small)
	}
	// Footprint 16x the cache: every line access misses; with stride 8
	// there are 8 accesses per 64-byte line, so miss rate ~ 1/8.
	big := StreamMissRate(cfg, 1<<20, 8)
	if math.Abs(big-0.125) > 0.02 {
		t.Errorf("streaming miss rate = %g, want ~0.125", big)
	}
	// Stride >= line size: every access a new line, miss rate ~ 1.
	stride64 := StreamMissRate(cfg, 1<<20, 64)
	if stride64 < 0.95 {
		t.Errorf("line-stride miss rate = %g, want ~1", stride64)
	}
}

func TestStreamMissRateDegenerate(t *testing.T) {
	if got := StreamMissRate(paperLLC, 0, 8); got != 0 {
		t.Errorf("zero footprint miss rate = %g, want 0", got)
	}
	// Non-positive stride defaults rather than looping forever.
	if got := StreamMissRate(machine.LLCSpec{SizeBytes: 1 << 12, Ways: 2, LineBytes: 64}, 1<<10, 0); got < 0 {
		t.Errorf("negative miss rate %g", got)
	}
}

func TestLineSizeConstantConsistent(t *testing.T) {
	if counters.LineSize != 64 {
		t.Fatalf("LineSize = %d; DRAM/cache models assume 64", counters.LineSize)
	}
}
