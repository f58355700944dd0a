// Package mem models the memory system of the simulated machine: a
// last-level cache (cache.go) and a bandwidth-shared DRAM (this file).
//
// The paper's memory performance model (§V) rests on one physical effect:
// when several cores stream misses to DRAM at once, the bus saturates and
// the per-miss stall ω grows. The paper measures this on real hardware with
// a microbenchmark and fits Eq. (6)/(7). This package provides the
// *machine-side ground truth* for the same effect: a fluid
// bandwidth-sharing model in which each memory-active thread registers its
// unconstrained demand and, whenever aggregate demand exceeds the DRAM
// bandwidth, every active thread's memory time stretches by the
// oversubscription ratio. The Ψ/Φ calibration in internal/memmodel re-runs
// the paper's microbenchmark against this model.
package mem

import (
	"prophet/internal/counters"
	"prophet/internal/machine"
)

// params are one bandwidth domain's DRAM parameters, copied by value from
// a validated machine.DRAMSpec.
type params struct {
	// unloadedLatency ω₀ is the effective per-miss CPU stall in cycles
	// when the bus is idle (MLP-adjusted: overlapping misses make this
	// much smaller than the raw DRAM round trip).
	unloadedLatency float64
	// bandwidth is the domain's sustainable DRAM bandwidth in bytes per
	// core cycle, shared by all of its cores.
	bandwidth float64
	// knee is the utilization fraction at which queueing starts to add
	// latency even before full saturation (0 < knee <= 1). Above the
	// knee, latency rises smoothly toward the fluid-sharing limit.
	knee float64
}

// SingleThreadBandwidth returns the maximum traffic one thread can generate
// (bytes/cycle): one line per ω₀ cycles.
func (c params) SingleThreadBandwidth() float64 {
	return counters.LineSize / c.unloadedLatency
}

// domain is one DRAM bandwidth domain: its parameters, the demand its
// cores have registered, and the Stretch memo. The fluid-model curve only
// depends on the aggregate demand, which changes far less often than
// Stretch is called (the engine re-evaluates it at every slice start).
// The memo is keyed on the exact demand value, so the cached result is
// bit-identical to a recomputation.
type domain struct {
	cfg           params
	demand        float64 // sum of registered unconstrained demands (B/cycle)
	stretchDemand float64
	stretchVal    float64
	stretchOK     bool
}

// DRAM is the machine's bandwidth-shared memory: one or two bandwidth
// domains (machine.DRAMSpec.SecondDomain) that share ω₀ and the knee but
// accumulate demand separately, so traffic in one NUMA-ish domain does
// not stretch the other. Every method that touches demand takes the
// domain index, 0 for the primary domain and 1 for the second; a
// single-domain machine only ever uses domain 0. It is used by the
// simulator engine, which serializes all accesses, so no locking is
// needed. The zero value is unusable until ResetSpec installs a machine's
// parameters.
type DRAM struct {
	dom [2]domain
	// bwHook, when set, rescales the effective bandwidth (fault
	// injection: internal/faults models DRAM degradation through it).
	// No-op by default. The hook applies to both domains.
	bwHook func(base float64) float64
}

// ResetSpec reinitializes the model in place for a fresh run on a
// validated machine spec, installing the spec's second bandwidth domain
// when present.
func (d *DRAM) ResetSpec(s machine.DRAMSpec) {
	cfg := params{unloadedLatency: s.UnloadedLatency, bandwidth: s.BandwidthBytesPerCycle, knee: s.Knee}
	*d = DRAM{}
	d.dom[0].cfg = cfg
	if sd := s.SecondDomain; sd != nil {
		d.dom[1].cfg = cfg
		d.dom[1].cfg.bandwidth = sd.BandwidthBytesPerCycle
	}
}

// UnconstrainedDemand returns the demand (bytes/cycle) a work segment of
// instrCycles CPU cycles and misses LLC misses generates when the bus is
// idle. The domains share ω₀, so the demand is the same on either.
func (d *DRAM) UnconstrainedDemand(instrCycles, misses float64) float64 {
	return d.dom[0].cfg.UnconstrainedDemand(instrCycles, misses)
}

// Register adds a thread's unconstrained demand (bytes/cycle) to domain
// dom. It returns a handle value to pass to Unregister.
func (d *DRAM) Register(dom int, demand float64) float64 {
	if demand < 0 {
		demand = 0
	}
	d.dom[dom].demand += demand
	return demand
}

// Unregister removes a demand previously registered on domain dom.
func (d *DRAM) Unregister(dom int, demand float64) {
	x := &d.dom[dom]
	x.demand -= demand
	if x.demand < 0 {
		x.demand = 0
	}
}

// SetBandwidthHook installs (or, with nil, removes) a bandwidth
// perturbation: Stretch computes contention against hook(configured
// bandwidth) instead of the configured value. The hook runs on the engine
// goroutine and must be deterministic; non-positive returns are ignored.
func (d *DRAM) SetBandwidthHook(hook func(base float64) float64) {
	d.bwHook = hook
}

// Stretch returns the factor by which the memory portion of domain dom's
// active threads' work is dilated under that domain's aggregate demand.
//
// Below Knee·B the bus is effectively uncontended (stretch 1). Between the
// knee and saturation, queueing adds latency along a quadratic ramp; past
// saturation the fluid-sharing limit applies: every byte takes demand/B
// times longer (params.StretchAt). The memo is bypassed while a bandwidth hook is installed, since a hook
// may legitimately vary between calls.
func (d *DRAM) Stretch(dom int) float64 {
	x := &d.dom[dom]
	if d.bwHook != nil {
		cfg := x.cfg
		if b := d.bwHook(cfg.bandwidth); b > 0 {
			cfg.bandwidth = b
		}
		return cfg.StretchAt(x.demand)
	}
	if x.stretchOK && x.demand == x.stretchDemand {
		return x.stretchVal
	}
	v := x.cfg.StretchAt(x.demand)
	x.stretchDemand, x.stretchVal, x.stretchOK = x.demand, v, true
	return v
}

// StretchAt computes the stretch for an arbitrary aggregate demand.
func (c params) StretchAt(demand float64) float64 {
	b := c.bandwidth
	knee := c.knee * b
	switch {
	case demand <= knee:
		return 1
	case demand >= b:
		return demand / b
	default:
		// Smooth ramp from 1 at the knee to 1 at saturation boundary
		// (the fluid term takes over at demand == b where demand/b == 1,
		// so interpolate the queueing penalty up to that point).
		frac := (demand - knee) / (b - knee)
		// Queueing adds up to 15% latency just below saturation,
		// mimicking the measured soft knee of real memory systems.
		return 1 + 0.15*frac*frac
	}
}

// Omega returns the effective per-miss stall in cycles at the given
// aggregate demand: ω = ω₀ · stretch.
func (c params) Omega(demand float64) float64 {
	return c.unloadedLatency * c.StretchAt(demand)
}

// UnconstrainedDemand returns the demand (bytes/cycle) a work segment of
// instrCycles CPU cycles and misses LLC misses generates when the bus is
// idle: misses·LineSize / (instrCycles + misses·ω₀).
func (c params) UnconstrainedDemand(instrCycles float64, misses float64) float64 {
	if misses <= 0 {
		return 0
	}
	t := instrCycles + misses*c.unloadedLatency
	if t <= 0 {
		return c.SingleThreadBandwidth()
	}
	return misses * counters.LineSize / t
}
