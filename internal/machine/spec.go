// Package machine defines the immutable specification of a simulated
// target machine: core groups (with per-group speed ratios for asymmetric
// big.LITTLE-style designs), the last-level cache, and the DRAM bandwidth
// model (with an optional second NUMA-ish bandwidth domain), plus a
// registry of named presets.
//
// A Spec is the single source of machine truth for the rest of the
// system: internal/sim and internal/mem derive their runtime
// configuration from it, the prediction API selects one per request by
// name, and the estimate-cache/cluster-routing keys incorporate the name.
// The split between the validated, immutable Spec and the pooled mutable
// machine instance (sim.Machine, mem.DRAM) is what lets one spec be
// shared by every concurrent run without copying or locking.
//
// Specs are validated strictly: Validate never rewrites a field. A zero
// field that would be meaningless (no cores, zero quantum) is an error,
// while a zero field with a legitimate meaning (ContextSwitch: 0 — free
// context switches; SecondDomain: nil — a single bandwidth domain) is
// kept exactly as written.
package machine

import (
	"errors"
	"fmt"
	"strings"

	"prophet/internal/clock"
)

// ErrInvalidSpec is the family sentinel for machine-spec validation
// errors: every error Validate returns wraps it (via *SpecError).
var ErrInvalidSpec = errors.New("machine: invalid spec")

// ErrUnknownSpec is the sentinel for ParseSpec lookups of names not in
// the registry.
var ErrUnknownSpec = errors.New("machine: unknown spec")

// SpecError reports one failed validation rule. It unwraps to
// ErrInvalidSpec so callers can errors.Is against the sentinel.
type SpecError struct {
	// Spec is the Name of the offending spec ("" when unnamed).
	Spec string
	// Field names the offending field ("core_groups[1].speed").
	Field string
	// Reason explains the violated rule.
	Reason string
}

func (e *SpecError) Error() string {
	name := e.Spec
	if name == "" {
		name = "<unnamed>"
	}
	return fmt.Sprintf("machine: invalid spec %s: %s: %s", name, e.Field, e.Reason)
}

func (e *SpecError) Unwrap() error { return ErrInvalidSpec }

// CoreGroup is a homogeneous group of cores within a machine. Asymmetric
// machines (big.LITTLE) are several groups with different speeds.
type CoreGroup struct {
	// Count is the number of cores in the group.
	Count int `json:"count"`
	// Speed is the group's clock ratio relative to the machine's nominal
	// cycle: a core with Speed 2 retires instruction work twice per
	// nominal cycle; Speed 0.5 is a half-rate efficiency core. Memory
	// stalls are not scaled — DRAM runs on the nominal clock.
	Speed float64 `json:"speed"`
}

// LLCSpec sizes the shared last-level cache.
type LLCSpec struct {
	// SizeBytes is the total capacity.
	SizeBytes int64 `json:"size_bytes"`
	// Ways is the associativity.
	Ways int `json:"ways"`
	// LineBytes is the cache-line size (power of two).
	LineBytes int `json:"line_bytes"`
}

// DRAMDomain is the optional second bandwidth domain of a two-domain
// (NUMA-ish) memory system: the highest-numbered Cores cores of the
// machine issue their traffic against this domain's bandwidth instead of
// the primary one. Latency (UnloadedLatency) and the saturation knee are
// shared with the primary domain.
type DRAMDomain struct {
	// BandwidthBytesPerCycle is the domain's sustainable bandwidth.
	BandwidthBytesPerCycle float64 `json:"bandwidth_bytes_per_cycle"`
	// Cores is how many (highest-numbered) cores belong to the domain;
	// it must leave at least one core on the primary domain.
	Cores int `json:"cores"`
}

// DRAMSpec describes the DRAM bandwidth/saturation model.
type DRAMSpec struct {
	// UnloadedLatency ω₀ is the effective per-miss CPU stall in nominal
	// cycles when the bus is idle.
	UnloadedLatency float64 `json:"unloaded_latency"`
	// BandwidthBytesPerCycle is the sustainable bandwidth of the primary
	// domain in bytes per nominal cycle.
	BandwidthBytesPerCycle float64 `json:"bandwidth_bytes_per_cycle"`
	// Knee is the utilization fraction where queueing starts to stretch
	// latency (0 < Knee <= 1).
	Knee float64 `json:"knee"`
	// SecondDomain, when non-nil, splits the machine into two bandwidth
	// domains. Nil means one shared bus (the paper machine).
	SecondDomain *DRAMDomain `json:"second_domain,omitempty"`
}

// Spec is an immutable, validated machine specification. Construct one as
// a literal and call Validate (or register it, which validates), then
// treat it as read-only: registry lookups hand out shared pointers, and
// the simulator, the calibration cache and the server all rely on a
// *Spec never changing after publication.
type Spec struct {
	// Name identifies the spec in flags, JSON requests and cache keys.
	Name string `json:"name"`
	// Desc is a one-line human description.
	Desc string `json:"desc,omitempty"`
	// CoreGroups lays out the cores, fastest-first by convention. Core
	// index i belongs to the group covering i in cumulative Count order.
	CoreGroups []CoreGroup `json:"core_groups"`
	// Quantum is the OS scheduling time slice in nominal cycles.
	Quantum clock.Cycles `json:"quantum"`
	// ContextSwitch is the cost of switching a core between threads, in
	// nominal cycles. Zero means genuinely free; it is never rewritten to
	// a default.
	ContextSwitch clock.Cycles `json:"context_switch"`
	// LLC sizes the shared last-level cache.
	LLC LLCSpec `json:"llc"`
	// DRAM describes the memory system.
	DRAM DRAMSpec `json:"dram"`
}

// String returns the spec's name, so a registered spec round-trips
// through ParseSpec(s.String()) exactly (same pointer).
func (s *Spec) String() string { return s.Name }

// Cores returns the total core count.
func (s *Spec) Cores() int {
	n := 0
	for _, g := range s.CoreGroups {
		n += g.Count
	}
	return n
}

// SpeedOf returns the speed ratio of core i (1 for out-of-range indices,
// so oversubscribed abstract CPU numbering degrades gracefully).
func (s *Spec) SpeedOf(i int) float64 {
	for _, g := range s.CoreGroups {
		if i < g.Count {
			return g.Speed
		}
		i -= g.Count
	}
	return 1
}

// Homogeneous reports whether every core runs at speed 1. Only the FF
// keys on it, through CoreSpeeds; the simulator times every core on one
// path that divides instruction cycles by the core's speed.
func (s *Spec) Homogeneous() bool {
	for _, g := range s.CoreGroups {
		if g.Speed != 1 {
			return false
		}
	}
	return true
}

// CoreSpeeds returns the per-core speed ratios for n abstract CPUs,
// mapping CPU i to physical core i mod Cores(). It returns nil when the
// speeds are all 1, which the FF (ff.Emulator.Speeds) takes as the
// homogeneous machine and answers with its speed-free arithmetic.
func (s *Spec) CoreSpeeds(n int) []float64 {
	if s.Homogeneous() {
		return nil
	}
	cores := s.Cores()
	out := make([]float64, n)
	for i := range out {
		out[i] = s.SpeedOf(i % cores)
	}
	return out
}

// WithCores returns an unregistered copy of s named name that keeps the
// first n of s's cores, cutting its core groups in order (a machine with
// fewer than n cores grows its last group). A second bandwidth domain
// that would leave no core on the primary domain is dropped. Every other
// field is s's. The copy is not validated; the caller may adjust it
// before first use and must treat it as immutable after.
func (s *Spec) WithCores(name string, n int) *Spec {
	d := *s
	d.Name = name
	d.CoreGroups = nil
	for _, g := range s.CoreGroups {
		if n == 0 {
			break
		}
		g.Count = min(g.Count, n)
		n -= g.Count
		d.CoreGroups = append(d.CoreGroups, g)
	}
	if n > 0 {
		d.CoreGroups[len(d.CoreGroups)-1].Count += n
	}
	if sd := d.DRAM.SecondDomain; sd != nil && sd.Cores >= d.Cores() {
		d.DRAM.SecondDomain = nil
	}
	return &d
}

func (s *Spec) bad(field, format string, args ...any) error {
	return &SpecError{Spec: s.Name, Field: field, Reason: fmt.Sprintf(format, args...)}
}

// Validate checks every field strictly and never rewrites any. All
// returned errors are *SpecError values wrapping ErrInvalidSpec.
func (s *Spec) Validate() error {
	if s.Name == "" {
		return s.bad("name", "must be non-empty")
	}
	if strings.ContainsAny(s.Name, ", \t\n\x00") {
		return s.bad("name", "%q contains a comma, whitespace or NUL (names must be flag- and key-safe)", s.Name)
	}
	if len(s.CoreGroups) == 0 {
		return s.bad("core_groups", "need at least one group")
	}
	for i, g := range s.CoreGroups {
		if g.Count <= 0 {
			return s.bad(fmt.Sprintf("core_groups[%d].count", i), "must be positive, got %d", g.Count)
		}
		if !(g.Speed > 0) || g.Speed > 64 {
			return s.bad(fmt.Sprintf("core_groups[%d].speed", i), "must be in (0, 64], got %v", g.Speed)
		}
	}
	if s.Quantum <= 0 {
		return s.bad("quantum", "must be positive, got %d", s.Quantum)
	}
	if s.ContextSwitch < 0 {
		return s.bad("context_switch", "must be >= 0, got %d (0 already means free)", s.ContextSwitch)
	}
	if s.LLC.SizeBytes <= 0 {
		return s.bad("llc.size_bytes", "must be positive, got %d", s.LLC.SizeBytes)
	}
	if s.LLC.Ways <= 0 {
		return s.bad("llc.ways", "must be positive, got %d", s.LLC.Ways)
	}
	if lb := s.LLC.LineBytes; lb <= 0 || lb&(lb-1) != 0 {
		return s.bad("llc.line_bytes", "must be a positive power of two, got %d", lb)
	}
	if !(s.DRAM.UnloadedLatency > 0) {
		return s.bad("dram.unloaded_latency", "must be positive, got %v", s.DRAM.UnloadedLatency)
	}
	if !(s.DRAM.BandwidthBytesPerCycle > 0) {
		return s.bad("dram.bandwidth_bytes_per_cycle", "must be positive, got %v", s.DRAM.BandwidthBytesPerCycle)
	}
	if !(s.DRAM.Knee > 0) || s.DRAM.Knee > 1 {
		return s.bad("dram.knee", "must be in (0, 1], got %v", s.DRAM.Knee)
	}
	if d := s.DRAM.SecondDomain; d != nil {
		if !(d.BandwidthBytesPerCycle > 0) {
			return s.bad("dram.second_domain.bandwidth_bytes_per_cycle", "must be positive, got %v", d.BandwidthBytesPerCycle)
		}
		if d.Cores <= 0 {
			return s.bad("dram.second_domain.cores", "must be positive, got %d", d.Cores)
		}
		if d.Cores >= s.Cores() {
			return s.bad("dram.second_domain.cores", "%d cores leaves none on the primary domain (machine has %d)", d.Cores, s.Cores())
		}
	}
	return nil
}
