package machine

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"

	"prophet/internal/counters"
)

// DefaultName is the registry name of the paper machine — the spec every
// request without an explicit machine runs against.
const DefaultName = "westmere12"

// ErrDuplicateSpec is the sentinel for Register calls whose name is
// already taken: specs are immutable after publication, so a name can
// never be rebound (the server maps this to HTTP 409).
var ErrDuplicateSpec = errors.New("machine: spec already registered")

// The preset registry. Lookup hands out the registered pointer itself:
// specs are immutable after registration, so one canonical *Spec per name
// is shared by every caller — which also makes pointer-keyed caches
// (sim.Config in the calibration cache) collapse equal machines to one
// entry.
var registry = struct {
	mu    sync.RWMutex
	specs map[string]*Spec
}{specs: make(map[string]*Spec)}

// Register validates the spec and adds it to the registry. It fails on an
// invalid spec or a duplicate name. The caller must not mutate the spec
// after registration.
func Register(s *Spec) error {
	if err := s.Validate(); err != nil {
		return err
	}
	registry.mu.Lock()
	defer registry.mu.Unlock()
	if _, dup := registry.specs[s.Name]; dup {
		return fmt.Errorf("%w: %q", ErrDuplicateSpec, s.Name)
	}
	registry.specs[s.Name] = s
	return nil
}

// ParseSpec resolves a registered spec name to its canonical pointer.
// ParseSpec(s.String()) returns s itself for any registered spec. Unknown
// names fail with an error wrapping ErrUnknownSpec that lists the
// registered names.
func ParseSpec(name string) (*Spec, error) {
	registry.mu.RLock()
	s := registry.specs[name]
	registry.mu.RUnlock()
	if s == nil {
		return nil, fmt.Errorf("%w %q (known: %s)", ErrUnknownSpec, name, strings.Join(Names(), " | "))
	}
	return s, nil
}

// Names returns the registered spec names, sorted, with the default spec
// first.
func Names() []string {
	registry.mu.RLock()
	defer registry.mu.RUnlock()
	names := make([]string, 0, len(registry.specs))
	for n := range registry.specs {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool {
		if (names[i] == DefaultName) != (names[j] == DefaultName) {
			return names[i] == DefaultName
		}
		return names[i] < names[j]
	})
	return names
}

// Presets returns every registered spec in Names() order.
func Presets() []*Spec {
	out := make([]*Spec, 0)
	for _, n := range Names() {
		s, _ := ParseSpec(n)
		out = append(out, s)
	}
	return out
}

// defaultSpec is the registered westmere12 pointer. A registered name is
// never rebound, so Default can return it without a registry lookup.
var defaultSpec *Spec

// Default returns the canonical paper-machine spec (westmere12).
func Default() *Spec { return defaultSpec }

func mustRegister(s *Spec) {
	if err := Register(s); err != nil {
		panic(err)
	}
}

func init() {
	// westmere12 is the paper's testbed and the system-wide default, the
	// machine every golden output pins. A two-socket Westmere-class
	// memory system at a 2.4 GHz core clock: ω₀ = 40 cycles/miss gives a
	// single-thread streaming bandwidth of 64/40 = 1.6 B/cycle
	// (~3.8 GB/s), and the shared bus sustains 8 B/cycle (~19 GB/s), so
	// bandwidth saturates around five streaming threads — the
	// speedup-saturation points the paper observes on 12 cores (Fig. 2,
	// Fig. 12). The L3 is 12 MiB, 16-way.
	defaultSpec = &Spec{
		Name:          DefaultName,
		Desc:          "12-core two-socket Westmere-class machine, the paper's testbed (default)",
		CoreGroups:    []CoreGroup{{Count: 12, Speed: 1}},
		Quantum:       50_000,
		ContextSwitch: 1_000,
		LLC:           LLCSpec{SizeBytes: 12 << 20, Ways: 16, LineBytes: counters.LineSize},
		DRAM:          DRAMSpec{UnloadedLatency: 40, BandwidthBytesPerCycle: 8, Knee: 0.75},
	}
	mustRegister(defaultSpec)
	// gracelike72: a modern large server — many homogeneous cores, a big
	// LLC, lots of bandwidth split across two NUMA-ish domains of 36
	// cores each.
	mustRegister(&Spec{
		Name:          "gracelike72",
		Desc:          "72-core Grace-like server: 96 MiB LLC, two 36-core bandwidth domains at 32 B/cycle each",
		CoreGroups:    []CoreGroup{{Count: 72, Speed: 1}},
		Quantum:       50_000,
		ContextSwitch: 1_000,
		LLC:           LLCSpec{SizeBytes: 96 << 20, Ways: 16, LineBytes: counters.LineSize},
		DRAM: DRAMSpec{
			UnloadedLatency:        36,
			BandwidthBytesPerCycle: 32,
			Knee:                   0.8,
			SecondDomain:           &DRAMDomain{BandwidthBytesPerCycle: 32, Cores: 36},
		},
	})
	// embedded4+4: an asymmetric big.LITTLE part — four full-rate
	// performance cores plus four half-rate efficiency cores in front of
	// a narrow memory system.
	mustRegister(&Spec{
		Name:          "embedded4+4",
		Desc:          "asymmetric embedded 4+4 big.LITTLE: 4 cores at 1.0x + 4 at 0.5x, 2 MiB LLC, 2 B/cycle DRAM",
		CoreGroups:    []CoreGroup{{Count: 4, Speed: 1}, {Count: 4, Speed: 0.5}},
		Quantum:       50_000,
		ContextSwitch: 1_000,
		LLC:           LLCSpec{SizeBytes: 2 << 20, Ways: 8, LineBytes: counters.LineSize},
		DRAM:          DRAMSpec{UnloadedLatency: 60, BandwidthBytesPerCycle: 2, Knee: 0.7},
	})
	// hbm12: the memory-variant what-if — the paper machine's cores in
	// front of an HBM-like stack (PROFET's question: same code, novel
	// memory system). 4x the bandwidth and a later knee move the
	// saturation point past 12 streaming threads.
	mustRegister(&Spec{
		Name:          "hbm12",
		Desc:          "paper machine's 12 cores with HBM-like memory: 32 B/cycle, knee 0.9",
		CoreGroups:    []CoreGroup{{Count: 12, Speed: 1}},
		Quantum:       50_000,
		ContextSwitch: 1_000,
		LLC:           LLCSpec{SizeBytes: 12 << 20, Ways: 16, LineBytes: counters.LineSize},
		DRAM:          DRAMSpec{UnloadedLatency: 40, BandwidthBytesPerCycle: 32, Knee: 0.9},
	})
}
