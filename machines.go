package prophet

import (
	"fmt"
	"slices"
	"strings"

	"prophet/internal/machine"
)

// This file is the public surface of machine targets: the immutable
// MachineSpec API re-exported from internal/machine, and the text
// vocabulary the CLIs and the daemon use to spell machine names
// (ParseMachineSpec / ParseMachines, the -machines flag grammar).

// MachineSpec is an immutable, validated description of a simulated
// machine: core groups with per-group clock ratios (asymmetric
// big.LITTLE-style machines), the scheduling quantum and context-switch
// cost, the last-level cache, and the DRAM bandwidth model with an
// optional second bandwidth domain. Construct one literally and
// Validate it, or look up a named preset with ParseMachineSpec. A spec
// is never mutated after validation; pass it via MachineConfig.Spec.
type MachineSpec = machine.Spec

// CoreGroup is a run of identical cores inside a MachineSpec.
type CoreGroup = machine.CoreGroup

// LLCSpec describes a MachineSpec's last-level cache.
type LLCSpec = machine.LLCSpec

// DRAMSpec describes a MachineSpec's memory system.
type DRAMSpec = machine.DRAMSpec

// DRAMDomain is the optional second bandwidth domain of a DRAMSpec.
type DRAMDomain = machine.DRAMDomain

// DefaultMachineName names the preset every empty machine field means:
// the paper's 12-core Westmere-class testbed.
const DefaultMachineName = machine.DefaultName

// DefaultMachineSpec returns the default preset (see DefaultMachineName).
func DefaultMachineSpec() *MachineSpec { return machine.Default() }

// ParseMachineSpec resolves a machine preset name to its spec. The
// result is the registry's canonical pointer: specs are immutable and
// equal names always return the same *MachineSpec, so specs can be
// compared by pointer and used as cache keys. Unknown names return an
// error wrapping ErrUnknownMachine.
func ParseMachineSpec(name string) (*MachineSpec, error) {
	return machine.ParseSpec(name)
}

// RegisterMachineSpec adds a custom machine preset to the registry,
// making its name resolvable everywhere a machine name is accepted
// (Request.Machine, -machines, the daemon's machine field). The spec
// must validate and the name must be unused; the registry keeps the
// given pointer as the name's canonical spec, so the caller must not
// mutate it afterwards.
func RegisterMachineSpec(s *MachineSpec) error { return machine.Register(s) }

// MachineNames lists the registered machine preset names, default first,
// the rest sorted.
func MachineNames() []string { return machine.Names() }

// MachinePresets returns the registered specs in MachineNames order.
func MachinePresets() []*MachineSpec { return machine.Presets() }

// ParseMachines parses a comma-separated list of machine preset names —
// the -machines flag grammar, e.g. "westmere12,embedded4+4" — and
// normalizes it with NormalizeMachines.
func ParseMachines(s string) ([]*MachineSpec, error) {
	if strings.TrimSpace(s) == "" {
		return NormalizeMachines(nil)
	}
	return NormalizeMachines(strings.Split(s, ","))
}

// NormalizeMachines is the one normalization of a machine axis: each name
// (spaces around it allowed) resolves to its spec, and duplicates
// collapse to the first occurrence in the given order, the column order
// of a prediction matrix. An empty axis wraps ErrInvalidRequest, an
// unknown name ErrUnknownMachine.
func NormalizeMachines(names []string) ([]*MachineSpec, error) {
	if len(names) == 0 {
		return nil, fmt.Errorf("%w: empty machine list", ErrInvalidRequest)
	}
	var out []*MachineSpec
	for _, name := range names {
		spec, err := machine.ParseSpec(strings.TrimSpace(name))
		if err != nil {
			return nil, err
		}
		if !slices.Contains(out, spec) {
			out = append(out, spec)
		}
	}
	return out, nil
}
