package prophet

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

	"prophet/internal/omprt"
	"prophet/internal/synth"
)

// This file is the one vocabulary for spelling requests as text: the
// CLIs' flag values, the JSON encodings of Request/Estimate and the
// String() methods all round-trip through these parsers —
// ParseX(x.String()) == x for every Method, Paradigm and Sched.

// ParseMethod parses a prediction-method name. It accepts the exact
// String() spellings — "ff", "synthesizer", "suitability", "amdahl",
// "critical-path" — plus the short CLI aliases "syn", "suit" and
// "kismet".
func ParseMethod(s string) (Method, error) {
	switch s {
	case "ff":
		return FastForward, nil
	case "synthesizer", "syn":
		return Synthesizer, nil
	case "suitability", "suit":
		return Suitability, nil
	case "amdahl":
		return AmdahlLaw, nil
	case "critical-path", "kismet":
		return CriticalPathBound, nil
	}
	return 0, fmt.Errorf("prophet: unknown method %q (want ff | synthesizer | suitability | amdahl | critical-path)", s)
}

// MarshalText encodes the method as its String() name, so Method fields
// marshal to stable JSON strings like "ff".
func (m Method) MarshalText() ([]byte, error) {
	return []byte(m.String()), nil
}

// UnmarshalText parses any spelling ParseMethod accepts.
func (m *Method) UnmarshalText(text []byte) error {
	parsed, err := ParseMethod(string(text))
	if err != nil {
		return err
	}
	*m = parsed
	return nil
}

// ParseParadigm parses a paradigm name: "openmp" (or "omp") and "cilk".
func ParseParadigm(s string) (Paradigm, error) {
	return synth.ParseParadigm(s)
}

// ParseSched parses an OpenMP schedule. It accepts the exact String()
// spellings — "(static)", "(static,4)", "(dynamic,1)", "(guided)" — and
// the bare CLI forms "static", "static1", "static,N", "dynamic",
// "dynamic1", "dynamic,N" and "guided".
func ParseSched(s string) (Sched, error) {
	return omprt.ParseSched(s)
}

// ParseCores parses a comma-separated list of CPU counts, e.g.
// "2,4,6,8,10,12" (spaces around entries allowed), normalized by
// NormalizeCores: "4,4,2" parses to [2 4]. Errors wrap ErrInvalidRequest.
func ParseCores(s string) ([]int, error) {
	if strings.TrimSpace(s) == "" {
		return NormalizeCores(nil)
	}
	parts := strings.Split(s, ",")
	cores := make([]int, len(parts))
	for i, part := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("%w: bad core count %q", ErrInvalidRequest, part)
		}
		cores[i] = v
	}
	return NormalizeCores(cores)
}

// NormalizeCores is the one normalization of a core-count axis: a copy,
// deduplicated and ascending, so a sweep visits each count once in curve
// order. An empty axis or a count below 1 wraps ErrInvalidRequest.
func NormalizeCores(cores []int) ([]int, error) {
	if len(cores) == 0 {
		return nil, fmt.Errorf("%w: empty core list", ErrInvalidRequest)
	}
	out := slices.Clone(cores)
	slices.Sort(out)
	if out[0] < 1 {
		return nil, fmt.Errorf("%w: bad core count %d (must be a positive integer)", ErrInvalidRequest, out[0])
	}
	return slices.Compact(out), nil
}
