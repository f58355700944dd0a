package machine

import (
	"encoding/json"
	"errors"
	"reflect"
	"strings"
	"testing"
)

func validSpec() *Spec {
	return &Spec{
		Name:          "t-valid",
		CoreGroups:    []CoreGroup{{Count: 2, Speed: 1}, {Count: 2, Speed: 0.5}},
		Quantum:       50_000,
		ContextSwitch: 1_000,
		LLC:           LLCSpec{SizeBytes: 1 << 20, Ways: 8, LineBytes: 64},
		DRAM:          DRAMSpec{UnloadedLatency: 40, BandwidthBytesPerCycle: 8, Knee: 0.75},
	}
}

// TestValidateTable drives every validation rule. Strictness is the
// point: a spec is never silently rewritten, so each bad field must be
// reported as a *SpecError wrapping ErrInvalidSpec and naming the field.
func TestValidateTable(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Spec)
		field  string // expected SpecError.Field; "" = spec must be valid
	}{
		{"valid", func(s *Spec) {}, ""},
		{"zero context switch is legitimately free", func(s *Spec) { s.ContextSwitch = 0 }, ""},
		{"absent second domain is legitimate", func(s *Spec) { s.DRAM.SecondDomain = nil }, ""},
		{"empty name", func(s *Spec) { s.Name = "" }, "name"},
		{"comma in name", func(s *Spec) { s.Name = "a,b" }, "name"},
		{"space in name", func(s *Spec) { s.Name = "a b" }, "name"},
		{"no core groups", func(s *Spec) { s.CoreGroups = nil }, "core_groups"},
		{"zero group count", func(s *Spec) { s.CoreGroups[1].Count = 0 }, "core_groups[1].count"},
		{"zero group speed", func(s *Spec) { s.CoreGroups[0].Speed = 0 }, "core_groups[0].speed"},
		{"negative group speed", func(s *Spec) { s.CoreGroups[0].Speed = -1 }, "core_groups[0].speed"},
		{"NaN group speed", func(s *Spec) { s.CoreGroups[0].Speed = nan() }, "core_groups[0].speed"},
		{"zero quantum", func(s *Spec) { s.Quantum = 0 }, "quantum"},
		{"negative context switch", func(s *Spec) { s.ContextSwitch = -1 }, "context_switch"},
		{"zero llc size", func(s *Spec) { s.LLC.SizeBytes = 0 }, "llc.size_bytes"},
		{"zero llc ways", func(s *Spec) { s.LLC.Ways = 0 }, "llc.ways"},
		{"non-power-of-two line", func(s *Spec) { s.LLC.LineBytes = 48 }, "llc.line_bytes"},
		{"zero dram latency", func(s *Spec) { s.DRAM.UnloadedLatency = 0 }, "dram.unloaded_latency"},
		{"zero dram bandwidth", func(s *Spec) { s.DRAM.BandwidthBytesPerCycle = 0 }, "dram.bandwidth_bytes_per_cycle"},
		{"zero knee", func(s *Spec) { s.DRAM.Knee = 0 }, "dram.knee"},
		{"knee above one not silently clamped", func(s *Spec) { s.DRAM.Knee = 1.5 }, "dram.knee"},
		{"second domain zero bandwidth", func(s *Spec) {
			s.DRAM.SecondDomain = &DRAMDomain{BandwidthBytesPerCycle: 0, Cores: 2}
		}, "dram.second_domain.bandwidth_bytes_per_cycle"},
		{"second domain zero cores", func(s *Spec) {
			s.DRAM.SecondDomain = &DRAMDomain{BandwidthBytesPerCycle: 4, Cores: 0}
		}, "dram.second_domain.cores"},
		{"second domain swallows machine", func(s *Spec) {
			s.DRAM.SecondDomain = &DRAMDomain{BandwidthBytesPerCycle: 4, Cores: 4}
		}, "dram.second_domain.cores"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := validSpec()
			tc.mutate(s)
			err := s.Validate()
			if tc.field == "" {
				if err != nil {
					t.Fatalf("Validate() = %v, want nil", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("Validate() = nil, want error on %s", tc.field)
			}
			if !errors.Is(err, ErrInvalidSpec) {
				t.Errorf("error %v does not wrap ErrInvalidSpec", err)
			}
			var se *SpecError
			if !errors.As(err, &se) {
				t.Fatalf("error %v is not a *SpecError", err)
			}
			if se.Field != tc.field {
				t.Errorf("SpecError.Field = %q, want %q", se.Field, tc.field)
			}
		})
	}
}

func nan() float64 {
	z := 0.0
	return z / z
}

func TestCoresAndSpeeds(t *testing.T) {
	s := validSpec()
	if got := s.Cores(); got != 4 {
		t.Fatalf("Cores() = %d, want 4", got)
	}
	wantSpeeds := []float64{1, 1, 0.5, 0.5}
	for i, want := range wantSpeeds {
		if got := s.SpeedOf(i); got != want {
			t.Errorf("SpeedOf(%d) = %v, want %v", i, got, want)
		}
	}
	if got := s.SpeedOf(99); got != 1 {
		t.Errorf("SpeedOf(out of range) = %v, want 1", got)
	}
	if s.Homogeneous() {
		t.Error("Homogeneous() = true for a 2-speed spec")
	}
	// Abstract CPUs beyond the physical count wrap around.
	if got := s.CoreSpeeds(6); !reflect.DeepEqual(got, []float64{1, 1, 0.5, 0.5, 1, 1}) {
		t.Errorf("CoreSpeeds(6) = %v", got)
	}
	if got := Default().CoreSpeeds(4); got != nil {
		t.Errorf("CoreSpeeds on homogeneous spec = %v, want nil", got)
	}
}

// TestRegistryRoundTrip is the ParseMethod-style contract: for every
// registered preset, ParseSpec(s.String()) returns the canonical pointer
// itself.
func TestRegistryRoundTrip(t *testing.T) {
	names := Names()
	if len(names) < 4 {
		t.Fatalf("Names() = %v, want at least westmere12, gracelike72, embedded4+4, hbm12", names)
	}
	if names[0] != DefaultName {
		t.Fatalf("Names()[0] = %q, want %q first", names[0], DefaultName)
	}
	for _, name := range names {
		s, err := ParseSpec(name)
		if err != nil {
			t.Fatalf("ParseSpec(%q): %v", name, err)
		}
		back, err := ParseSpec(s.String())
		if err != nil {
			t.Fatalf("ParseSpec(String()): %v", err)
		}
		if back != s {
			t.Errorf("ParseSpec(%q.String()) returned a different pointer", name)
		}
		if err := s.Validate(); err != nil {
			t.Errorf("preset %q does not validate: %v", name, err)
		}
	}
}

func TestParseSpecUnknown(t *testing.T) {
	_, err := ParseSpec("no-such-machine")
	if !errors.Is(err, ErrUnknownSpec) {
		t.Fatalf("ParseSpec(unknown) = %v, want ErrUnknownSpec", err)
	}
}

func TestRegisterRejectsDuplicateAndInvalid(t *testing.T) {
	if err := Register(Default()); err == nil {
		t.Error("Register(duplicate) succeeded")
	}
	bad := validSpec()
	bad.Name = ""
	if err := Register(bad); !errors.Is(err, ErrInvalidSpec) {
		t.Errorf("Register(invalid) = %v, want ErrInvalidSpec", err)
	}
}

// TestDefaultMatchesPaperMachine pins westmere12, the only home of the
// paper machine's constants: every golden file depends on these exact
// numbers.
func TestDefaultMatchesPaperMachine(t *testing.T) {
	d := Default()
	if p, err := ParseSpec(DefaultName); err != nil || p != d {
		t.Errorf("ParseSpec(%q) = %p, %v; want Default() %p", DefaultName, p, err, d)
	}
	if d.Cores() != 12 || !d.Homogeneous() {
		t.Errorf("default = %d cores homogeneous=%v, want 12 homogeneous", d.Cores(), d.Homogeneous())
	}
	if d.Quantum != 50_000 || d.ContextSwitch != 1_000 {
		t.Errorf("default quantum/cs = %d/%d, want 50000/1000", d.Quantum, d.ContextSwitch)
	}
	if d.LLC != (LLCSpec{SizeBytes: 12 << 20, Ways: 16, LineBytes: 64}) {
		t.Errorf("default LLC = %+v", d.LLC)
	}
	want := DRAMSpec{UnloadedLatency: 40, BandwidthBytesPerCycle: 8, Knee: 0.75}
	if d.DRAM != want {
		t.Errorf("default DRAM = %+v, want %+v", d.DRAM, want)
	}
}

// TestWithCores: a derived spec keeps the first n cores of the layout
// under its own name, drops a second domain it can no longer hold, and
// leaves the original untouched.
func TestWithCores(t *testing.T) {
	emb, err := ParseSpec("embedded4+4")
	if err != nil {
		t.Fatal(err)
	}
	six := emb.WithCores("emb6", 6)
	if err := six.Validate(); err != nil {
		t.Fatal(err)
	}
	if six == emb || six.Name != "emb6" || six.Cores() != 6 || six.SpeedOf(3) != 1 || six.SpeedOf(4) != 0.5 {
		t.Errorf("WithCores(6) = %+v", six)
	}
	if six.Quantum != emb.Quantum || six.LLC != emb.LLC || six.DRAM != emb.DRAM {
		t.Errorf("WithCores changed machine parameters: %+v vs %+v", six, emb)
	}
	if two := emb.WithCores("emb2", 2); len(two.CoreGroups) != 1 || two.Cores() != 2 || !two.Homogeneous() {
		t.Errorf("WithCores(2) = %+v, want one speed-1 group of 2", two.CoreGroups)
	}
	if big := Default().WithCores("w16", 16); big.Cores() != 16 || !big.Homogeneous() {
		t.Errorf("WithCores(16) = %+v, want the last group grown to 16 cores", big.CoreGroups)
	}
	if emb.Cores() != 8 || emb.CoreGroups[1].Count != 4 {
		t.Errorf("WithCores mutated the original: %+v", emb.CoreGroups)
	}

	grace, err := ParseSpec("gracelike72")
	if err != nil {
		t.Fatal(err)
	}
	if s := grace.WithCores("g48", 48); s.DRAM.SecondDomain == nil || s.Validate() != nil {
		t.Errorf("WithCores(48) lost a second domain it can hold: %+v", s.DRAM)
	}
	if s := grace.WithCores("g2", 2); s.DRAM.SecondDomain != nil || s.Validate() != nil {
		t.Errorf("WithCores(2) kept a second domain it cannot hold: %+v", s.DRAM)
	}
}

func TestSpecJSONRoundTrip(t *testing.T) {
	s := validSpec()
	s.DRAM.SecondDomain = &DRAMDomain{BandwidthBytesPerCycle: 4, Cores: 2}
	data, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var back Spec
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(&back, s) {
		t.Errorf("JSON round trip: got %+v, want %+v", &back, s)
	}
	// A spec without a second domain must omit the field entirely.
	data, err = json.Marshal(Default())
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(data), "second_domain") {
		t.Errorf("default spec JSON leaks second_domain: %s", data)
	}
}
