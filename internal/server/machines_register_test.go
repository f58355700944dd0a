package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"

	"prophet"
)

// regSeq numbers the names registrableSpec hands out.
var regSeq atomic.Int64

// registrableSpec builds a valid custom spec named base plus a sequence
// number. The machine registry is process-global and keeps every
// registration, so a fixed name would collide with itself on the second
// run of a test (go test -count=N).
func registrableSpec(base string) *prophet.MachineSpec {
	return &prophet.MachineSpec{
		Name:          fmt.Sprintf("%s-%d", base, regSeq.Add(1)),
		Desc:          "six-core test rig",
		CoreGroups:    []prophet.CoreGroup{{Count: 6, Speed: 1}},
		Quantum:       50_000,
		ContextSwitch: 1_000,
		LLC:           prophet.LLCSpec{SizeBytes: 4 << 20, Ways: 8, LineBytes: 64},
		DRAM:          prophet.DRAMSpec{UnloadedLatency: 50, BandwidthBytesPerCycle: 4, Knee: 0.75},
	}
}

// TestMachineRegisterValidation: every Validate rule surfaces as a 400
// whose body names the offending field — the ErrInvalidMachineSpec
// diagnosis crosses the wire intact.
func TestMachineRegisterValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{DisableMemoryModel: true})
	cases := []struct {
		name    string
		mutate  func(*prophet.MachineSpec)
		wantMsg string
	}{
		{"empty name", func(s *prophet.MachineSpec) { s.Name = "" }, "name"},
		{"unsafe name", func(s *prophet.MachineSpec) { s.Name = "a b" }, "name"},
		{"no core groups", func(s *prophet.MachineSpec) { s.CoreGroups = nil }, "core_groups"},
		{"zero count", func(s *prophet.MachineSpec) { s.CoreGroups[0].Count = 0 }, "count"},
		{"bad speed", func(s *prophet.MachineSpec) { s.CoreGroups[0].Speed = -1 }, "speed"},
		{"zero quantum", func(s *prophet.MachineSpec) { s.Quantum = 0 }, "quantum"},
		{"negative context switch", func(s *prophet.MachineSpec) { s.ContextSwitch = -1 }, "context_switch"},
		{"zero llc", func(s *prophet.MachineSpec) { s.LLC.SizeBytes = 0 }, "llc.size_bytes"},
		{"bad line bytes", func(s *prophet.MachineSpec) { s.LLC.LineBytes = 48 }, "line_bytes"},
		{"zero bandwidth", func(s *prophet.MachineSpec) { s.DRAM.BandwidthBytesPerCycle = 0 }, "bandwidth"},
		{"knee out of range", func(s *prophet.MachineSpec) { s.DRAM.Knee = 1.5 }, "knee"},
		{"second domain eats all cores", func(s *prophet.MachineSpec) {
			s.DRAM.SecondDomain = &prophet.DRAMDomain{BandwidthBytesPerCycle: 4, Cores: 6}
		}, "second_domain"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			spec := registrableSpec("t-reg-invalid")
			tc.mutate(spec)
			code, body := postJSON(t, ts.URL+"/v1/machines", spec)
			if code != http.StatusBadRequest {
				t.Fatalf("status %d, want 400 (%s)", code, body)
			}
			var er errorResponse
			if err := json.Unmarshal(body, &er); err != nil {
				t.Fatalf("bad error body %s: %v", body, err)
			}
			if !strings.Contains(er.Error, "invalid spec") || !strings.Contains(er.Error, tc.wantMsg) {
				t.Fatalf("error %q does not name the violated rule %q", er.Error, tc.wantMsg)
			}
		})
	}
	// Unknown JSON fields are a client error (strict decode), like every
	// other endpoint.
	code, body := postJSON(t, ts.URL+"/v1/machines", map[string]any{"name": "t-reg-x", "bogus": 1})
	if code != http.StatusBadRequest || !strings.Contains(string(body), "bogus") {
		t.Fatalf("unknown field: %d %s, want 400 naming it", code, body)
	}
}

// TestMachineRegisterDuplicateAndListing: a successful POST answers 201
// with the machineInfo body, the name shows up in GET /v1/machines, and
// re-registering it is a 409 (specs are immutable after publication).
func TestMachineRegisterDuplicateAndListing(t *testing.T) {
	_, ts := newTestServer(t, Config{DisableMemoryModel: true})
	spec := registrableSpec("t-reg-dup")

	code, body := postJSON(t, ts.URL+"/v1/machines", spec)
	if code != http.StatusCreated {
		t.Fatalf("register: %d %s, want 201", code, body)
	}
	var info machineInfo
	if err := json.Unmarshal(body, &info); err != nil {
		t.Fatal(err)
	}
	if info.Name != spec.Name || info.Cores != 6 || info.Default {
		t.Fatalf("201 body %+v, want name/cores echoed and no default flag", info)
	}

	code, body = postJSON(t, ts.URL+"/v1/machines", spec)
	if code != http.StatusConflict {
		t.Fatalf("duplicate register: %d %s, want 409", code, body)
	}
	if !strings.Contains(string(body), "already registered") {
		t.Fatalf("409 body %s does not explain the conflict", body)
	}

	resp, err := http.Get(ts.URL + "/v1/machines")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var listing []machineInfo
	if err := json.NewDecoder(resp.Body).Decode(&listing); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, m := range listing {
		found = found || m.Name == spec.Name
	}
	if !found {
		t.Fatal("registered spec missing from GET /v1/machines")
	}
}

// TestRegisteredMachineIsServable: a spec registered over the wire is
// immediately usable as a predict machine field and a sweep machines
// axis entry, like any built-in preset.
func TestRegisteredMachineIsServable(t *testing.T) {
	_, ts := newTestServer(t, Config{DisableMemoryModel: true})
	spec := registrableSpec("t-reg-use")
	if code, body := postJSON(t, ts.URL+"/v1/machines", spec); code != http.StatusCreated {
		t.Fatalf("register: %d %s", code, body)
	}

	code, body := postJSON(t, ts.URL+"/v1/predict", predictRequest{
		Workload: "NPB-EP",
		Request:  prophet.Request{Method: prophet.FastForward, Threads: 4, Machine: spec.Name},
	})
	if code != http.StatusOK {
		t.Fatalf("predict on registered machine: %d %s", code, body)
	}
	var est prophet.Estimate
	if err := json.Unmarshal(body, &est); err != nil {
		t.Fatal(err)
	}
	if est.Machine != spec.Name || est.Err != nil || est.Speedup <= 0 {
		t.Fatalf("estimate %+v, want a successful run on the custom machine", est)
	}

	code, body = postJSON(t, ts.URL+"/v1/sweep", sweepRequest{
		Workload: "NPB-EP",
		Machines: []string{prophet.DefaultMachineName, spec.Name},
		Cores:    []int{2, 4},
	})
	if code != http.StatusOK {
		t.Fatalf("sweep over registered machine: %d %s", code, body)
	}
	var sr sweepResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	if sr.Cells != 4 {
		t.Fatalf("sweep cells = %d, want 4 (2 machines × 2 cores)", sr.Cells)
	}
	for _, o := range sr.Outcomes {
		if o.Err != nil || o.Value.Speedup <= 0 {
			t.Fatalf("sweep outcome %+v failed on the machines axis", o)
		}
	}
}
