package main

import (
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain runs main instead of the tests when PPEXP_RUN_MAIN is set, so
// a test can drive the real command line through the test binary.
func TestMain(m *testing.M) {
	if os.Getenv("PPEXP_RUN_MAIN") == "1" {
		os.Args = append([]string{"ppexp"}, os.Args[1:]...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runPPExp runs ppexp with args and returns its stderr and exit code.
func runPPExp(t *testing.T, args ...string) (string, int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "PPEXP_RUN_MAIN=1")
	var stderr strings.Builder
	cmd.Stderr = &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	switch {
	case err == nil:
		return stderr.String(), 0
	case errors.As(err, &exit):
		return stderr.String(), exit.ExitCode()
	}
	t.Fatal(err)
	return "", 0
}

// TestUnknownBenchIsUsageError: an unknown -bench name exits with the
// usage code and names the valid benchmarks, instead of printing an
// empty table or silently dropping the name.
func TestUnknownBenchIsUsageError(t *testing.T) {
	for _, args := range [][]string{
		{"-table", "3", "-bench", "NPB-XX"},
		{"-fig", "12", "-bench", "MD-OMP,NOPE"},
	} {
		stderr, code := runPPExp(t, args...)
		if code != 2 {
			t.Errorf("%v: exit code %d, want 2 (stderr %q)", args, code, stderr)
		}
		if !strings.Contains(stderr, "unknown benchmark") || !strings.Contains(stderr, "NPB-EP") {
			t.Errorf("%v: stderr %q does not name the valid benchmarks", args, stderr)
		}
	}
}

func TestSlug(t *testing.T) {
	cases := map[string]string{
		"Test1, 8-core, FF":     "test1--8-core--ff",
		"NPB-FT — NPB FT (x/y)": "npb-ft---npb-ft--x-y",
		"already-clean":         "already-clean",
		"---Trim Me---":         "trim-me",
		"MiXeD CaSe 123":        "mixed-case-123",
		"calibration t=12":      "calibration-t-12",
	}
	for in, want := range cases {
		if got := slug(in); got != want {
			t.Errorf("slug(%q) = %q, want %q", in, got, want)
		}
	}
}
