package prophet

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// The request contract: Profile.Resolve is the one decision of what a
// Request means, and every entry point that runs a request makes it.

// invalidRequests are requests the library cannot name or run. Each must
// fail rather than run as something else: a negative thread count as
// every core, a negative chunk as chunk 1, an unknown method as the FF,
// an unknown paradigm as OpenMP.
var invalidRequests = []struct {
	name string
	req  Request
}{
	{"negative threads", Request{Method: FastForward, Threads: -1}},
	{"negative chunk", Request{Method: FastForward, Threads: 4, Sched: Sched{Kind: Dynamic1.Kind, Chunk: -3}}},
	{"unknown method", Request{Method: Method(9), Threads: 4}},
	{"unknown paradigm", Request{Method: Synthesizer, Threads: 4, Paradigm: Paradigm(7)}},
	{"unknown schedule kind", Request{Method: FastForward, Threads: 4, Sched: Sched{Kind: 9}}},
}

func resolveProfile(t *testing.T) *Profile {
	t.Helper()
	p, err := ProfileProgramCtx(context.Background(), balancedProgram(16, 20_000),
		&Options{Machine: testMachine(4), DisableMemoryModel: true})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestEstimateRejectsInvalidRequests(t *testing.T) {
	p := resolveProfile(t)
	ctx := context.Background()
	for _, c := range invalidRequests {
		est, err := p.EstimateCtx(ctx, c.req)
		if !errors.Is(err, ErrInvalidRequest) {
			t.Errorf("%s: EstimateCtx err = %v, want ErrInvalidRequest (speedup %v)", c.name, err, est.Speedup)
			continue
		}
		if est.Err != err || est.Request != c.req || est.Speedup != 0 {
			t.Errorf("%s: estimate %+v, want the request as given with the error", c.name, est)
		}
		if est, emulate := p.Lookup(c.req); emulate != nil || !errors.Is(est.Err, ErrInvalidRequest) {
			t.Errorf("%s: Lookup = %+v, emulate set: %v", c.name, est, emulate != nil)
		}
		if _, err := p.RealSpeedupCtx(ctx, c.req); !errors.Is(err, ErrInvalidRequest) {
			t.Errorf("%s: RealSpeedupCtx err = %v", c.name, err)
		}
		if _, _, err := p.TimelineCtx(ctx, c.req, 40); !errors.Is(err, ErrInvalidRequest) {
			t.Errorf("%s: TimelineCtx err = %v", c.name, err)
		}
		if _, err := p.EstimateOnHostCtx(ctx, c.req); !errors.Is(err, ErrInvalidRequest) {
			t.Errorf("%s: EstimateOnHostCtx err = %v", c.name, err)
		}
	}
}

// TestCurveRecordsInvalidPoints: a curve point Resolve rejects carries
// the error and the sweep goes on.
func TestCurveRecordsInvalidPoints(t *testing.T) {
	ests, err := resolveProfile(t).CurveCtx(context.Background(), Request{Method: FastForward}, []int{2, -2, 4})
	if err != nil {
		t.Fatal(err)
	}
	if ests[0].Err != nil || ests[2].Err != nil || !errors.Is(ests[1].Err, ErrInvalidRequest) {
		t.Fatalf("curve errors = %v, %v, %v; want only the -2 point rejected", ests[0].Err, ests[1].Err, ests[2].Err)
	}
}

func TestAdviseRejectsInvalidThreads(t *testing.T) {
	adv, err := resolveProfile(t).AdviseCtx(context.Background(),
		&AdviseOptions{Method: FastForward, Threads: []int{0, 4, -2}})
	if !errors.Is(err, ErrInvalidRequest) || adv.Err != err || len(adv.Sweep) != 0 {
		t.Fatalf("AdviseCtx = %d cells, %v; want no sweep and ErrInvalidRequest", len(adv.Sweep), err)
	}
}

func TestResolve(t *testing.T) {
	p := resolveProfile(t)
	cases := []struct {
		req     Request
		threads int
	}{
		{Request{}, 4},                         // the profile's own machine
		{Request{Machine: p.MachineName()}, 4}, // named, and the profile's own
		{Request{Machine: DefaultMachineName}, DefaultMachineSpec().Cores()},
		{Request{Threads: 7, Machine: DefaultMachineName}, 7},
		{Request{Method: CriticalPathBound, Threads: 3, Paradigm: Cilk, Sched: Guided}, 3},
	}
	for _, c := range cases {
		got, err := p.Resolve(c.req)
		if err != nil {
			t.Fatalf("Resolve(%+v): %v", c.req, err)
		}
		want := c.req
		want.Threads = c.threads
		if got != want {
			t.Errorf("Resolve(%+v) = %+v, want %+v", c.req, got, want)
		}
		if again, err := p.Resolve(got); err != nil || again != got {
			t.Errorf("Resolve is not idempotent on %+v: %+v, %v", got, again, err)
		}
	}
	bad := Request{Threads: 4, Machine: "no-such-machine"}
	if got, err := p.Resolve(bad); !errors.Is(err, ErrUnknownMachine) || got != bad {
		t.Errorf("Resolve(unknown machine) = %+v, %v; want the request as given and ErrUnknownMachine", got, err)
	}
}

// TestNormalizeCoresProperty checks NormalizeCores against its
// definition on random axes: the result is the input's set of values,
// strictly ascending, and it is an error exactly when the axis is empty
// or holds a value below 1.
func TestNormalizeCoresProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		in := make([]int, rng.Intn(6))
		for j := range in {
			in[j] = rng.Intn(10) - 2
		}
		orig := slices.Clone(in)
		got, err := NormalizeCores(in)
		if !slices.Equal(in, orig) {
			t.Fatalf("NormalizeCores modified its input: %v -> %v", orig, in)
		}
		if want := len(in) == 0 || slices.Min(in) < 1; want != (err != nil) {
			t.Fatalf("NormalizeCores(%v) = %v, %v; want an error: %v", in, got, err, want)
		}
		if err != nil {
			if !errors.Is(err, ErrInvalidRequest) {
				t.Fatalf("NormalizeCores(%v) error %v does not wrap ErrInvalidRequest", in, err)
			}
			continue
		}
		for j := range got {
			if j > 0 && got[j] <= got[j-1] {
				t.Fatalf("NormalizeCores(%v) = %v, not strictly ascending", in, got)
			}
			if !slices.Contains(in, got[j]) {
				t.Fatalf("NormalizeCores(%v) = %v invents %d", in, got, got[j])
			}
		}
		for _, v := range in {
			if !slices.Contains(got, v) {
				t.Fatalf("NormalizeCores(%v) = %v drops %d", in, got, v)
			}
		}
	}
}

// TestParseCoresIsNormalizeCores: ParseCores(s) is NormalizeCores of the
// integer fields of s, valid or not, and rejects s when a field is not
// an integer.
func TestParseCoresIsNormalizeCores(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	const alphabet = "0123456789,, -x"
	for i := 0; i < 5000; i++ {
		b := make([]byte, rng.Intn(10))
		for j := range b {
			b[j] = alphabet[rng.Intn(len(alphabet))]
		}
		s := string(b)
		got, err := ParseCores(s)
		var fields []int
		numeric := true
		for _, part := range strings.Split(s, ",") {
			v, aerr := strconv.Atoi(strings.TrimSpace(part))
			numeric = numeric && aerr == nil
			fields = append(fields, v)
		}
		if !numeric {
			if !errors.Is(err, ErrInvalidRequest) {
				t.Fatalf("ParseCores(%q) = %v, %v; want ErrInvalidRequest for a non-integer field", s, got, err)
			}
			continue
		}
		want, werr := NormalizeCores(fields)
		if (err != nil) != (werr != nil) || !reflect.DeepEqual(got, want) {
			t.Fatalf("ParseCores(%q) = %v, %v; NormalizeCores(%v) = %v, %v", s, got, err, fields, want, werr)
		}
	}
}
