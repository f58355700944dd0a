package prophet

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strings"

	"prophet/internal/baseline"
	"prophet/internal/clock"
	"prophet/internal/ff"
	"prophet/internal/hostexec"
	"prophet/internal/machine"
	"prophet/internal/obs"
	"prophet/internal/omprt"
	"prophet/internal/realrun"
	"prophet/internal/synth"
)

// Method selects the prediction engine.
type Method uint8

// Prediction methods.
const (
	// FastForward is the paper's analytical FF emulator (§IV-C):
	// priority-heap fast-forwarding over abstract CPUs. Fast; exact for
	// single-level loops; documented limitation on nested parallelism.
	FastForward Method = iota
	// Synthesizer is the program-synthesis emulator (§IV-E): generated
	// parallel code executed through a real runtime on the simulated
	// machine. Slower; handles nested and recursive parallelism.
	Synthesizer
	// Suitability models Intel Parallel Advisor's Suitability analysis,
	// the paper's main comparison tool (Table I).
	Suitability
	// AmdahlLaw is the analytical bound from the tree's parallel
	// fraction.
	AmdahlLaw
	// CriticalPathBound is the Kismet-style upper bound T1/max(T∞,T1/p).
	CriticalPathBound
)

// String names the method.
func (m Method) String() string {
	switch m {
	case FastForward:
		return "ff"
	case Synthesizer:
		return "synthesizer"
	case Suitability:
		return "suitability"
	case AmdahlLaw:
		return "amdahl"
	case CriticalPathBound:
		return "critical-path"
	}
	return fmt.Sprintf("Method(%d)", uint8(m))
}

// Request describes one prediction to make. It marshals to JSON with
// stable field names; Method, Paradigm and Sched encode as their String()
// spellings and decode through the Parse* functions, so a request
// round-trips as e.g.
//
//	{"method":"ff","threads":8,"paradigm":"openmp","sched":"(dynamic,1)","memory_model":true}
type Request struct {
	// Method selects the engine (default FastForward).
	Method Method `json:"method"`
	// Threads is the CPU count to predict for (default: the machine's
	// core count).
	Threads int `json:"threads"`
	// Paradigm is OpenMP or Cilk (default OpenMP).
	Paradigm Paradigm `json:"paradigm"`
	// Sched is the OpenMP schedule (default (static)).
	Sched Sched `json:"sched"`
	// MemoryModel applies burden factors when true (the paper's PredM
	// series; Pred when false).
	MemoryModel bool `json:"memory_model"`
	// Machine, when non-empty, names the machine preset to predict for
	// (machine.ParseSpec vocabulary; see MachineNames). The profile is
	// re-profiled and recalibrated for the named machine (cached per
	// name). Empty predicts on the profile's own machine — the field is
	// omitted from JSON then, so pre-machine payloads are unchanged.
	Machine string `json:"machine,omitempty"`
}

// Estimate is a prediction result. It marshals to JSON with stable field
// names — the request's fields inline, "speedup", "time_cycles" and
// "err" (the error flattened to its message, omitted when nil).
type Estimate struct {
	Request
	// Speedup is serial time / predicted parallel time.
	Speedup float64 `json:"speedup"`
	// Time is the predicted parallel execution time in cycles.
	Time clock.Cycles `json:"time_cycles"`
	// Err is the typed error of a failed prediction (nil on success);
	// Speedup and Time are zero when set. The error also comes back as
	// the second return of EstimateCtx — the field exists so batched
	// results (CurveCtx) carry their per-point failures.
	Err error `json:"-"`
	// Source marks how the estimate was produced: SourceSurrogate for
	// answers served from the learned surrogate predictor, empty for
	// emulated results. Empty omits the field from JSON, so every
	// emulated payload is byte-identical to the pre-surrogate wire
	// format.
	Source string `json:"source,omitempty"`
}

// SourceSurrogate is the Estimate.Source value of a surrogate-served
// prediction.
const SourceSurrogate = "surrogate"

// estimateJSON is the stable wire form of Estimate.
type estimateJSON struct {
	Request
	Speedup float64      `json:"speedup"`
	Time    clock.Cycles `json:"time_cycles"`
	Err     string       `json:"err,omitempty"`
	Source  string       `json:"source,omitempty"`
}

// MarshalJSON writes the estimate with Err flattened to its message.
func (e Estimate) MarshalJSON() ([]byte, error) {
	w := estimateJSON{Request: e.Request, Speedup: e.Speedup, Time: e.Time, Source: e.Source}
	if e.Err != nil {
		w.Err = e.Err.Error()
	}
	return json.Marshal(w)
}

// UnmarshalJSON restores an estimate; a non-empty err string becomes an
// opaque error carrying the same message (the concrete error type is not
// preserved across the wire).
func (e *Estimate) UnmarshalJSON(data []byte) error {
	var w estimateJSON
	if err := json.Unmarshal(data, &w); err != nil {
		return err
	}
	e.Request, e.Speedup, e.Time, e.Source, e.Err = w.Request, w.Speedup, w.Time, w.Source, nil
	if w.Err != "" {
		e.Err = errors.New(w.Err)
	}
	return nil
}

// Resolve is the one decision of what req means on p, made first by every
// call that runs a request. An unknown Method, Paradigm or schedule kind,
// Threads < 0 or Sched.Chunk < 0 wrap ErrInvalidRequest, an unknown
// Machine ErrUnknownMachine; on error req comes back as given. Threads: 0
// becomes the core count of the machine req.Machine names (the profile's
// own when empty), read from the spec alone, so a server can resolve
// before keying its cache. Machine keeps the caller's spelling.
func (p *Profile) Resolve(req Request) (Request, error) {
	req, _, err := p.resolve(req)
	return req, err
}

// resolve is Resolve, also returning the spec of req's machine.
func (p *Profile) resolve(req Request) (Request, *machine.Spec, error) {
	bad := func(format string, args ...any) (Request, *machine.Spec, error) {
		return req, nil, fmt.Errorf("%w: "+format, append([]any{ErrInvalidRequest}, args...)...)
	}
	switch {
	case req.Method > CriticalPathBound:
		return bad("unknown method %v", req.Method)
	case req.Paradigm > Cilk:
		return bad("unknown paradigm %d", uint8(req.Paradigm))
	case req.Sched.Kind > omprt.Guided:
		return bad("unknown schedule kind %d", uint8(req.Sched.Kind))
	case req.Threads < 0:
		return bad("threads must be >= 0 (0 selects the machine core count), got %d", req.Threads)
	case req.Sched.Chunk < 0:
		return bad("schedule chunk must be >= 0, got %d", req.Sched.Chunk)
	}
	spec := p.opts.Machine.MachineSpec()
	if req.Machine != "" && req.Machine != spec.Name {
		var err error
		if spec, err = machine.ParseSpec(req.Machine); err != nil {
			return req, nil, err
		}
	}
	if req.Threads == 0 {
		req.Threads = spec.Cores()
	}
	return req, spec, nil
}

// EstimateCtx runs one prediction against the profile. The emulators
// poll ctx before each top-level section, and inside one the emulated
// machine runs (Synthesizer) and the FF's event loop poll it too;
// simulation failures — a deadlocked emulation (ErrDeadlock, with the wait
// graph in *DeadlockError), a watchdog budget (ErrBudgetExceeded), a
// malformed tree — return as errors instead of panicking. The returned
// Estimate carries the same error in its Err field.
//
// EstimateCtx polls ctx once, then runs Lookup and the emulation it
// returns. A request Resolve rejects returns its error.
func (p *Profile) EstimateCtx(ctx context.Context, req Request) (Estimate, error) {
	if err := ctx.Err(); err != nil {
		return Estimate{Request: req, Err: err}, err
	}
	est, emulate := p.Lookup(req)
	if emulate == nil {
		return est, est.Err
	}
	return emulate(ctx)
}

// Lookup is the surrogate tier of EstimateCtx, split out so a serving
// layer can answer from it before queueing a cell for emulation. A
// request Resolve rejects returns its error, emulate nil. With
// Options.Surrogate armed, a confident prediction that is not shadow
// sampled returns at once, marked SourceSurrogate, and emulate is nil.
// Otherwise emulate computes the cell: it resolves req.Machine, runs the
// emulator, records a shadow-sampled pair and trains the surrogate with
// the exact result. Lookup itself never profiles: a named machine whose
// variant profile is not built yet is built, and only then consulted,
// inside emulate. emulate does not poll ctx before it starts.
func (p *Profile) Lookup(req Request) (est Estimate, emulate func(context.Context) (Estimate, error)) {
	var err error
	defer func() {
		if err != nil {
			est, emulate = Estimate{Request: req, Err: err}, nil
		}
	}()
	defer recoverToError(&err)
	if req, err = p.Resolve(req); err != nil {
		return
	}
	if vp, ok := p.peekMachine(req.Machine); ok {
		return vp.lookup(req)
	}
	return Estimate{}, func(ctx context.Context) (Estimate, error) {
		vp, _, err := p.forRequest(ctx, req)
		if err != nil {
			return Estimate{Request: req, Err: err}, err
		}
		est, emulate := vp.lookup(req)
		if emulate == nil {
			return est, est.Err
		}
		return emulate(ctx)
	}
}

// lookup is Lookup of the resolved req on its machine's profile p.
func (p *Profile) lookup(req Request) (Estimate, func(context.Context) (Estimate, error)) {
	c := p.query(req)
	if c.hit {
		// The emulated wire format plus Source; emulated estimates omit
		// it, so their payloads match the pre-surrogate format.
		est := p.estimateOf(req, c.pred)
		est.Source = SourceSurrogate
		return est, nil
	}
	return Estimate{}, func(ctx context.Context) (Estimate, error) {
		est, err := p.emulate(ctx, req)
		if err == nil {
			c.train(est.Speedup)
		}
		return est, err
	}
}

// emulate runs the resolved req's engine on its machine's profile p. It
// never consults the surrogate.
func (p *Profile) emulate(ctx context.Context, req Request) (est Estimate, err error) {
	defer func() {
		if err != nil {
			est = Estimate{Request: req, Err: err}
		}
	}()
	defer recoverToError(&err)
	t := req.Threads
	tm := p.opts.Observer.Metrics.StartTimer(obs.MStageEmulate)
	defer tm.Stop()
	useMem := req.MemoryModel && p.Model != nil
	var speedup float64
	switch req.Method {
	case Synthesizer:
		s := &synth.Synthesizer{
			Threads:   t,
			Paradigm:  req.Paradigm,
			Sched:     req.Sched,
			UseBurden: useMem,
			Machine:   p.opts.Machine,
			OmpOv:     omprt.DefaultOverheads(),
			Tracer:    p.opts.Observer.Trace,
			Metrics:   p.opts.Observer.Metrics,
		}
		speedup, err = s.SpeedupCtx(ctx, p.Tree)
	case Suitability:
		s := &baseline.Suitability{Threads: t}
		speedup, err = s.SpeedupCtx(ctx, p.Tree)
	case AmdahlLaw:
		speedup = baseline.AmdahlFromTree(p.Tree, t)
	case CriticalPathBound:
		speedup = baseline.KismetBound(p.Tree, t)
	default: // FastForward
		var speeds []float64
		if s := p.opts.Machine.Spec; s != nil {
			speeds = s.CoreSpeeds(t)
		}
		e := &ff.Emulator{
			Threads:   t,
			Sched:     req.Sched,
			Ov:        omprt.DefaultOverheads(),
			UseBurden: useMem,
			Speeds:    speeds,
			Tracer:    p.opts.Observer.Trace,
		}
		speedup, err = e.SpeedupCtx(ctx, p.Tree)
	}
	if err != nil {
		return Estimate{Request: req, Err: err}, err
	}
	return p.estimateOf(req, speedup), nil
}

// estimateOf wraps a speedup predicted for req in an Estimate, with the
// parallel time serial/speedup rounded to the nearest cycle (zero for a
// non-positive speedup).
func (p *Profile) estimateOf(req Request, speedup float64) Estimate {
	est := Estimate{Request: req, Speedup: speedup}
	if speedup > 0 {
		est.Time = clock.Cycles(float64(p.SerialCycles)/speedup + 0.5)
	}
	return est
}

// CurveCtx evaluates the request across several thread counts (one line
// of a Fig. 12 plot). Per-point failures are recorded in each Estimate's
// Err field and the sweep continues; a canceled context stops the sweep
// and returns the points evaluated so far along with the cancellation
// error.
func (p *Profile) CurveCtx(ctx context.Context, req Request, threads []int) ([]Estimate, error) {
	out := make([]Estimate, 0, len(threads))
	for _, t := range threads {
		r := req
		r.Threads = t
		est, err := p.EstimateCtx(ctx, r)
		out = append(out, est)
		if err != nil && ctx.Err() != nil {
			return out, err
		}
	}
	return out, nil
}

// EstimateOnHostCtx runs the program-synthesis emulation on the real host
// machine — goroutines, spin delays and sync.Mutex — instead of the
// simulated machine. This is the paper's original deployment mode
// ("programmers should run Parallel Prophet where they will run a
// parallelized code"): on a multicore host it measures real parallel
// behaviour; results are only as stable as the host is quiet. ctx is
// polled between top-level sections, so a cancellation returns once the
// section in flight finishes — real goroutines spinning real delays have
// no finer preemption point the library could honour without perturbing
// the measurement. Panics return as *PanicError.
func (p *Profile) EstimateOnHostCtx(ctx context.Context, req Request) (est Estimate, err error) {
	defer func() {
		if err != nil {
			est = Estimate{Request: req, Err: err}
		}
	}()
	defer recoverToError(&err)
	if p, req, err = p.forRequest(ctx, req); err != nil {
		return Estimate{}, err
	}
	req.Method = Synthesizer
	if err := ctx.Err(); err != nil {
		return Estimate{}, err
	}
	s := &hostexec.HostSynthesizer{
		Threads:   req.Threads,
		Paradigm:  req.Paradigm,
		Sched:     req.Sched,
		UseBurden: req.MemoryModel && p.Model != nil,
	}
	speedup, err := s.SpeedupCtx(ctx, p.Tree)
	if err != nil {
		return Estimate{}, err
	}
	return p.estimateOf(req, speedup), nil
}

// ExplainBurden returns the memory-model internals (Eq. 1–5 intermediates)
// for the named top-level section at the given thread count, and whether
// the section was found. With the memory model disabled the explanation
// reports a gate and β = 1.
func (p *Profile) ExplainBurden(section string, threads int) (BurdenExplanation, bool) {
	for _, sec := range p.Tree.TopLevelSections() {
		if sec.Name != section {
			continue
		}
		if p.Model == nil || sec.Counters == nil {
			return BurdenExplanation{Threads: threads, Gate: "memory model disabled", Burden: 1}, true
		}
		return p.Model.Explain(*sec.Counters, threads), true
	}
	return BurdenExplanation{}, false
}

// Regions returns a Kremlin-style per-section profile: work, span,
// self-parallelism and coverage for every parallel region, ranked by total
// work — the "which region should I parallelize first" view that
// complements the whole-program speedup estimates.
func (p *Profile) Regions() []Region {
	return baseline.Regions(p.Tree)
}

// RealSpeedupCtx runs the profiled tree as an actually parallelized
// program on the simulated machine (the evaluation's ground truth; not
// available to a user of the real tool, but essential for validating
// predictions — §VII's "Real" series). A ground-truth run that deadlocks,
// exceeds the machine's watchdog budget or is canceled returns the typed
// error.
func (p *Profile) RealSpeedupCtx(ctx context.Context, req Request) (s float64, err error) {
	defer recoverToError(&err)
	if p, req, err = p.forRequest(ctx, req); err != nil {
		return 0, err
	}
	return realrun.SpeedupCtx(ctx, p.Tree, realrun.Config{
		Machine:  p.opts.Machine,
		Threads:  req.Threads,
		Paradigm: req.Paradigm,
		Sched:    req.Sched,
		Tracer:   p.opts.Observer.Trace,
		Metrics:  p.opts.Observer.Metrics,
	})
}

// TimelineCtx executes the ground truth for req on the simulated machine
// and returns a per-core text timeline (width columns wide) plus each
// core's busy fraction — the per-CPU lanes Fig. 5 and Fig. 7 draw by
// hand — rendered from the run's work slices. A ground-truth run that
// deadlocks (ErrDeadlock), exceeds the watchdog budget
// (ErrBudgetExceeded) or is canceled returns the error alongside the
// timeline of whatever executed up to the failure. Options.Observer.Trace
// still receives every event of the run.
func (p *Profile) TimelineCtx(ctx context.Context, req Request, width int) (gantt string, utilization map[int]float64, err error) {
	defer recoverToError(&err)
	if p, req, err = p.forRequest(ctx, req); err != nil {
		return "", nil, err
	}
	buf := &obs.TraceBuffer{}
	_, runErr := realrun.TimeCtx(ctx, p.Tree, realrun.Config{
		Machine:  p.opts.Machine,
		Threads:  req.Threads,
		Paradigm: req.Paradigm,
		Sched:    req.Sched,
		Tracer:   obs.MultiTracer{buf, p.opts.Observer.Trace},
		Metrics:  p.opts.Observer.Metrics,
	})
	events := buf.Events()
	var b strings.Builder
	if werr := obs.WriteGantt(&b, events, width); werr != nil && runErr == nil {
		runErr = werr
	}
	return b.String(), obs.Utilization(events), runErr
}
