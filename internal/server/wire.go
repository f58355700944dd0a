package server

import (
	"errors"
	"fmt"
	"strings"

	"prophet"
	"prophet/internal/sweep"
)

// The HTTP wire format. Request and estimate bodies reuse the stable
// JSON vocabulary pinned in PR 3 (results/golden/estimates.json): a
// /v1/predict response body IS a prophet.Estimate, and each /v1/sweep
// outcome IS a sweep.Outcome[prophet.Estimate] — the HTTP layer adds
// envelope fields but never renames or re-encodes the library's types,
// so serving and the single-shot CLIs cannot drift apart.

// predictRequest is the body of POST /v1/predict.
type predictRequest struct {
	// Workload names a registered benchmark (see GET /v1/workloads).
	Workload string `json:"workload"`
	// Request is the prediction to run, in the library wire format.
	Request prophet.Request `json:"request"`
	// TimeoutMS optionally tightens the per-request deadline; it can
	// only shorten the server's configured limit, never extend it.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// sweepRequest is the body of POST /v1/sweep: a cores × paradigm ×
// sched (× method) grid over one workload, the request shape of the
// paper's Fig. 11/12 sweeps.
type sweepRequest struct {
	Workload string `json:"workload"`
	// Methods, Paradigms, Scheds are parsed with the prophet.Parse*
	// vocabulary. Empty lists default to ["ff"], the workload's
	// paradigm, and the workload's schedule.
	Methods   []string `json:"methods,omitempty"`
	Paradigms []string `json:"paradigms,omitempty"`
	Scheds    []string `json:"scheds,omitempty"`
	// Cores is the thread-count axis; empty defaults to the profile's
	// calibrated thread counts. prophet.NormalizeCores normalizes it.
	Cores []int `json:"cores,omitempty"`
	// MemoryModel toggles burden factors (default true: the paper's
	// PredM series).
	MemoryModel *bool `json:"memory_model,omitempty"`
	// Machines is the machine-preset axis (GET /v1/machines lists the
	// vocabulary). Empty sweeps the workload's own machine; otherwise
	// prophet.NormalizeMachines normalizes it, like the -machines flag.
	Machines  []string `json:"machines,omitempty"`
	TimeoutMS int64    `json:"timeout_ms,omitempty"`
}

// adviseRequest is the body of POST /v1/advise: run the causal advisor
// (prophet.AdviseCtx) over one workload — sweep configurations, then
// rank candidate regions by marginal speedup at the largest requested
// core count. The response's advice byte-agrees with `prophet -advise`
// on the same workload, cores and method: the composition logic lives
// entirely in the library, the server only supplies its cache hierarchy
// as the estimator.
type adviseRequest struct {
	Workload string `json:"workload"`
	// Cores is the thread-count axis (normalized by
	// prophet.NormalizeCores; empty defaults to the profile's calibrated
	// thread counts). The region experiments run at the largest count.
	Cores []int `json:"cores,omitempty"`
	// Method is the prediction engine (prophet.ParseMethod vocabulary).
	// Empty selects the advisor's default, Synthesizer — the same default
	// prophet -advise applies when -method is not given.
	Method    string `json:"method,omitempty"`
	TimeoutMS int64  `json:"timeout_ms,omitempty"`
}

// adviseResponse is the body of a /v1/advise reply.
type adviseResponse struct {
	Workload string         `json:"workload"`
	Advice   prophet.Advice `json:"advice"`
}

// sweepResponse is the body of a /v1/sweep reply. Outcomes are indexed
// in deterministic grid order: machines, then methods, then paradigms,
// then schedules, then cores (machines outermost — a variant machine
// recalibrates, so its cells group together; cores innermost —
// consecutive outcomes trace one curve of a Fig. 12 panel).
type sweepResponse struct {
	Workload string                            `json:"workload"`
	Cells    int                               `json:"cells"`
	Cached   int                               `json:"cached"`
	Outcomes []sweep.Outcome[prophet.Estimate] `json:"outcomes"`
}

// errorResponse is the body of every non-2xx reply.
type errorResponse struct {
	Error string `json:"error"`
}

// SourceHeader names the tier that answered a /v1/predict: "cache",
// "surrogate" or "emulated". Clients that bucket latency per tier
// (prophetd loadgen) read it instead of parsing the body.
const SourceHeader = "X-Prophet-Source"

const (
	sourceCache    = "cache"
	sourceEmulated = "emulated"
)

// workloadInfo is one entry of GET /v1/workloads.
type workloadInfo struct {
	Name     string `json:"name"`
	Desc     string `json:"desc"`
	Paradigm string `json:"paradigm"`
	Sched    string `json:"sched"`
	TreeHash string `json:"tree_hash"`
}

// machineInfo is one entry of GET /v1/machines.
type machineInfo struct {
	Name    string `json:"name"`
	Desc    string `json:"desc"`
	Cores   int    `json:"cores"`
	Default bool   `json:"default,omitempty"`
}

// importStats is the conversion accounting of one profile upload, the
// wire form of profimport.Stats.
type importStats struct {
	Samples         int     `json:"samples"`
	TotalWeight     int64   `json:"total_weight"`
	Frames          int     `json:"frames"`
	FramesKept      int     `json:"frames_kept"`
	FramesDropped   int     `json:"frames_dropped"`
	TruncatedStacks int     `json:"truncated_stacks"`
	SampleType      string  `json:"sample_type"`
	CollapseRatio   float64 `json:"collapse_ratio"`
}

// importResponse is the 201 body of POST /v1/workloads: the registered
// workload exactly as GET /v1/workloads will list it, plus what the
// converter did to the samples.
type importResponse struct {
	workloadInfo
	Stats importStats `json:"import"`
}

// Grid construction limits: a request can ask for a big sweep, not an
// unbounded one — the admission layer protects the pool, these protect
// the expander.
const (
	maxThreads   = 1024
	maxAxisLen   = 64
	maxGridCells = 4096
)

// badRequestError marks a client error (HTTP 400).
type badRequestError struct{ msg string }

func (e *badRequestError) Error() string { return e.msg }

func badRequestf(format string, args ...any) error {
	return &badRequestError{msg: fmt.Sprintf(format, args...)}
}

// resolveRequest resolves req with prophet.Profile.Resolve and adds the
// server's own thread limit. Every failure is a 400.
func resolveRequest(prof *prophet.Profile, req prophet.Request) (prophet.Request, error) {
	req, err := prof.Resolve(req)
	if err != nil {
		return req, libraryError(err)
	}
	if req.Threads > maxThreads {
		return req, badRequestf("threads %d exceeds the limit %d", req.Threads, maxThreads)
	}
	return req, nil
}

// libraryError is the 400 of a library rejection.
func libraryError(err error) error {
	if errors.Is(err, prophet.ErrUnknownMachine) {
		return badRequestf("%v (GET /v1/machines lists them)", err)
	}
	return badRequestf("%v", err)
}

// normalizeMachines bounds a machines axis and normalizes it with
// prophet.NormalizeMachines. Empty means "the workload's own machine",
// represented as the single empty name.
func normalizeMachines(machines []string) ([]string, error) {
	if len(machines) == 0 {
		return []string{""}, nil
	}
	if len(machines) > maxAxisLen {
		return nil, badRequestf("machines axis has %d entries, limit %d", len(machines), maxAxisLen)
	}
	specs, err := prophet.NormalizeMachines(machines)
	if err != nil {
		return nil, libraryError(err)
	}
	out := make([]string, len(specs))
	for i, spec := range specs {
		out[i] = spec.Name
	}
	return out, nil
}

// normalizeCores bounds a cores axis and normalizes it with
// prophet.NormalizeCores. Empty means the workload's calibrated counts.
func normalizeCores(cores []int, entry *workloadEntry) ([]int, error) {
	if len(cores) == 0 {
		cores = entry.threadCounts
	}
	if len(cores) > maxAxisLen {
		return nil, badRequestf("cores axis has %d entries, limit %d", len(cores), maxAxisLen)
	}
	out, err := prophet.NormalizeCores(cores)
	if err != nil {
		return nil, libraryError(err)
	}
	if c := out[len(out)-1]; c > maxThreads {
		return nil, badRequestf("core count %d exceeds the limit %d", c, maxThreads)
	}
	return out, nil
}

// parseAxis bounds a text axis and parses each entry with the library's
// parse. Empty means the single entry def.
func parseAxis[T any](vals []string, def string, parse func(string) (T, error)) ([]T, error) {
	if len(vals) == 0 {
		vals = []string{def}
	}
	if len(vals) > maxAxisLen {
		return nil, badRequestf("axis longer than the limit %d", maxAxisLen)
	}
	out := make([]T, len(vals))
	for i, v := range vals {
		var err error
		if out[i], err = parse(strings.TrimSpace(v)); err != nil {
			return nil, badRequestf("%v", err)
		}
	}
	return out, nil
}

// expandGrid turns a sweep request into the deterministic cell order:
// machines → methods → paradigms → scheds → cores, cores innermost.
func expandGrid(sr sweepRequest, entry *workloadEntry) ([]prophet.Request, error) {
	machines, err := normalizeMachines(sr.Machines)
	if err != nil {
		return nil, err
	}
	ms, err := parseAxis(sr.Methods, "ff", prophet.ParseMethod)
	if err != nil {
		return nil, err
	}
	ps, err := parseAxis(sr.Paradigms, entry.paradigm.String(), prophet.ParseParadigm)
	if err != nil {
		return nil, err
	}
	ss, err := parseAxis(sr.Scheds, entry.sched.String(), prophet.ParseSched)
	if err != nil {
		return nil, err
	}
	cores, err := normalizeCores(sr.Cores, entry)
	if err != nil {
		return nil, err
	}
	useMem := true
	if sr.MemoryModel != nil {
		useMem = *sr.MemoryModel
	}

	n := len(machines) * len(ms) * len(ps) * len(ss) * len(cores)
	if n > maxGridCells {
		return nil, badRequestf("sweep grid has %d cells, limit %d", n, maxGridCells)
	}
	grid := make([]prophet.Request, 0, n)
	for _, mach := range machines {
		for _, m := range ms {
			for _, p := range ps {
				for _, sc := range ss {
					for _, c := range cores {
						grid = append(grid, prophet.Request{Method: m, Threads: c, Paradigm: p, Sched: sc, MemoryModel: useMem, Machine: mach})
					}
				}
			}
		}
	}
	return grid, nil
}

// machineOf canonicalizes a request's machine for caching and routing:
// an empty field means the workload profile's own machine, so an
// explicit request for that machine shares the cache line (and, in
// cluster mode, the owning replica) with the implicit default.
func machineOf(entry *workloadEntry, req prophet.Request) string {
	if req.Machine != "" {
		return req.Machine
	}
	return entry.prof.MachineName()
}

// cellKey is the cache/singleflight key of one prediction: the workload,
// the hash of its compressed program tree (so a re-registered workload
// with a different tree never collides with stale entries), the
// canonical machine name, and the request in its canonical String()
// spellings. The machine participates in the key, so in cluster mode a
// given (workload, machine) pair's variant profile and calibration warm
// up on its owning replica only.
func cellKey(entry *workloadEntry, req prophet.Request) string {
	return fmt.Sprintf("%s\x00%s\x00%s\x00%s|%d|%s|%s|%t",
		entry.name, entry.treeHash, machineOf(entry, req),
		req.Method, req.Threads, req.Paradigm, req.Sched, req.MemoryModel)
}
