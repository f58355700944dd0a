// Package server is the prediction service behind cmd/prophetd: a
// long-lived HTTP JSON API that loads registered workload profiles once
// and serves speedup predictions over them — the paper's tool turned
// into a daemon, so the profiles, the calibrated memory model and the
// caches built in earlier PRs outlive a single invocation.
//
// Request admission is layered:
//
//  1. An in-flight limit refuses excess concurrent requests with
//     429 + Retry-After (backpressure, not queue collapse).
//  2. A sharded LRU over completed estimates, keyed on
//     (workload, compressed-tree hash, request), answers repeats
//     without touching the pool.
//  3. In cluster mode, the consistent-hash fleet routes the cell to
//     its owning replica.
//  4. An optional learned surrogate (Config.Surrogate) answers cells
//     whose feature neighborhood it predicts within a cross-validated
//     error bound — in microseconds, on the request's goroutine. It is
//     the library's own tier (prophet.Profile.Lookup, armed on every
//     workload profile), consulted on the replica that owns the cell.
//     Misses hand back the emulation, which trains it.
//  5. A singleflight (sweep.Cache.Do) deduplicates identical concurrent
//     cells. The cell runs under a flight context that ends only when
//     every request waiting for it has left (or the server shuts down),
//     so one request's timeout never cancels another's answer.
//  6. A pool of Workers slots bounds emulation: each remaining cell
//     waits for a free slot and runs as soon as one opens.
//
// In cluster mode the LRU (tier 2) is also the fallback for repeats: a
// cell a remote owner answered once is served from it even after every
// peer is gone and local computation fails.
//
// Endpoints: POST /v1/predict, POST /v1/sweep, POST /v1/advise (causal
// region advisor), GET /v1/workloads,
// POST /v1/workloads (upload an execution profile as a new workload),
// GET /v1/machines, POST /v1/machines (register a custom machine
// spec), GET /healthz, GET /readyz, GET /metrics.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"prophet"
	"prophet/internal/cluster"
	"prophet/internal/obs"
	"prophet/internal/sweep"
	"prophet/internal/workloads"
)

// Config tunes the service. The zero value serves every registered
// benchmark with library defaults.
type Config struct {
	// Workloads names the benchmarks to register (nil = all of
	// workloads.Names()).
	Workloads []string
	// Cores are the thread counts profiles calibrate burden factors for
	// (nil = prophet.DefaultThreadCounts()). Also the default sweep axis.
	Cores []int
	// DisableMemoryModel skips calibration (and burden factors) — every
	// estimate behaves as MemoryModel: false. Meant for tests.
	DisableMemoryModel bool

	// Workers is the number of worker slots, the bound on concurrently
	// emulated cells (0 = GOMAXPROCS).
	Workers int
	// MaxInFlight is the admitted-request limit; excess requests get
	// 429 + Retry-After. 0 selects 4×GOMAXPROCS.
	MaxInFlight int
	// RetryAfter is the advisory Retry-After on 429 (default 1s).
	RetryAfter time.Duration

	// CacheSize is the total estimate-LRU capacity (0 = 4096; negative
	// disables caching).
	CacheSize int

	// RequestTimeout caps the per-request deadline (0 = 30s; negative
	// means no server-imposed deadline). A request's timeout_ms can only
	// shorten it.
	RequestTimeout time.Duration

	// MaxImportBytes caps the request body of POST /v1/workloads —
	// both the upload itself and the gzip-expanded profile inside it
	// (0 = 8 MiB; negative disables profile uploads entirely).
	MaxImportBytes int64

	// Cluster, when non-nil, serves cells through a replica fleet: each
	// uncached cell is routed by consistent hash to the replica whose
	// caches are hot for it, with retries, hedging, breakers and
	// degradation per the cluster package. The server fills in the
	// Local estimator and (if unset) the Metrics registry.
	Cluster *cluster.Config

	// Surrogate, when non-nil, builds one learned surrogate predictor and
	// arms it on every loaded and imported workload profile
	// (prophet.Options.Surrogate). The profile's Lookup then answers
	// confident uncached cells ahead of the singleflight and worker
	// slots (marked "source":"surrogate" on the wire), on the replica
	// that owns the cell in cluster mode, and every emulated result
	// feeds the training store. The config's Metrics defaults to the
	// server registry. nil serves every cell exactly as before.
	Surrogate *prophet.SurrogateConfig

	// Metrics receives server and pipeline metrics (nil = a fresh
	// registry, exposed at /metrics either way).
	Metrics *obs.Registry
}

func (c Config) withDefaults() Config {
	if len(c.Workloads) == 0 {
		c.Workloads = workloads.Names()
	}
	if len(c.Cores) == 0 {
		c.Cores = prophet.DefaultThreadCounts()
	}
	if c.MaxInFlight == 0 {
		c.MaxInFlight = 4 * runtime.GOMAXPROCS(0)
	}
	if c.RetryAfter == 0 {
		c.RetryAfter = time.Second
	}
	if c.CacheSize == 0 {
		c.CacheSize = 4096
	}
	if c.RequestTimeout == 0 {
		c.RequestTimeout = 30 * time.Second
	}
	if c.MaxImportBytes == 0 {
		c.MaxImportBytes = 8 << 20
	}
	if c.Metrics == nil {
		c.Metrics = &obs.Registry{}
	}
	return c
}

// workloadEntry is one registered workload: its profile, loaded once.
type workloadEntry struct {
	name         string
	desc         string
	prof         *prophet.Profile
	treeHash     string
	paradigm     prophet.Paradigm
	sched        prophet.Sched
	threadCounts []int
}

// Server is the prediction service. Create with New, load profiles with
// Load, mount Handler on an http.Server (or use ListenAndServe), and
// stop with Shutdown.
type Server struct {
	cfg     Config
	metrics *obs.Registry
	mux     *http.ServeMux

	// entriesMu guards entries and imported: Load writes the configured
	// set before the server goes ready, but POST /v1/workloads mutates
	// both while traffic is live.
	entriesMu sync.RWMutex
	entries   map[string]*workloadEntry
	imported  []string // names registered via POST, in arrival order

	readyMu sync.RWMutex
	ready   bool
	closing bool

	inflight chan struct{} // admission semaphore
	cache    *estimateCache
	flights  sweep.Cache[string, prophet.Estimate] // singleflight in front of the pool
	pool     *slotPool
	cluster  *cluster.Client    // nil outside cluster mode
	surr     *prophet.Surrogate // armed on every profile; nil unless Config.Surrogate set

	baseCtx    context.Context
	baseCancel context.CancelFunc
	reqWG      sync.WaitGroup // admitted requests, for the drain
	stopOnce   sync.Once      // makes Shutdown idempotent

	httpSrv *http.Server

	predicts, sweeps, advises, rejected, badReqs, imports *obs.Counter
	predictLat, sweepLat, adviseLat                       *obs.Histogram

	// testHook, when set, runs after admission and before the estimate
	// (tests use it to hold requests in flight deterministically).
	testHook atomic.Pointer[func()]
}

// New builds a server; call Load before serving traffic (endpoints
// answer 503 until it completes).
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	baseCtx, baseCancel := context.WithCancel(context.Background())
	reg := cfg.Metrics
	s := &Server{
		cfg:        cfg,
		metrics:    reg,
		entries:    make(map[string]*workloadEntry),
		inflight:   make(chan struct{}, cfg.MaxInFlight),
		cache:      newEstimateCache(cfg.CacheSize, cacheShards, reg),
		pool:       newSlotPool(baseCtx, cfg.Workers, reg),
		baseCtx:    baseCtx,
		baseCancel: baseCancel,
		predicts:   reg.Counter(obs.MServerPredicts),
		sweeps:     reg.Counter(obs.MServerSweeps),
		advises:    reg.Counter(obs.MServerAdvises),
		rejected:   reg.Counter(obs.MServerRejected),
		badReqs:    reg.Counter(obs.MServerBadRequests),
		imports:    reg.Counter(obs.MServerImports),
		predictLat: reg.Histogram(obs.MServerPredictLatency),
		sweepLat:   reg.Histogram(obs.MServerSweepLatency),
		adviseLat:  reg.Histogram(obs.MServerAdviseLatency),
	}
	s.flights.Instrument(sweep.CacheCounters{Dedups: reg.Counter(obs.MServerFlightDedups)})
	if cfg.Surrogate != nil {
		scfg := *cfg.Surrogate
		if scfg.Metrics == nil {
			scfg.Metrics = reg
		}
		s.surr = prophet.NewSurrogate(scfg)
	}
	if cfg.Cluster != nil {
		ccfg := *cfg.Cluster
		ccfg.Local = s.localEstimate
		if ccfg.Metrics == nil {
			ccfg.Metrics = reg
		}
		s.cluster = cluster.New(ccfg)
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/readyz", s.handleReadyz)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.HandleFunc("/v1/workloads", s.handleWorkloads)
	s.mux.HandleFunc("/v1/machines", s.handleMachines)
	s.mux.HandleFunc("/v1/predict", s.handlePredict)
	s.mux.HandleFunc("/v1/sweep", s.handleSweep)
	s.mux.HandleFunc("/v1/advise", s.handleAdvise)
	return s
}

// Load profiles every configured workload (serially — profiles share one
// calibration through the library's singleflight cache) and flips the
// server ready. It is the expensive startup step the daemon pays once.
func (s *Server) Load(ctx context.Context) error {
	for _, name := range s.cfg.Workloads {
		w, err := workloads.ByName(name)
		if err != nil {
			return err
		}
		prof, err := prophet.ProfileProgramCtx(ctx, w.Program, &prophet.Options{
			ThreadCounts:       s.cfg.Cores,
			DisableMemoryModel: s.cfg.DisableMemoryModel,
			Observer:           prophet.Observer{Metrics: s.metrics},
			Surrogate:          s.surr,
		})
		if err != nil {
			return fmt.Errorf("server: load %s: %w", name, err)
		}
		hash, err := hashTree(prof.Tree)
		if err != nil {
			return fmt.Errorf("server: hash %s tree: %w", name, err)
		}
		s.entriesMu.Lock()
		s.entries[name] = &workloadEntry{
			name:         name,
			desc:         w.Desc,
			prof:         prof,
			treeHash:     hash,
			paradigm:     w.Paradigm,
			sched:        w.Sched,
			threadCounts: s.cfg.Cores,
		}
		s.entriesMu.Unlock()
	}
	s.readyMu.Lock()
	s.ready = true
	s.readyMu.Unlock()
	return nil
}

// Handler returns the HTTP handler (for tests and custom servers).
func (s *Server) Handler() http.Handler { return s.mux }

// ListenAndServe serves on addr until Shutdown.
func (s *Server) ListenAndServe(addr string) error {
	s.httpSrv = &http.Server{Addr: addr, Handler: s.mux}
	err := s.httpSrv.ListenAndServe()
	if errors.Is(err, http.ErrServerClosed) {
		return nil
	}
	return err
}

// Shutdown drains gracefully: stop admitting, wait (up to ctx) for
// in-flight predictions to finish, then cancel whatever remains — cells
// still waiting for a worker slot leave without running, and running
// cells observe the cancellation. It returns ctx.Err() if the drain
// deadline fired.
func (s *Server) Shutdown(ctx context.Context) error {
	s.readyMu.Lock()
	s.closing = true
	s.readyMu.Unlock()

	drained := make(chan struct{})
	go func() {
		s.reqWG.Wait()
		close(drained)
	}()
	var err error
	select {
	case <-drained:
	case <-ctx.Done():
		err = ctx.Err()
	}
	// Cancel stragglers (no-op after a clean drain).
	s.stopOnce.Do(func() {
		if s.cluster != nil {
			s.cluster.Close()
		}
		s.baseCancel()
	})
	if s.httpSrv != nil {
		if herr := s.httpSrv.Shutdown(ctx); err == nil && !errors.Is(herr, context.DeadlineExceeded) && !errors.Is(herr, context.Canceled) {
			err = herr
		}
	}
	return err
}

// admit implements the backpressure gate. It returns false after
// writing the 429/503 when the request cannot be served now.
func (s *Server) admit(w http.ResponseWriter) (release func(), ok bool) {
	s.readyMu.RLock()
	ready, closing := s.ready, s.closing
	s.readyMu.RUnlock()
	if closing {
		writeError(w, http.StatusServiceUnavailable, "server is shutting down")
		return nil, false
	}
	if !ready {
		writeError(w, http.StatusServiceUnavailable, "server is still loading workload profiles")
		return nil, false
	}
	select {
	case s.inflight <- struct{}{}:
	default:
		// Full house: refuse now instead of queueing without bound.
		s.rejected.Inc()
		w.Header().Set("Retry-After", strconv.Itoa(int((s.cfg.RetryAfter+time.Second-1)/time.Second)))
		writeError(w, http.StatusTooManyRequests, "server at capacity, retry later")
		return nil, false
	}
	s.reqWG.Add(1)
	return func() {
		<-s.inflight
		s.reqWG.Done()
	}, true
}

// requestCtx derives the per-request context: the client disconnect
// (r.Context()), the server-configured deadline cap, and the request's
// own timeout_ms, whichever is tightest.
func (s *Server) requestCtx(r *http.Request, timeoutMS int64) (context.Context, context.CancelFunc) {
	ctx := r.Context()
	limit := s.cfg.RequestTimeout
	if limit < 0 {
		limit = 0
	}
	if timeoutMS > 0 {
		t := time.Duration(timeoutMS) * time.Millisecond
		if limit == 0 || t < limit {
			limit = t
		}
	}
	if limit > 0 {
		return context.WithTimeout(ctx, limit)
	}
	return context.WithCancel(ctx)
}

// estimate computes one cell: LRU, then — in cluster mode, for cells
// that did not already arrive routed — the consistent-hash fleet, and
// otherwise this replica's own stack (localCell). cached reports whether
// the LRU answered. forwarded marks a cell another replica already
// routed here; it must be served locally (one-hop contract).
func (s *Server) estimate(ctx context.Context, entry *workloadEntry, req prophet.Request, forwarded bool) (est prophet.Estimate, cached bool, err error) {
	// Normalize Threads the way the library does, so "threads":0 and an
	// explicit machine core count share a cache line.
	if req.Threads == 0 {
		req.Threads = defaultThreads(req)
	}
	key := cellKey(entry, req)
	if est, ok := s.cached(key, req); ok {
		return est, true, nil
	}
	if s.cluster != nil && !forwarded {
		est, err := s.cluster.Estimate(ctx, key, entry.name, req)
		if err == nil && est.Err == nil && est.Source == "" {
			s.cache.Put(key, est)
		}
		return est, false, err
	}
	return s.localCell(ctx, entry, key, req)
}

// localCell serves one cell on this replica. The profile's surrogate
// tier (prophet.Profile.Lookup) answers on the caller's goroutine, so a
// hit never joins a flight or waits for a worker slot; only the
// emulation Lookup hands back runs through the singleflight → slot pool
// stack. In cluster mode this is the owning replica's path — self-owned,
// forwarded and degraded cells all land here — so each cell consults
// exactly one surrogate.
func (s *Server) localCell(ctx context.Context, entry *workloadEntry, key string, req prophet.Request) (est prophet.Estimate, cached bool, err error) {
	est, emulate := entry.prof.Lookup(req)
	if emulate == nil {
		return est, false, est.Err
	}
	return s.cellOn(ctx, key, req, emulate)
}

// cellOn runs one cell of req, computed by estimate, through the
// singleflight → slot pool stack. The registered workload profiles and
// the advisor's synthesized region variants both funnel through here, so
// every emulated cell — whatever tree it runs on — shares the same worker
// slots and deduplicates on its key. The flight waits for its slot under
// the flight context, which ends when every waiter has left, so an
// abandoned cell leaves the queue without running.
func (s *Server) cellOn(ctx context.Context, key string, req prophet.Request, estimate func(context.Context) (prophet.Estimate, error)) (est prophet.Estimate, cached bool, err error) {
	est, err = s.flights.Do(ctx, key, func(fctx context.Context) (prophet.Estimate, error) {
		r := s.pool.run(fctx, estimate)
		if r.err == nil && r.est.Err == nil && r.est.Source == "" {
			s.cache.Put(key, r.est)
		}
		return r.est, r.err
	})
	if err != nil && est.Err == nil {
		// This caller's own ctx fired before the flight landed.
		est = prophet.Estimate{Request: req, Err: err}
	}
	return est, false, err
}

// cached answers req from the LRU. The key canonicalizes the machine
// name, so a hit may have been computed under the other spelling
// (explicit default name vs empty); the answer echoes this request's.
func (s *Server) cached(key string, req prophet.Request) (prophet.Estimate, bool) {
	est, ok := s.cache.Get(key)
	if ok {
		est.Machine = req.Machine
	}
	return est, ok
}

// localEstimate is the cluster client's view of this replica's estimate
// stack: the Local serving path for self-owned cells and the
// degradation target when a shard's peers are all down.
func (s *Server) localEstimate(ctx context.Context, workload string, req prophet.Request) (prophet.Estimate, error) {
	s.entriesMu.RLock()
	entry, ok := s.entries[workload]
	s.entriesMu.RUnlock()
	if !ok {
		err := fmt.Errorf("unknown workload %q", workload)
		return prophet.Estimate{Request: req, Err: err}, err
	}
	if req.Threads == 0 {
		req.Threads = defaultThreads(req)
	}
	key := cellKey(entry, req)
	if est, ok := s.cached(key, req); ok {
		return est, nil
	}
	est, _, err := s.localCell(ctx, entry, key, req)
	return est, err
}

// defaultThreads resolves "threads":0 — the requested machine's core
// count, falling back to the default machine for unnamed (or not yet
// validated) machines.
func defaultThreads(req prophet.Request) int {
	if req.Machine != "" {
		if spec, err := prophet.ParseMachineSpec(req.Machine); err == nil {
			return spec.Cores()
		}
	}
	return prophet.DefaultMachineSpec().Cores()
}

func (s *Server) handlePredict(w http.ResponseWriter, r *http.Request) {
	if !requirePost(w, r) {
		return
	}
	var pr predictRequest
	if !s.decodeBody(w, r, &pr) {
		return
	}
	entry, ok := s.lookup(w, pr.Workload)
	if !ok {
		return
	}
	if err := validateRequest(pr.Request); err != nil {
		s.clientError(w, err)
		return
	}
	release, ok := s.admit(w)
	if !ok {
		return
	}
	defer release()
	s.predicts.Inc()
	defer func(start time.Time) { s.predictLat.ObserveDuration(time.Since(start)) }(time.Now())

	ctx, cancel := s.requestCtx(r, pr.TimeoutMS)
	defer cancel()
	if hook := s.testHook.Load(); hook != nil {
		(*hook)()
	}
	est, cached, err := s.estimate(ctx, entry, pr.Request, isForwarded(r))
	if sweep.IsCancellation(err) {
		writeError(w, http.StatusGatewayTimeout, fmt.Sprintf("prediction canceled: %v", err))
		return
	}
	// Name the tier that answered, so clients (loadgen's per-source
	// latency streams) can split their measurements without parsing the
	// body.
	source := sourceEmulated
	switch {
	case cached:
		source = sourceCache
	case est.Source != "":
		source = est.Source
	}
	w.Header().Set(SourceHeader, source)
	// Failed predictions (deadlock, budget, malformed tree) are valid
	// results in the wire format: the estimate carries its err field,
	// exactly as the CLIs and sweep outcomes report it.
	writeJSON(w, http.StatusOK, est)
}

func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	if !requirePost(w, r) {
		return
	}
	var sr sweepRequest
	if !s.decodeBody(w, r, &sr) {
		return
	}
	entry, ok := s.lookup(w, sr.Workload)
	if !ok {
		return
	}
	grid, err := expandGrid(sr, entry)
	if err != nil {
		s.clientError(w, err)
		return
	}
	release, ok := s.admit(w)
	if !ok {
		return
	}
	defer release()
	s.sweeps.Inc()
	defer func(start time.Time) { s.sweepLat.ObserveDuration(time.Since(start)) }(time.Now())

	ctx, cancel := s.requestCtx(r, sr.TimeoutMS)
	defer cancel()
	if hook := s.testHook.Load(); hook != nil {
		(*hook)()
	}

	// Fan the grid's cells through the shared estimate stack. Cached
	// cells answer inline; the rest share the worker slots with every
	// other in-flight request's cells. Per-cell failures stay per-cell
	// (Outcome.Err), like a library sweep without FailFast.
	resp := sweepResponse{
		Workload: entry.name,
		Cells:    len(grid),
		Outcomes: make([]sweep.Outcome[prophet.Estimate], len(grid)),
	}
	var wg sync.WaitGroup
	var cachedCount int64
	var mu sync.Mutex
	forwarded := isForwarded(r)
	for i, req := range grid {
		i, req := i, req
		wg.Add(1)
		go func() {
			defer wg.Done()
			est, cached, err := s.estimate(ctx, entry, req, forwarded)
			o := sweep.Outcome[prophet.Estimate]{Index: i, Value: est, Err: err}
			if err == nil && est.Err != nil {
				o.Err = est.Err
			}
			if sweep.IsCancellation(err) {
				o.Skipped = true
			}
			mu.Lock()
			if cached {
				cachedCount++
			}
			resp.Outcomes[i] = o
			mu.Unlock()
		}()
	}
	wg.Wait()
	resp.Cached = int(cachedCount)
	writeJSON(w, http.StatusOK, resp)
}

// handleAdvise runs the causal advisor over one workload: the library's
// AdviseCtx composes the configuration sweep and the per-region
// experiments, and this server supplies the estimator — so its results
// byte-agree with `prophet -advise` while every cell fans through the
// LRU → singleflight → slot pool tiers. Baseline cells share their cache
// lines with /v1/predict; region-variant cells (synthesized trees) live
// under their own advise-scoped keys and are always served locally —
// variant trees exist only inside this request, so neither the surrogate
// nor the cluster ring can own them.
func (s *Server) handleAdvise(w http.ResponseWriter, r *http.Request) {
	if !requirePost(w, r) {
		return
	}
	var ar adviseRequest
	if !s.decodeBody(w, r, &ar) {
		return
	}
	entry, ok := s.lookup(w, ar.Workload)
	if !ok {
		return
	}
	cores := ar.Cores
	if len(cores) == 0 {
		cores = entry.threadCounts
	}
	cores, err := normalizeCores(cores)
	if err != nil {
		s.clientError(w, err)
		return
	}
	if len(cores) == 0 {
		s.clientError(w, badRequestf("empty cores axis"))
		return
	}
	// Empty method selects the advisor's documented default, Synthesizer
	// — the same default prophet -advise applies when -method is unset.
	method := prophet.Synthesizer
	if ar.Method != "" {
		method, err = prophet.ParseMethod(strings.TrimSpace(ar.Method))
		if err != nil {
			s.clientError(w, badRequestf("%v", err))
			return
		}
	}
	release, ok := s.admit(w)
	if !ok {
		return
	}
	defer release()
	s.advises.Inc()
	defer func(start time.Time) { s.adviseLat.ObserveDuration(time.Since(start)) }(time.Now())

	ctx, cancel := s.requestCtx(r, ar.TimeoutMS)
	defer cancel()
	if hook := s.testHook.Load(); hook != nil {
		(*hook)()
	}
	adv, aerr := entry.prof.AdviseCtx(ctx, &prophet.AdviseOptions{
		Threads:   cores,
		Method:    method,
		Workers:   s.cfg.Workers,
		Estimator: s.adviseEstimator(entry),
	})
	if sweep.IsCancellation(aerr) {
		writeError(w, http.StatusGatewayTimeout, fmt.Sprintf("advise canceled: %v", aerr))
		return
	}
	// A fully-failed sweep is still a valid wire result: the advice
	// carries its err field, exactly as estimates do.
	writeJSON(w, http.StatusOK, adviseResponse{Workload: entry.name, Advice: adv})
}

// adviseEstimator adapts the server's cache hierarchy to the advisor's
// cell interface. Baseline cells (scope "") go through the full estimate
// stack — LRU, cluster, surrogate, singleflight, slot pool — keyed exactly
// like /v1/predict cells. Region-variant cells run against the
// synthesized profile under an advise-scoped key: LRU and singleflight
// still apply (a repeated /v1/advise answers from cache), but the
// surrogate and the cluster are skipped — the variant tree is not the
// registered workload, so a learned model or a peer replica would answer
// for the wrong tree.
func (s *Server) adviseEstimator(entry *workloadEntry) prophet.AdviseEstimator {
	return func(ctx context.Context, scope string, prof *prophet.Profile, req prophet.Request) (prophet.Estimate, error) {
		if req.Threads == 0 {
			req.Threads = defaultThreads(req)
		}
		if scope == "" {
			est, _, err := s.estimate(ctx, entry, req, false)
			if err == nil && est.Err != nil {
				err = est.Err
			}
			return est, err
		}
		key := "advise\x00" + scope + "\x00" + cellKey(entry, req)
		if est, ok := s.cached(key, req); ok {
			return est, nil
		}
		est, _, err := s.cellOn(ctx, key, req, func(ctx context.Context) (prophet.Estimate, error) {
			return prof.EstimateCtx(ctx, req)
		})
		if err == nil && est.Err != nil {
			err = est.Err
		}
		return est, err
	}
}

func (s *Server) handleWorkloads(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodPost:
		s.handleWorkloadImport(w, r)
		return
	case http.MethodGet:
	default:
		w.Header().Set("Allow", "GET, POST")
		writeError(w, http.StatusMethodNotAllowed, "use GET to list workloads or POST to import a profile")
		return
	}
	s.readyMu.RLock()
	ready := s.ready
	s.readyMu.RUnlock()
	if !ready {
		writeError(w, http.StatusServiceUnavailable, "server is still loading workload profiles")
		return
	}
	// Configured workloads first, in config order; imported ones after,
	// sorted by name so the listing is deterministic.
	s.entriesMu.RLock()
	out := make([]workloadInfo, 0, len(s.entries))
	for _, name := range s.cfg.Workloads {
		out = append(out, infoFor(s.entries[name]))
	}
	imported := append([]string(nil), s.imported...)
	sort.Strings(imported)
	for _, name := range imported {
		out = append(out, infoFor(s.entries[name]))
	}
	s.entriesMu.RUnlock()
	writeJSON(w, http.StatusOK, out)
}

// handleMachines lists the machine presets a request's machine field (or
// a sweep's machines axis) can name, and accepts POSTed custom specs.
// The registry is cheap and process-global, so both verbs are served
// without readiness or admission gating.
func (s *Server) handleMachines(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodPost:
		s.handleMachineRegister(w, r)
		return
	case http.MethodGet:
	default:
		w.Header().Set("Allow", "GET, POST")
		writeError(w, http.StatusMethodNotAllowed, "use GET to list machine specs or POST to register one")
		return
	}
	specs := prophet.MachinePresets()
	out := make([]machineInfo, 0, len(specs))
	for _, spec := range specs {
		out = append(out, machineInfo{
			Name:    spec.Name,
			Desc:    spec.Desc,
			Cores:   spec.Cores(),
			Default: spec.Name == prophet.DefaultMachineName,
		})
	}
	writeJSON(w, http.StatusOK, out)
}

// handleMachineRegister registers a custom machine spec uploaded as
// JSON (the MachineSpec wire format). The spec must validate — 400,
// with the offending field named — and its name must be free — 409,
// since specs are immutable after publication and a name can never be
// rebound. On success the name is immediately usable in machine fields
// and machines sweep axes.
func (s *Server) handleMachineRegister(w http.ResponseWriter, r *http.Request) {
	spec := new(prophet.MachineSpec)
	if !s.decodeBody(w, r, spec) {
		return
	}
	if err := prophet.RegisterMachineSpec(spec); err != nil {
		if errors.Is(err, prophet.ErrDuplicateMachineSpec) {
			s.badReqs.Inc()
			writeError(w, http.StatusConflict, err.Error())
			return
		}
		s.clientError(w, err) // validation failure
		return
	}
	writeJSON(w, http.StatusCreated, machineInfo{
		Name:  spec.Name,
		Desc:  spec.Desc,
		Cores: spec.Cores(),
	})
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	fmt.Fprintln(w, `{"status":"ok"}`)
}

func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	s.readyMu.RLock()
	ready, closing := s.ready, s.closing
	s.readyMu.RUnlock()
	switch {
	case closing:
		writeError(w, http.StatusServiceUnavailable, "shutting down")
	case !ready:
		writeError(w, http.StatusServiceUnavailable, "loading workload profiles")
	default:
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		fmt.Fprintln(w, `{"status":"ready"}`)
	}
}

// handleMetrics serves the JSON snapshot of the obs registry: server
// request/latency series, estimate-cache and worker-slot traffic, and the
// pipeline metrics (stage timers, DES counters, sweep cells) aggregated
// from every profile and emulation the daemon has run.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	if err := s.metrics.Snapshot().WriteJSON(w); err != nil {
		// Headers are gone; nothing to do but drop the connection.
		return
	}
}

// ---- plumbing ----

func (s *Server) lookup(w http.ResponseWriter, name string) (*workloadEntry, bool) {
	s.readyMu.RLock()
	ready := s.ready
	s.readyMu.RUnlock()
	if !ready {
		writeError(w, http.StatusServiceUnavailable, "server is still loading workload profiles")
		return nil, false
	}
	s.entriesMu.RLock()
	entry, ok := s.entries[name]
	s.entriesMu.RUnlock()
	if !ok {
		s.badReqs.Inc()
		writeError(w, http.StatusNotFound, fmt.Sprintf("unknown workload %q (GET /v1/workloads lists them)", name))
		return nil, false
	}
	return entry, true
}

// decodeBody parses a JSON request body strictly: unknown fields are a
// client error (they are always a typo against this API), and bodies are
// capped at 1 MiB.
func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, dst any) bool {
	r.Body = http.MaxBytesReader(w, r.Body, 1<<20)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		s.badReqs.Inc()
		writeError(w, http.StatusBadRequest, fmt.Sprintf("bad request body: %v", err))
		return false
	}
	return true
}

func (s *Server) clientError(w http.ResponseWriter, err error) {
	s.badReqs.Inc()
	writeError(w, http.StatusBadRequest, err.Error())
}

// isForwarded reports whether a request is an already-routed cluster
// cell: it is served locally, never re-routed, so forwarding terminates
// after one hop.
func isForwarded(r *http.Request) bool {
	return r.Header.Get(cluster.ForwardedHeader) != ""
}

func requirePost(w http.ResponseWriter, r *http.Request) bool {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeError(w, http.StatusMethodNotAllowed, "use POST")
		return false
	}
	return true
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v) // the client hung up; nothing left to report to it
}

func writeError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, errorResponse{Error: msg})
}
