package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"prophet"
	"prophet/internal/obs"
)

// ForwardedHeader marks a request as an already-routed cell. A replica
// receiving it serves the cell from its local stack and never re-routes
// — forwarding terminates after one hop, so a stale or disagreeing ring
// can cost an extra hop's latency but never a loop.
const ForwardedHeader = "X-Prophet-Cluster-Cell"

// LocalFunc computes one cell on this replica's own estimate stack; the
// serving layer provides it so the client can serve local-shard cells
// and degrade to local computation when a shard's peers are all down.
type LocalFunc func(ctx context.Context, workload string, req prophet.Request) (prophet.Estimate, error)

// Config tunes a cluster client. Peers and Local are required; every
// other zero value selects the documented default.
type Config struct {
	// Self is this replica's own advertised address; cells the ring
	// assigns to Self are served locally. Empty means "pure coordinator":
	// every cell is remote.
	Self string
	// Peers are the advertised addresses of every replica in the fleet
	// (including Self). Addresses are normalized with NormalizeAddr; the
	// fleet must agree on the list or rings diverge.
	Peers []string

	// OwnersPerCell is how many ring successors may serve a cell: the
	// primary plus failover/hedge targets (default 2, clamped to the
	// peer count).
	OwnersPerCell int
	// VirtualNodes is the ring points per peer (default 64).
	VirtualNodes int

	// HedgeAfter is the latency budget before a hedge fires to the next
	// ring owner (default 30ms; negative disables hedging).
	HedgeAfter time.Duration
	// Retries is how many times a transient failure against one peer is
	// retried before failing over (default 1; negative disables).
	Retries int
	// RetryBase/RetryMax bound the exponential backoff between retries
	// (defaults 10ms/250ms); jitter draws each wait from [½d, d].
	RetryBase time.Duration
	RetryMax  time.Duration

	// BreakerFailures is the consecutive-failure threshold that opens a
	// peer's circuit (default 3). BreakerCooldown is how long an open
	// circuit waits before admitting a half-open trial (default 2s).
	BreakerFailures int
	BreakerCooldown time.Duration

	// ProbeInterval is the background health-probe period (default 1s;
	// negative disables probing). Probes hit GET /readyz and feed the
	// breakers, so a recovered replica is rediscovered within one
	// interval without risking live traffic.
	ProbeInterval time.Duration

	// Seed feeds the backoff jitter stream (default 1, so tests are
	// reproducible by default).
	Seed int64

	// Local serves cells owned by Self and is the degradation target
	// when remote owners are exhausted. nil turns both into errors.
	Local LocalFunc

	// Transport overrides the HTTP transport (tests, chaos proxies).
	Transport http.RoundTripper
	// Metrics receives the cluster.* series (nil = metrics off).
	Metrics *obs.Registry

	// now overrides the clock in tests.
	now func() time.Time
}

func (c Config) withDefaults() Config {
	norm := make([]string, 0, len(c.Peers))
	for _, p := range c.Peers {
		if n := NormalizeAddr(p); n != "" {
			norm = append(norm, n)
		}
	}
	c.Peers = norm
	c.Self = NormalizeAddr(c.Self)
	if c.OwnersPerCell == 0 {
		c.OwnersPerCell = 2
	}
	if c.VirtualNodes == 0 {
		c.VirtualNodes = 64
	}
	if c.HedgeAfter == 0 {
		c.HedgeAfter = 30 * time.Millisecond
	}
	if c.Retries == 0 {
		c.Retries = 1
	}
	if c.Retries < 0 {
		c.Retries = 0
	}
	if c.RetryBase <= 0 {
		c.RetryBase = 10 * time.Millisecond
	}
	if c.RetryMax <= 0 {
		c.RetryMax = 250 * time.Millisecond
	}
	if c.BreakerFailures == 0 {
		c.BreakerFailures = 3
	}
	if c.BreakerCooldown == 0 {
		c.BreakerCooldown = 2 * time.Second
	}
	if c.ProbeInterval == 0 {
		c.ProbeInterval = time.Second
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.now == nil {
		c.now = time.Now
	}
	return c
}

// Client routes cells across the fleet. Safe for concurrent use.
type Client struct {
	cfg      Config
	ring     *ring
	http     *http.Client
	breakers map[string]*breaker // keyed by normalized peer, immutable map

	jitterMu sync.Mutex
	jitter   *rand.Rand

	stopProbe chan struct{}
	probeDone chan struct{}
	closeOnce sync.Once

	cellsLocal, cellsRemote, degradedLocal      *obs.Counter
	forwards, forwardErrors, retries, failovers *obs.Counter
	hedgesFired, hedgesWon                      *obs.Counter
	probes, probeFailures                       *obs.Counter
	forwardLat                                  *obs.Histogram
}

// New builds a client over cfg.Peers and starts the health prober.
// Callers must Close it to stop the prober.
func New(cfg Config) *Client {
	cfg = cfg.withDefaults()
	reg := cfg.Metrics
	c := &Client{
		cfg:           cfg,
		ring:          newRing(cfg.Peers, cfg.VirtualNodes),
		breakers:      make(map[string]*breaker),
		jitter:        rand.New(rand.NewSource(cfg.Seed)),
		stopProbe:     make(chan struct{}),
		probeDone:     make(chan struct{}),
		cellsLocal:    reg.Counter(obs.MClusterCellsLocal),
		cellsRemote:   reg.Counter(obs.MClusterCellsRemote),
		degradedLocal: reg.Counter(obs.MClusterDegradedLocal),
		forwards:      reg.Counter(obs.MClusterForwards),
		forwardErrors: reg.Counter(obs.MClusterForwardErrors),
		retries:       reg.Counter(obs.MClusterRetries),
		failovers:     reg.Counter(obs.MClusterFailovers),
		hedgesFired:   reg.Counter(obs.MClusterHedgesFired),
		hedgesWon:     reg.Counter(obs.MClusterHedgesWon),
		probes:        reg.Counter(obs.MClusterProbes),
		probeFailures: reg.Counter(obs.MClusterProbeFailures),
		forwardLat:    reg.Histogram(obs.MClusterForwardLatency),
	}
	transport := cfg.Transport
	if transport == nil {
		transport = &http.Transport{MaxIdleConnsPerHost: 64, IdleConnTimeout: 30 * time.Second}
	}
	c.http = &http.Client{Transport: transport}
	for _, p := range c.ring.peers {
		c.breakers[p] = newBreaker(cfg.BreakerFailures, cfg.BreakerCooldown, cfg.now, reg)
	}
	if cfg.ProbeInterval > 0 {
		go c.probeLoop()
	} else {
		close(c.probeDone)
	}
	return c
}

// Close stops the health prober. In-flight Estimate calls finish.
func (c *Client) Close() {
	c.closeOnce.Do(func() {
		close(c.stopProbe)
		<-c.probeDone
	})
}

// Peers returns the normalized fleet membership (sorted).
func (c *Client) Peers() []string { return append([]string(nil), c.ring.peers...) }

// Owners returns the replicas the ring assigns to cellKey, primary
// first — the routing decision Estimate makes, exposed for tests and
// operational tooling (answering "where does this cell live?").
func (c *Client) Owners(cellKey string) []string {
	return c.ring.owners(cellKey, c.cfg.OwnersPerCell)
}

// errPeersExhausted reports that every eligible remote owner of a cell
// refused or failed it.
var errPeersExhausted = errors.New("cluster: all remote owners failed")

// errBreakerOpen reports a peer skipped because its circuit is open.
var errBreakerOpen = errors.New("cluster: peer circuit open")

// Estimate serves one cell through the cluster: local stack if the ring
// assigns the cell to Self, otherwise forwarded to the owning peers with
// retries, hedging and failover, degrading to local computation when
// every owner is down. cellKey must be the serving layer's cache key for
// the cell so routing and caching agree; repeats of a cell the fleet
// already answered are the serving layer's LRU's to serve, ahead of this
// client.
func (c *Client) Estimate(ctx context.Context, cellKey, workload string, req prophet.Request) (prophet.Estimate, error) {
	owners := c.ring.owners(cellKey, c.cfg.OwnersPerCell)
	if len(owners) == 0 || owners[0] == c.cfg.Self {
		c.cellsLocal.Inc()
		return c.local(ctx, workload, req)
	}
	candidates := make([]string, 0, len(owners))
	for _, p := range owners {
		if p != c.cfg.Self {
			candidates = append(candidates, p)
		}
	}
	c.cellsRemote.Inc()
	est, err := c.forwardHedged(ctx, candidates, workload, req)
	if err == nil {
		return est, nil
	}
	if ctx.Err() != nil {
		return prophet.Estimate{Request: req, Err: ctx.Err()}, ctx.Err()
	}
	// Every remote owner is down or refusing: degrade to computing the
	// cell here.
	c.degradedLocal.Inc()
	return c.local(ctx, workload, req)
}

func (c *Client) local(ctx context.Context, workload string, req prophet.Request) (prophet.Estimate, error) {
	if c.cfg.Local == nil {
		err := fmt.Errorf("cluster: no local estimator for workload %s", workload)
		return prophet.Estimate{Request: req, Err: err}, err
	}
	return c.cfg.Local(ctx, workload, req)
}

// forwardResult is one racer's outcome in the hedged forward.
type forwardResult struct {
	est       prophet.Estimate
	hedge     bool
	exhausted bool
}

// forwardHedged races up to two workers over the candidate list: the
// primary starts immediately; if it has not answered within HedgeAfter,
// a hedge starts on the next untried candidate. Workers claim
// candidates from a shared cursor (never duplicating one), retry
// transient failures with backoff, and fail over down the list. First
// successful response wins and cancels the loser.
func (c *Client) forwardHedged(ctx context.Context, candidates []string, workload string, req prophet.Request) (prophet.Estimate, error) {
	if len(candidates) == 0 {
		return prophet.Estimate{}, errPeersExhausted
	}
	cctx, cancel := context.WithCancel(ctx)
	defer cancel()

	var cursor atomic.Int64
	results := make(chan forwardResult, 2)
	worker := func(hedge bool) {
		claimed := 0
		for {
			i := int(cursor.Add(1)) - 1
			if i >= len(candidates) {
				results <- forwardResult{exhausted: true, hedge: hedge}
				return
			}
			if claimed > 0 {
				// This worker moved on after a failed peer.
				c.failovers.Inc()
			}
			claimed++
			est, err := c.callPeerWithRetry(cctx, candidates[i], workload, req)
			if err == nil {
				results <- forwardResult{est: est, hedge: hedge}
				return
			}
			if cctx.Err() != nil {
				results <- forwardResult{exhausted: true, hedge: hedge}
				return
			}
		}
	}
	go worker(false)

	launched := 1
	finished := 0
	hedgeTimer := time.NewTimer(c.hedgeDelay())
	defer hedgeTimer.Stop()
	for {
		select {
		case r := <-results:
			if !r.exhausted {
				if r.hedge {
					c.hedgesWon.Inc()
				}
				cancel() // the loser stops at its next context check
				return r.est, nil
			}
			finished++
			if finished == launched {
				return prophet.Estimate{}, errPeersExhausted
			}
		case <-hedgeTimer.C:
			if launched == 1 && int(cursor.Load()) < len(candidates) {
				c.hedgesFired.Inc()
				launched++
				go worker(true)
			}
		case <-cctx.Done():
			return prophet.Estimate{}, cctx.Err()
		}
	}
}

// hedgeDelay returns the hedge budget; a negative config means "never"
// (a timer far beyond any request deadline).
func (c *Client) hedgeDelay() time.Duration {
	if c.cfg.HedgeAfter < 0 {
		return 24 * time.Hour
	}
	return c.cfg.HedgeAfter
}

// attempt classification: how one peer call ended.
type callClass int

const (
	callOK        callClass = iota
	callTransient           // transport error, 5xx, truncated body: retry, then fail over; feeds the breaker
	callRefused             // 4xx: the peer is healthy but will not serve this cell; fail over without penalty
)

// callPeerWithRetry runs one peer's attempts: breaker gate, call, and
// exponential backoff with jitter between transient failures.
func (c *Client) callPeerWithRetry(ctx context.Context, peer, workload string, req prophet.Request) (prophet.Estimate, error) {
	br := c.breakers[peer]
	for attempt := 0; ; attempt++ {
		if br != nil && !br.allow() {
			return prophet.Estimate{}, fmt.Errorf("%w: %s", errBreakerOpen, peer)
		}
		est, cls, err := c.callPeer(ctx, peer, workload, req)
		switch cls {
		case callOK:
			br.onSuccess()
			return est, nil
		case callRefused:
			// The peer answered coherently (overloaded or missing the
			// workload); that is not evidence it is down.
			br.onSuccess()
			return prophet.Estimate{}, err
		}
		br.onFailure()
		if attempt >= c.cfg.Retries || ctx.Err() != nil {
			return prophet.Estimate{}, err
		}
		c.retries.Inc()
		select {
		case <-time.After(c.backoff(attempt)):
		case <-ctx.Done():
			return prophet.Estimate{}, ctx.Err()
		}
	}
}

// backoff returns the wait before retry #attempt+1: exponential from
// RetryBase, capped at RetryMax, jittered into [½d, d] so synchronized
// coordinators do not retry in lockstep.
func (c *Client) backoff(attempt int) time.Duration {
	d := c.cfg.RetryBase << uint(attempt)
	if d > c.cfg.RetryMax || d <= 0 {
		d = c.cfg.RetryMax
	}
	c.jitterMu.Lock()
	f := 0.5 + 0.5*c.jitter.Float64()
	c.jitterMu.Unlock()
	return time.Duration(float64(d) * f)
}

// predictBody mirrors the serving layer's /v1/predict request body.
type predictBody struct {
	Workload  string          `json:"workload"`
	Request   prophet.Request `json:"request"`
	TimeoutMS int64           `json:"timeout_ms,omitempty"`
}

// maxForwardBody caps a forwarded response read; estimates are tiny, so
// anything larger is a corrupt or hostile peer.
const maxForwardBody = 1 << 20

// callPeer forwards one cell to peer as POST /v1/predict and decodes
// the estimate. The returned class tells the retry/failover policy how
// the attempt ended.
func (c *Client) callPeer(ctx context.Context, peer, workload string, req prophet.Request) (prophet.Estimate, callClass, error) {
	c.forwards.Inc()
	body := predictBody{Workload: workload, Request: req}
	if dl, ok := ctx.Deadline(); ok {
		if ms := time.Until(dl).Milliseconds(); ms > 0 {
			body.TimeoutMS = ms
		}
	}
	data, err := json.Marshal(body)
	if err != nil {
		return prophet.Estimate{}, callRefused, err
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, peer+"/v1/predict", bytes.NewReader(data))
	if err != nil {
		return prophet.Estimate{}, callRefused, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	hreq.Header.Set(ForwardedHeader, "1")
	start := c.cfg.now()
	resp, err := c.http.Do(hreq)
	if err != nil {
		c.forwardErrors.Inc()
		return prophet.Estimate{}, callTransient, fmt.Errorf("cluster: forward to %s: %w", peer, err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(resp.Body, maxForwardBody))
	if err != nil {
		// Mid-body connection loss (resets, truncation) lands here.
		c.forwardErrors.Inc()
		return prophet.Estimate{}, callTransient, fmt.Errorf("cluster: read from %s: %w", peer, err)
	}
	switch {
	case resp.StatusCode == http.StatusOK:
		var est prophet.Estimate
		if err := json.Unmarshal(raw, &est); err != nil {
			c.forwardErrors.Inc()
			return prophet.Estimate{}, callTransient, fmt.Errorf("cluster: bad estimate from %s: %w", peer, err)
		}
		c.forwardLat.ObserveDuration(c.cfg.now().Sub(start))
		return est, callOK, nil
	case resp.StatusCode >= 400 && resp.StatusCode < 500:
		c.forwardErrors.Inc()
		return prophet.Estimate{}, callRefused, fmt.Errorf("cluster: peer %s refused cell: HTTP %d", peer, resp.StatusCode)
	default:
		c.forwardErrors.Inc()
		return prophet.Estimate{}, callTransient, fmt.Errorf("cluster: peer %s failed cell: HTTP %d", peer, resp.StatusCode)
	}
}

// probeLoop is the self-healing half of the breakers: it probes every
// peer's /readyz each interval, so a crashed replica's circuit stays
// open without burning live requests on it, and a recovered replica is
// closed back into rotation within one interval.
func (c *Client) probeLoop() {
	defer close(c.probeDone)
	ticker := time.NewTicker(c.cfg.ProbeInterval)
	defer ticker.Stop()
	for {
		select {
		case <-c.stopProbe:
			return
		case <-ticker.C:
		}
		for _, peer := range c.ring.peers {
			if peer == c.cfg.Self {
				continue
			}
			select {
			case <-c.stopProbe:
				return
			default:
			}
			c.probeOne(peer)
		}
	}
}

func (c *Client) probeOne(peer string) {
	c.probes.Inc()
	timeout := c.cfg.ProbeInterval
	if timeout > time.Second {
		timeout = time.Second
	}
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, peer+"/readyz", nil)
	if err != nil {
		return
	}
	br := c.breakers[peer]
	resp, err := c.http.Do(req)
	if err != nil {
		c.probeFailures.Inc()
		br.onFailure()
		return
	}
	io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
	resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		br.onSuccess()
		return
	}
	// A non-ready peer (loading, draining) must not receive cells.
	c.probeFailures.Inc()
	br.onFailure()
}
