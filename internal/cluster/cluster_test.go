package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"prophet"
	"prophet/internal/obs"
)

// stubPeer is a fake replica: it answers /v1/predict with a canned
// speedup derived from the request (so tests can tell who answered) and
// /readyz with 200, with optional per-request behaviour overrides.
type stubPeer struct {
	ts       *httptest.Server
	calls    atomic.Int64
	behavior atomic.Pointer[func(w http.ResponseWriter, r *http.Request) bool] // true = handled
	speedup  float64
}

func newStubPeer(t *testing.T, speedup float64) *stubPeer {
	t.Helper()
	p := &stubPeer{speedup: speedup}
	mux := http.NewServeMux()
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusOK)
	})
	mux.HandleFunc("/v1/predict", func(w http.ResponseWriter, r *http.Request) {
		p.calls.Add(1)
		if r.Header.Get(ForwardedHeader) == "" {
			t.Errorf("forwarded cell missing %s header", ForwardedHeader)
		}
		if b := p.behavior.Load(); b != nil && (*b)(w, r) {
			return
		}
		var body predictBody
		if err := json.NewDecoder(r.Body).Decode(&body); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		est := prophet.Estimate{Request: body.Request, Speedup: p.speedup, Time: 1000}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(est)
	})
	p.ts = httptest.NewServer(mux)
	t.Cleanup(p.ts.Close)
	return p
}

func (p *stubPeer) url() string { return p.ts.URL }

// newTestClient builds a client with fast knobs, no prober (tests drive
// breakers synchronously), and an optional local fallback.
func newTestClient(t *testing.T, cfg Config) (*Client, *obs.Registry) {
	t.Helper()
	reg := &obs.Registry{}
	cfg.Metrics = reg
	if cfg.HedgeAfter == 0 {
		cfg.HedgeAfter = -1 // off unless the test asks for it
	}
	if cfg.ProbeInterval == 0 {
		cfg.ProbeInterval = -1
	}
	if cfg.RetryBase == 0 {
		cfg.RetryBase = time.Millisecond
	}
	if cfg.RetryMax == 0 {
		cfg.RetryMax = 2 * time.Millisecond
	}
	c := New(cfg)
	t.Cleanup(c.Close)
	return c, reg
}

// keyFor finds a cell key whose primary owner is the wanted peer, so
// routing in tests is deterministic by construction.
func keyFor(t *testing.T, c *Client, primary string) string {
	t.Helper()
	for i := 0; i < 10000; i++ {
		key := fmt.Sprintf("workload\x00hash\x00cell-%d", i)
		if c.ring.owners(key, 1)[0] == NormalizeAddr(primary) {
			return key
		}
	}
	t.Fatal("no key found for wanted primary")
	return ""
}

func TestClientLocalShardServedLocally(t *testing.T) {
	peer := newStubPeer(t, 2)
	self := "http://self.invalid:1"
	var localCalls atomic.Int64
	c, reg := newTestClient(t, Config{
		Self:  self,
		Peers: []string{self, peer.url()},
		Local: func(_ context.Context, workload string, req prophet.Request) (prophet.Estimate, error) {
			localCalls.Add(1)
			return prophet.Estimate{Request: req, Speedup: 7}, nil
		},
	})
	key := keyFor(t, c, self)
	est, err := c.Estimate(context.Background(), key, "W", prophet.Request{Threads: 4})
	if err != nil || est.Speedup != 7 {
		t.Fatalf("local-shard cell: est=%+v err=%v", est, err)
	}
	if localCalls.Load() != 1 || peer.calls.Load() != 0 {
		t.Errorf("local=%d peer=%d, want 1/0", localCalls.Load(), peer.calls.Load())
	}
	if n := reg.Snapshot().Counters[obs.MClusterCellsLocal]; n != 1 {
		t.Errorf("%s = %d, want 1", obs.MClusterCellsLocal, n)
	}
}

func TestClientForwardsRemoteShard(t *testing.T) {
	peer := newStubPeer(t, 3)
	self := "http://self.invalid:1"
	c, reg := newTestClient(t, Config{
		Self:  self,
		Peers: []string{self, peer.url()},
		Local: func(_ context.Context, _ string, req prophet.Request) (prophet.Estimate, error) {
			t.Error("remote-shard cell computed locally")
			return prophet.Estimate{Request: req}, nil
		},
	})
	key := keyFor(t, c, peer.url())
	est, err := c.Estimate(context.Background(), key, "W", prophet.Request{Threads: 2})
	if err != nil || est.Speedup != 3 {
		t.Fatalf("remote cell: est=%+v err=%v", est, err)
	}
	snap := reg.Snapshot()
	if snap.Counters[obs.MClusterCellsRemote] != 1 || snap.Counters[obs.MClusterForwards] != 1 {
		t.Errorf("remote=%d forwards=%d, want 1/1", snap.Counters[obs.MClusterCellsRemote], snap.Counters[obs.MClusterForwards])
	}
	if snap.Histograms[obs.MClusterForwardLatency].Count != 1 {
		t.Errorf("forward latency histogram count = %d, want 1", snap.Histograms[obs.MClusterForwardLatency].Count)
	}
}

// TestClientRetryThenFailover: the primary answers 500 twice (initial +
// one retry), so the call fails over to the secondary owner.
func TestClientRetryThenFailover(t *testing.T) {
	primary := newStubPeer(t, 1)
	secondary := newStubPeer(t, 5)
	fail := func(w http.ResponseWriter, _ *http.Request) bool {
		http.Error(w, "boom", http.StatusInternalServerError)
		return true
	}
	primary.behavior.Store(&fail)

	c, reg := newTestClient(t, Config{
		Self:    "http://self.invalid:1",
		Peers:   []string{"http://self.invalid:1", primary.url(), secondary.url()},
		Retries: 1,
	})
	// A key whose first two owners are primary, then secondary (self is
	// filtered out of candidates anyway, so any primary-owned key works).
	key := keyFor(t, c, primary.url())
	// Make sure the secondary is among the owners for this key.
	owners := c.ring.owners(key, c.cfg.OwnersPerCell)
	hasSecondary := false
	for _, o := range owners {
		if o == NormalizeAddr(secondary.url()) {
			hasSecondary = true
		}
	}
	if !hasSecondary {
		// With 3 peers and OwnersPerCell=2 the second owner might be
		// self; widen to 3 owners via a fresh client for determinism.
		c, reg = newTestClient(t, Config{
			Self:          "http://self.invalid:1",
			Peers:         []string{"http://self.invalid:1", primary.url(), secondary.url()},
			Retries:       1,
			OwnersPerCell: 3,
		})
		key = keyFor(t, c, primary.url())
	}

	est, err := c.Estimate(context.Background(), key, "W", prophet.Request{Threads: 2})
	if err != nil || est.Speedup != 5 {
		t.Fatalf("failover: est=%+v err=%v", est, err)
	}
	if primary.calls.Load() != 2 {
		t.Errorf("primary saw %d calls, want 2 (initial + 1 retry)", primary.calls.Load())
	}
	snap := reg.Snapshot()
	if snap.Counters[obs.MClusterRetries] != 1 {
		t.Errorf("%s = %d, want 1", obs.MClusterRetries, snap.Counters[obs.MClusterRetries])
	}
	if snap.Counters[obs.MClusterFailovers] != 1 {
		t.Errorf("%s = %d, want 1", obs.MClusterFailovers, snap.Counters[obs.MClusterFailovers])
	}
	if snap.Counters[obs.MClusterForwardErrors] != 2 {
		t.Errorf("%s = %d, want 2", obs.MClusterForwardErrors, snap.Counters[obs.MClusterForwardErrors])
	}
}

// TestClientHedgesSlowPrimary: a primary that stalls past HedgeAfter
// loses the race to the hedge on the next owner.
func TestClientHedgesSlowPrimary(t *testing.T) {
	slow := newStubPeer(t, 1)
	fast := newStubPeer(t, 9)
	stall := func(w http.ResponseWriter, r *http.Request) bool {
		select {
		case <-r.Context().Done(): // canceled by the losing side
		case <-time.After(2 * time.Second):
		}
		http.Error(w, "too late", http.StatusServiceUnavailable)
		return true
	}
	slow.behavior.Store(&stall)

	c, reg := newTestClient(t, Config{
		Self:          "http://self.invalid:1",
		Peers:         []string{"http://self.invalid:1", slow.url(), fast.url()},
		OwnersPerCell: 3,
		HedgeAfter:    5 * time.Millisecond,
	})
	key := keyFor(t, c, slow.url())
	start := time.Now()
	est, err := c.Estimate(context.Background(), key, "W", prophet.Request{Threads: 2})
	if err != nil || est.Speedup != 9 {
		t.Fatalf("hedged cell: est=%+v err=%v", est, err)
	}
	if d := time.Since(start); d > time.Second {
		t.Errorf("hedged call took %v — waited out the slow primary instead of hedging", d)
	}
	snap := reg.Snapshot()
	if snap.Counters[obs.MClusterHedgesFired] != 1 {
		t.Errorf("%s = %d, want 1", obs.MClusterHedgesFired, snap.Counters[obs.MClusterHedgesFired])
	}
	if snap.Counters[obs.MClusterHedgesWon] != 1 {
		t.Errorf("%s = %d, want 1", obs.MClusterHedgesWon, snap.Counters[obs.MClusterHedgesWon])
	}
}

// TestClientDegradesToLocal: with every remote owner down the cell is
// computed locally; when local computation fails too, its error reaches
// the caller. (Repeats of a cell a peer already answered are served by
// the server's LRU ahead of the client; see the server package's
// TestClusterCoordinatorLRUOutlivesPeers.)
func TestClientDegradesToLocal(t *testing.T) {
	peer := newStubPeer(t, 4)
	self := "http://self.invalid:1"
	localErr := errors.New("pool on fire")
	var localFail atomic.Bool
	c, reg := newTestClient(t, Config{
		Self:    self,
		Peers:   []string{self, peer.url()},
		Retries: 0,
		Local: func(_ context.Context, _ string, req prophet.Request) (prophet.Estimate, error) {
			if localFail.Load() {
				return prophet.Estimate{Request: req, Err: localErr}, localErr
			}
			return prophet.Estimate{Request: req, Speedup: 2}, nil
		},
	})
	key := keyFor(t, c, peer.url())

	// Healthy: the remote owner answers.
	est, err := c.Estimate(context.Background(), key, "W", prophet.Request{Threads: 2})
	if err != nil || est.Speedup != 4 {
		t.Fatalf("healthy remote: est=%+v err=%v", est, err)
	}

	// Kill the peer: degradation to local computation.
	peer.ts.Close()
	est, err = c.Estimate(context.Background(), key, "W", prophet.Request{Threads: 2})
	if err != nil || est.Speedup != 2 {
		t.Fatalf("degraded local: est=%+v err=%v", est, err)
	}
	if n := reg.Snapshot().Counters[obs.MClusterDegradedLocal]; n != 1 {
		t.Errorf("%s = %d, want 1", obs.MClusterDegradedLocal, n)
	}

	// Local fails too: the local error surfaces, even for a cell the
	// peer answered before.
	localFail.Store(true)
	est, err = c.Estimate(context.Background(), key, "W", prophet.Request{Threads: 2})
	if !errors.Is(err, localErr) || !errors.Is(est.Err, localErr) {
		t.Fatalf("local failure: est=%+v err=%v, want %v", est, err, localErr)
	}
}

// TestClientBreakerStopsHammeringDeadPeer: after the failure threshold
// the dead peer's circuit opens and later cells skip it without a
// network attempt.
func TestClientBreakerStopsHammeringDeadPeer(t *testing.T) {
	peer := newStubPeer(t, 4)
	self := "http://self.invalid:1"
	var localCalls atomic.Int64
	c, reg := newTestClient(t, Config{
		Self:            self,
		Peers:           []string{self, peer.url()},
		Retries:         0,
		BreakerFailures: 2,
		BreakerCooldown: time.Hour,
		Local: func(_ context.Context, _ string, req prophet.Request) (prophet.Estimate, error) {
			localCalls.Add(1)
			return prophet.Estimate{Request: req, Speedup: 2}, nil
		},
	})
	key := keyFor(t, c, peer.url())
	peer.ts.Close()

	for i := 0; i < 5; i++ {
		est, err := c.Estimate(context.Background(), key, "W", prophet.Request{Threads: 2})
		if err != nil || est.Speedup != 2 {
			t.Fatalf("cell %d: est=%+v err=%v (degradation must hide the dead peer)", i, est, err)
		}
	}
	snap := reg.Snapshot()
	if got := snap.Counters[obs.MClusterForwards]; got != 2 {
		t.Errorf("%s = %d, want 2 (breaker must cut attempts at the threshold)", obs.MClusterForwards, got)
	}
	if got := snap.Counters[obs.MClusterBreakerOpened]; got != 1 {
		t.Errorf("%s = %d, want 1", obs.MClusterBreakerOpened, got)
	}
	if localCalls.Load() != 5 {
		t.Errorf("local fallback served %d cells, want 5", localCalls.Load())
	}
}

// TestClientProberHealsBreaker: the background prober closes an open
// circuit once the peer's /readyz answers again.
func TestClientProberHealsBreaker(t *testing.T) {
	peer := newStubPeer(t, 4)
	var down atomic.Bool
	gate := func(w http.ResponseWriter, _ *http.Request) bool {
		if down.Load() {
			http.Error(w, "down", http.StatusServiceUnavailable)
			return true
		}
		return false
	}
	peer.behavior.Store(&gate)
	// /readyz must honour the same gate: wrap the test server's handler.
	inner := peer.ts.Config.Handler
	peer.ts.Config.Handler = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if down.Load() && strings.HasPrefix(r.URL.Path, "/readyz") {
			http.Error(w, "down", http.StatusServiceUnavailable)
			return
		}
		inner.ServeHTTP(w, r)
	})

	self := "http://self.invalid:1"
	c, reg := newTestClient(t, Config{
		Self:            self,
		Peers:           []string{self, peer.url()},
		Retries:         0,
		BreakerFailures: 1,
		BreakerCooldown: time.Hour, // only the prober can heal it
		ProbeInterval:   5 * time.Millisecond,
		Local: func(_ context.Context, _ string, req prophet.Request) (prophet.Estimate, error) {
			return prophet.Estimate{Request: req, Speedup: 2}, nil
		},
	})
	key := keyFor(t, c, peer.url())

	down.Store(true)
	if est, err := c.Estimate(context.Background(), key, "W", prophet.Request{Threads: 2}); err != nil || est.Speedup != 2 {
		t.Fatalf("down peer: est=%+v err=%v", est, err)
	}
	br := c.breakers[NormalizeAddr(peer.url())]
	if br.currentState() != breakerOpen {
		t.Fatal("breaker should be open after the 503")
	}

	down.Store(false)
	deadline := time.Now().Add(5 * time.Second)
	for br.currentState() != breakerClosed {
		if time.Now().After(deadline) {
			t.Fatal("prober never closed the breaker after recovery")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if est, err := c.Estimate(context.Background(), key, "W", prophet.Request{Threads: 2}); err != nil || est.Speedup != 4 {
		t.Fatalf("recovered peer: est=%+v err=%v", est, err)
	}
	snap := reg.Snapshot()
	if snap.Counters[obs.MClusterProbes] == 0 {
		t.Errorf("%s = 0, want > 0", obs.MClusterProbes)
	}

	// Every cluster metric this exercise emitted is a declared name.
	counters, hists := snap.Names()
	for _, name := range append(counters, hists...) {
		if !obs.Declared(name) {
			t.Errorf("emitted metric %q is not declared in obs/names.go", name)
		}
	}
}
