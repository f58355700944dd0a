package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net"
	"net/http"
	"sync"
	"testing"
	"time"

	"prophet"
	"prophet/internal/cluster"
	"prophet/internal/obs"
)

// clusterFleet is a set of replicas sharing one ring, each behind a real
// TCP listener (so a replica can be killed mid-request like a crashed
// process, not politely drained).
type clusterFleet struct {
	servers []*Server
	https   []*http.Server
	urls    []string
	regs    []*obs.Registry
}

// newClusterFleet starts n loaded replicas on real listeners. The
// listeners are created before the servers so every replica knows the
// full peer list up front, the way a static fleet config would.
func newClusterFleet(t *testing.T, n int, mutate func(i int, cfg *Config)) *clusterFleet {
	t.Helper()
	f := &clusterFleet{}
	lns := make([]net.Listener, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		f.urls = append(f.urls, "http://"+ln.Addr().String())
	}
	for i := range lns {
		reg := &obs.Registry{}
		cfg := Config{
			Workloads:          []string{"NPB-EP"},
			Cores:              []int{2, 4},
			DisableMemoryModel: true,
			Metrics:            reg,
			Cluster: &cluster.Config{
				Self:          f.urls[i],
				Peers:         f.urls,
				OwnersPerCell: 3,
				HedgeAfter:    10 * time.Millisecond,
				Retries:       1,
				RetryBase:     time.Millisecond,
				RetryMax:      2 * time.Millisecond,
				// A threshold no test reaches: breaker state must not
				// leak nondeterminism into retry/failover assertions.
				BreakerFailures: 1 << 20,
				ProbeInterval:   -1,
			},
		}
		if mutate != nil {
			mutate(i, &cfg)
		}
		srv := New(cfg)
		if err := srv.Load(context.Background()); err != nil {
			t.Fatalf("replica %d Load: %v", i, err)
		}
		hs := &http.Server{Handler: srv.Handler()}
		go hs.Serve(lns[i])
		f.servers = append(f.servers, srv)
		f.https = append(f.https, hs)
		f.regs = append(f.regs, reg)
	}
	t.Cleanup(func() {
		for i := range f.servers {
			f.https[i].Close()
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			f.servers[i].Shutdown(ctx)
			cancel()
		}
	})
	return f
}

// rawOutcomes extracts the outcomes array of a sweep response verbatim —
// the envelope's cached count legitimately differs between a cluster and
// a single node, the outcomes must not.
func rawOutcomes(t *testing.T, body []byte) []byte {
	t.Helper()
	var resp struct {
		Outcomes json.RawMessage `json:"outcomes"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatalf("sweep response: %v\n%s", err, body)
	}
	return resp.Outcomes
}

func decodeOutcomes(t *testing.T, body []byte) (outs []struct {
	Err     string `json:"err,omitempty"`
	Skipped bool   `json:"skipped,omitempty"`
}) {
	t.Helper()
	var resp struct {
		Outcomes []struct {
			Err     string `json:"err,omitempty"`
			Skipped bool   `json:"skipped,omitempty"`
		} `json:"outcomes"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	return resp.Outcomes
}

var fleetSweep = map[string]any{
	"workload": "NPB-EP",
	"cores":    []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12},
}

// TestClusterSweepMatchesSingleNode: a sweep served by a healthy fleet is
// byte-identical — outcome array for outcome array — to the same sweep on
// a single node. Routing, forwarding and remote decode/re-encode must be
// invisible in the payload.
func TestClusterSweepMatchesSingleNode(t *testing.T) {
	_, single := newTestServer(t, Config{Cores: []int{2, 4}})
	code, refBody := postJSON(t, single.URL+"/v1/sweep", fleetSweep)
	if code != http.StatusOK {
		t.Fatalf("single-node sweep: HTTP %d: %s", code, refBody)
	}

	f := newClusterFleet(t, 3, nil)
	code, gotBody := postJSON(t, f.urls[0]+"/v1/sweep", fleetSweep)
	if code != http.StatusOK {
		t.Fatalf("cluster sweep: HTTP %d: %s", code, gotBody)
	}
	if ref, got := rawOutcomes(t, refBody), rawOutcomes(t, gotBody); string(ref) != string(got) {
		t.Errorf("cluster outcomes differ from single node\nsingle: %s\ncluster: %s", ref, got)
	}
	// The fleet actually served remotely: this was not 12 local cells.
	snap := f.regs[0].Snapshot()
	if snap.Counters[obs.MClusterCellsRemote] == 0 {
		t.Error("coordinator forwarded nothing — every cell landed local, the test is vacuous")
	}
}

// TestClusterSweepKillReplicaByteIdentical is the acceptance chaos test:
// one replica is SIGKILL-shaped away (listener and connections severed,
// no drain) while it holds forwarded cells mid-flight. The sweep must
// still return zero client-visible errors and an outcomes array
// byte-identical to a single node's, with the recovery visible in the
// coordinator's hedge/retry/failover metrics.
func TestClusterSweepKillReplicaByteIdentical(t *testing.T) {
	_, single := newTestServer(t, Config{Cores: []int{2, 4}})
	code, refBody := postJSON(t, single.URL+"/v1/sweep", fleetSweep)
	if code != http.StatusOK {
		t.Fatalf("single-node sweep: HTTP %d: %s", code, refBody)
	}

	// The victim is whichever non-coordinator replica receives the first
	// forwarded cell (ring placement depends on ephemeral ports, so it
	// cannot be pinned ahead of time). Its hook then holds every request
	// it has admitted hostage until the kill, so the coordinator's view
	// is a replica that goes silent mid-request — the crash shape.
	var (
		victimMu sync.Mutex
		victim   = -1
		reached  = make(chan int, 1)
		release  = make(chan struct{})
	)
	releaseOnce := sync.OnceFunc(func() { close(release) })
	defer releaseOnce()

	f := newClusterFleet(t, 3, nil)
	for i := 1; i < 3; i++ {
		i := i
		hook := func() {
			victimMu.Lock()
			if victim == -1 {
				victim = i
				reached <- i
			}
			v := victim
			victimMu.Unlock()
			if v == i {
				<-release
			}
		}
		f.servers[i].testHook.Store(&hook)
	}

	type sweepOut struct {
		code int
		body []byte
	}
	sweepDone := make(chan sweepOut, 1)
	go func() {
		code, body := postJSON(t, f.urls[0]+"/v1/sweep", fleetSweep)
		sweepDone <- sweepOut{code, body}
	}()

	var v int
	select {
	case v = <-reached:
	case <-time.After(30 * time.Second):
		t.Fatal("no replica ever received a forwarded cell")
	}
	// Let the coordinator's hedge fire against the silent replica before
	// pulling the plug — the kill must catch requests it is holding.
	hedgeDeadline := time.Now().Add(10 * time.Second)
	for f.regs[0].Snapshot().Counters[obs.MClusterHedgesFired] == 0 {
		if time.Now().After(hedgeDeadline) {
			t.Fatal("hedge never fired against the blocked replica")
		}
		time.Sleep(time.Millisecond)
	}
	// Kill: sever the listener and every established connection at once.
	f.https[v].Close()
	releaseOnce()

	var out sweepOut
	select {
	case out = <-sweepDone:
	case <-time.After(60 * time.Second):
		t.Fatal("sweep never completed after the kill")
	}
	if out.code != http.StatusOK {
		t.Fatalf("sweep after kill: HTTP %d: %s", out.code, out.body)
	}
	for i, o := range decodeOutcomes(t, out.body) {
		if o.Err != "" || o.Skipped {
			t.Errorf("outcome %d: err=%q skipped=%v — the kill leaked to the client", i, o.Err, o.Skipped)
		}
	}
	if ref, got := rawOutcomes(t, refBody), rawOutcomes(t, out.body); string(ref) != string(got) {
		t.Errorf("outcomes with a killed replica differ from single node\nsingle: %s\ncluster: %s", ref, got)
	}

	// The blocked-then-killed replica forced hedges; they won.
	snap := f.regs[0].Snapshot()
	if snap.Counters[obs.MClusterHedgesFired] == 0 {
		t.Errorf("%s = 0, want hedges against the silent replica", obs.MClusterHedgesFired)
	}
	if snap.Counters[obs.MClusterHedgesWon] == 0 {
		t.Errorf("%s = 0, want the hedge to win", obs.MClusterHedgesWon)
	}

	// Post-kill, a fresh cell owned by the dead replica exercises the
	// refused-connection path deterministically: retry with backoff, then
	// failover — still zero client-visible errors, still byte-identical
	// to the single node.
	coord := f.servers[0]
	coord.entriesMu.RLock()
	entry := coord.entries["NPB-EP"]
	coord.entriesMu.RUnlock()
	var probe *prophet.Request
	for threads := 13; threads < 200; threads++ {
		req := prophet.Request{Threads: threads}
		if coord.cluster.Owners(cellKey(entry, req))[0] == f.urls[v] {
			probe = &req
			break
		}
	}
	if probe == nil {
		t.Fatal("no probe cell owned by the dead replica")
	}
	preRetries := snap.Counters[obs.MClusterRetries]
	body := map[string]any{"workload": "NPB-EP", "request": map[string]any{"threads": probe.Threads}}
	code, got := postJSON(t, f.urls[0]+"/v1/predict", body)
	if code != http.StatusOK {
		t.Fatalf("predict for dead-owned cell: HTTP %d: %s", code, got)
	}
	codeRef, ref := postJSON(t, single.URL+"/v1/predict", body)
	if codeRef != http.StatusOK || string(got) != string(ref) {
		t.Errorf("dead-owned predict differs from single node\nsingle: %s\ncluster: %s", ref, got)
	}
	snap = f.regs[0].Snapshot()
	if snap.Counters[obs.MClusterRetries] <= preRetries {
		t.Errorf("%s did not move serving a dead-owned cell", obs.MClusterRetries)
	}
	if snap.Counters[obs.MClusterFailovers] == 0 {
		t.Errorf("%s = 0, want failover off the dead replica", obs.MClusterFailovers)
	}
}

// TestClusterForwardedCellServedLocally pins the one-hop contract at the
// HTTP layer: a request carrying the cluster routing header is served by
// the receiving replica even when the ring assigns the cell elsewhere.
func TestClusterForwardedCellServedLocally(t *testing.T) {
	f := newClusterFleet(t, 3, nil)
	// Find a cell replica 1 does NOT own.
	srv := f.servers[1]
	srv.entriesMu.RLock()
	entry := srv.entries["NPB-EP"]
	srv.entriesMu.RUnlock()
	var req *prophet.Request
	for threads := 1; threads < 200; threads++ {
		r := prophet.Request{Threads: threads}
		if srv.cluster.Owners(cellKey(entry, r))[0] != f.urls[1] {
			req = &r
			break
		}
	}
	if req == nil {
		t.Fatal("replica 1 owns every probed cell")
	}

	data, _ := json.Marshal(map[string]any{"workload": "NPB-EP", "request": map[string]any{"threads": req.Threads}})
	hreq, err := http.NewRequest(http.MethodPost, f.urls[1]+"/v1/predict", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	hreq.Header.Set("Content-Type", "application/json")
	hreq.Header.Set(cluster.ForwardedHeader, "1")
	resp, err := http.DefaultClient.Do(hreq)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("forwarded predict: HTTP %d", resp.StatusCode)
	}
	snap := f.regs[1].Snapshot()
	if snap.Counters[obs.MClusterForwards] != 0 {
		t.Errorf("replica re-forwarded an already-routed cell (%s = %d) — one-hop contract broken",
			obs.MClusterForwards, snap.Counters[obs.MClusterForwards])
	}
	if snap.Counters[obs.MClusterCellsLocal]+snap.Counters[obs.MClusterCellsRemote] != 0 {
		t.Errorf("forwarded cell went back through the router: %+v", snap.Counters)
	}
}

// TestClusterSurrogateAnswersOnOwner: with the surrogate armed fleet-wide,
// a cell is looked up only on the replica that owns it. A trained cell
// asked through another replica is answered by the owner's surrogate one
// hop away: the owner's hit counter moves, the coordinator's surrogate is
// never consulted, and the surrogate answer stays out of the
// coordinator's LRU.
func TestClusterSurrogateAnswersOnOwner(t *testing.T) {
	// The ring hashes the replicas' URLs, whose ports are random, and the
	// twelve trained cells' keys differ only in the thread count, so now
	// and then replica 0 owns all of them. The check needs replica 1 to
	// own one: build fleets until it does.
	var (
		f     *clusterFleet
		coord *Server
		entry *workloadEntry
		probe *prophet.Request
	)
	for attempt := 0; probe == nil; attempt++ {
		if attempt == 8 {
			t.Fatal("replica 1 owns none of the trained cells in 8 fleets")
		}
		f = newClusterFleet(t, 2, func(i int, cfg *Config) {
			cfg.Surrogate = surrogateTestConfig(-1)
			if i == 1 {
				cfg.CacheSize = -1 // the owner's LRU must not answer the probe
			}
		})
		coord = f.servers[0]
		coord.entriesMu.RLock()
		entry = coord.entries["NPB-EP"]
		coord.entriesMu.RUnlock()
		for threads := 1; threads <= 12; threads++ {
			r := prophet.Request{Method: prophet.FastForward, Threads: threads}
			if coord.cluster.Owners(cellKey(entry, r))[0] == f.urls[1] {
				probe = &r
				break
			}
		}
	}
	owner := f.servers[1]

	// Train the owner directly: forwarded cells are served where they land.
	for threads := 1; threads <= 12; threads++ {
		data, _ := json.Marshal(predictRequest{
			Workload: "NPB-EP",
			Request:  prophet.Request{Method: prophet.FastForward, Threads: threads},
		})
		hreq, err := http.NewRequest(http.MethodPost, f.urls[1]+"/v1/predict", bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		hreq.Header.Set("Content-Type", "application/json")
		hreq.Header.Set(cluster.ForwardedHeader, "1")
		resp, err := http.DefaultClient.Do(hreq)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("training cell %d: HTTP %d", threads, resp.StatusCode)
		}
	}
	ownerHits := counterValue(t, owner, obs.MSurrogateHits)

	est, source := predictOnce(t, f.urls[0], probe.Threads)
	if source != prophet.SourceSurrogate || est.Source != prophet.SourceSurrogate {
		t.Fatalf("probe answered with header %q, body source %q; want the owner's surrogate", source, est.Source)
	}
	if got := counterValue(t, owner, obs.MSurrogateHits); got != ownerHits+1 {
		t.Errorf("owner surrogate.hits = %d, want %d", got, ownerHits+1)
	}
	for _, name := range []string{obs.MSurrogateHits, obs.MSurrogateFallbacks} {
		if got := counterValue(t, coord, name); got != 0 {
			t.Errorf("coordinator %s = %d, want 0: only the owner consults its surrogate", name, got)
		}
	}
	if _, ok := coord.cache.Get(cellKey(entry, *probe)); ok {
		t.Error("the coordinator cached a surrogate answer in its LRU")
	}
}
