package server

import (
	"net/http"
	"strings"
	"testing"

	"prophet"
)

// TestThreadsZeroSharesTheCacheLine: the library resolves "threads":0 to
// the machine's core count before the server keys its LRU, so a request
// for the default and one naming westmere12's 12 cores explicitly are
// one cell; the second answers from the cache, echoing its own request.
func TestThreadsZeroSharesTheCacheLine(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cores := prophet.DefaultMachineSpec().Cores()
	first, source := predictOnceMachine(t, ts.URL, 0, prophet.DefaultMachineName)
	if source != sourceEmulated || first.Threads != cores || first.Err != nil {
		t.Fatalf("threads 0: source %q, estimate %+v; want an emulated %d-thread estimate", source, first, cores)
	}
	for _, machine := range []string{prophet.DefaultMachineName, ""} {
		est, source := predictOnceMachine(t, ts.URL, cores, machine)
		if source != sourceCache {
			t.Errorf("threads %d, machine %q: source %q, want %q", cores, machine, source, sourceCache)
		}
		if est.Speedup != first.Speedup || est.Threads != cores || est.Machine != machine {
			t.Errorf("threads %d, machine %q: estimate %+v, want %+v echoing machine %q", cores, machine, est, first, machine)
		}
	}
}

// TestLibraryRejectsBadRequests: a request the library cannot run is a
// 400 carrying the library's message, and a thread count above the
// server's own limit is still refused.
func TestLibraryRejectsBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, c := range []struct {
		req  prophet.Request
		want string
	}{
		{prophet.Request{Threads: -1}, "invalid request"},
		{prophet.Request{Threads: 4, Machine: "no-such-machine"}, "GET /v1/machines"},
		{prophet.Request{Threads: maxThreads + 1}, "exceeds the limit"},
	} {
		status, body := postJSON(t, ts.URL+"/v1/predict", predictRequest{Workload: "NPB-EP", Request: c.req})
		if status != http.StatusBadRequest || !strings.Contains(string(body), c.want) {
			t.Errorf("%+v: %d %s, want 400 mentioning %q", c.req, status, body, c.want)
		}
	}
}
