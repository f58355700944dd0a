package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"sync"
	"time"

	"prophet/internal/server"
)

// op is one pre-encoded request of a workload: bodies are encoded before
// the clock starts, so no JSON encoding runs on the client's clock.
type op struct {
	path  string // "/v1/predict" or "/v1/sweep"
	body  []byte
	class string // latency class, e.g. "ff" or "synth"
	cells int    // estimates the answer carries
	key   int    // index of the expected answer in the workload's tables
}

// stream is a workload's request sequence. Round r is a seeded
// permutation of the same op set, so every complete round carries the
// same mix of cells whatever the seed; only the order changes.
type stream struct {
	ops     []op
	seed    int64
	ordered bool // every round in op order (warm-ups that must fit the same model every run)

	mu     sync.Mutex
	rounds [][]int32
}

func newStream(ops []op, seed int64) *stream { return &stream{ops: ops, seed: seed} }

// at returns the i-th op of the stream.
func (s *stream) at(i int) *op {
	n := len(s.ops)
	if s.ordered {
		return &s.ops[i%n]
	}
	r := i / n
	s.mu.Lock()
	for len(s.rounds) <= r {
		rng := rand.New(rand.NewSource(s.seed*1_000_003 + int64(len(s.rounds))))
		perm := make([]int32, n)
		for j, v := range rng.Perm(n) {
			perm[j] = int32(v)
		}
		s.rounds = append(s.rounds, perm)
	}
	idx := s.rounds[r][i%n]
	s.mu.Unlock()
	return &s.ops[idx]
}

// cursor hands out stream indexes to the clients. Once asked to stop it
// lets the round in progress finish, so a phase always measures complete
// rounds and the cell mix is the same in every run.
type cursor struct {
	mu    sync.Mutex
	next  int
	limit int
}

func (c *cursor) take() (int, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.next >= c.limit {
		return 0, false
	}
	c.next++
	return c.next - 1, true
}

// stopAtRoundEnd ends the phase after the round of the last taken index.
func (c *cursor) stopAtRoundEnd(roundLen int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.limit == math.MaxInt && c.next > 0 {
		c.limit = ((c.next-1)/roundLen + 1) * roundLen
	}
}

// exchange is one request's outcome as the client saw it.
type exchange struct {
	status  int
	source  string // the X-Prophet-Source header
	body    []byte
	retries int
	err     error // transport failure
}

// client is a closed-loop HTTP client: keep-alive connections, every body
// read to the end, and 429s retried a bounded number of times.
type client struct {
	hc         *http.Client
	base       string
	maxRetries int
	backoff    time.Duration
}

func newClient(base string, conns int) *client {
	tr := &http.Transport{
		MaxIdleConns:        conns,
		MaxIdleConnsPerHost: conns,
		MaxConnsPerHost:     conns,
		DisableCompression:  true,
	}
	return &client{
		hc:         &http.Client{Transport: tr, Timeout: 60 * time.Second},
		base:       base,
		maxRetries: 3,
		backoff:    10 * time.Millisecond,
	}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// post sends body to path. A 429 is retried after a short doubling
// backoff (not the server's one-second Retry-After, which would stall a
// closed loop); the last answer is returned whatever its status.
func (c *client) post(ctx context.Context, path string, body []byte) exchange {
	var ex exchange
	for attempt := 0; ; attempt++ {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+path, bytes.NewReader(body))
		if err != nil {
			return exchange{err: err}
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := c.hc.Do(req)
		if err != nil {
			return exchange{err: err, retries: attempt}
		}
		b, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return exchange{err: fmt.Errorf("read body: %w", err), retries: attempt}
		}
		ex = exchange{status: resp.StatusCode, source: resp.Header.Get(server.SourceHeader), body: b, retries: attempt}
		if ex.status != http.StatusTooManyRequests || attempt >= c.maxRetries {
			return ex
		}
		time.Sleep(c.backoff << uint(attempt))
	}
}

// checkFunc validates one answer and returns the summed relative error
// |served − real| / real over the cells it carries.
type checkFunc func(o *op, ex *exchange) (predErr float64, err error)

// outcome is one executed op: its latency, the summed relative error of
// its errN predictions, or why it failed.
type outcome struct {
	lat    time.Duration
	errSum float64
	errN   int
	err    error
}

// doFunc executes one op and checks its answer; only the execution is
// timed. traced asks the op to feed the program's own instrumentation too.
type doFunc func(ctx context.Context, o *op, traced bool) outcome

// httpDo sends each op to the client's daemon and applies check to the
// answer after the clock stopped.
func httpDo(c *client, check checkFunc) doFunc {
	return func(ctx context.Context, o *op, _ bool) outcome {
		t0 := time.Now()
		ex := c.post(ctx, o.path, o.body)
		lat := time.Since(t0)
		pe, err := verify(o, &ex, check)
		return outcome{lat: lat, errSum: pe, errN: o.cells, err: err}
	}
}

// verify applies the failure rules every serve workload shares — a
// transport error, a non-200 status (a 429 that outlived its retries
// included) — and then the workload's own check.
func verify(o *op, ex *exchange, check checkFunc) (float64, error) {
	if ex.err != nil {
		return 0, ex.err
	}
	if ex.status != http.StatusOK {
		return 0, fmt.Errorf("status %d after %d retries: %.200s", ex.status, ex.retries, ex.body)
	}
	return check(o, ex)
}

// sample is one completed op of a phase.
type sample struct {
	op         *op
	round      int
	start, end time.Duration // since the phase began
	traced     bool
}

func (s sample) lat() time.Duration { return s.end - s.start }

// phase is what one closed-loop run over a stream measured.
type phase struct {
	attempted int64
	failed    int64
	cells     int64
	rounds    int
	samples   []sample
	// errs collects the relative error of every answer per op key, so
	// the mean is taken in key order and the same answers give the same
	// figure to the last digit, whatever order and count they came in.
	errs map[int]*keyErr
}

// keyErr is the error record of one op key: the summed relative error of
// each answer, over n predictions per answer.
type keyErr struct {
	first, sum float64
	answers    int
	n          int
	varies     bool
}

func (k *keyErr) add(errSum float64, n int) {
	if k.answers == 0 {
		k.first, k.n = errSum, n
	} else if errSum != k.first {
		k.varies = true
	}
	k.sum += errSum
	k.answers++
}

func (k *keyErr) merge(o *keyErr) {
	if k.answers > 0 && o.answers > 0 && (o.first != k.first || o.varies) {
		k.varies = true
	}
	if k.answers == 0 {
		k.first, k.n, k.varies = o.first, o.n, o.varies
	}
	k.sum += o.sum
	k.answers += o.answers
}

// mean is the key's summed error per answer: exactly the first answer's
// when every answer agreed.
func (k *keyErr) mean() float64 {
	if !k.varies {
		return k.first
	}
	return k.sum / float64(k.answers)
}

// latencies returns the sorted latencies in ms of the samples whose class
// is in classes (all samples when classes is empty).
func (p *phase) latencies(classes ...string) []float64 {
	var out []float64
	for _, s := range p.samples {
		if len(classes) == 0 || contains(classes, s.op.class) {
			out = append(out, float64(s.lat())/1e6)
		}
	}
	sort.Float64s(out)
	return out
}

// window is one round of a phase: every op of the stream once.
type window struct {
	cells      int64
	start, end time.Duration
	lat        []float64 // ms, of the ops whose class is measured
	traced     bool
}

// windows groups the phase's samples by round and keeps the latencies of
// the ops in classes.
func (p *phase) windows(classes []string) []window {
	ws := make([]window, p.rounds)
	for _, s := range p.samples {
		if s.round >= len(ws) {
			continue
		}
		w := &ws[s.round]
		if w.cells == 0 || s.start < w.start {
			w.start = s.start
		}
		if s.end > w.end {
			w.end = s.end
		}
		w.cells += int64(s.op.cells)
		w.traced = s.traced
		if contains(classes, s.op.class) {
			w.lat = append(w.lat, float64(s.lat())/1e6)
		}
	}
	for i := range ws {
		sort.Float64s(ws[i].lat)
	}
	return ws
}

// predErrPct is the mean relative error of the answered predictions, in
// %: each op key counts once per round, as it does in a complete round.
func (p *phase) predErrPct() float64 {
	keys := make([]int, 0, len(p.errs))
	for k := range p.errs {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	var sum float64
	var n int
	for _, k := range keys {
		sum += p.errs[k].mean()
		n += p.errs[k].n
	}
	return 100 * ratio(sum, float64(n))
}

// errPredictions is the number of predictions one round's error covers.
func (p *phase) errPredictions() int {
	n := 0
	for _, k := range p.errs {
		n += k.n
	}
	return n
}

// cellsPerSec is the median across rounds of each round's cells per
// second, over the rounds keep selects (nil: all).
func (p *phase) cellsPerSec(keep func(window) bool) float64 {
	var tput []float64
	for _, w := range p.windows(nil) {
		if keep == nil || keep(w) {
			tput = append(tput, ratio(float64(w.cells), (w.end-w.start).Seconds()))
		}
	}
	return median(tput)
}

func contains(xs []string, x string) bool {
	for _, y := range xs {
		if x == y {
			return true
		}
	}
	return false
}

// loop describes one closed-loop phase: how many clients, and when it may
// stop. It stops at the end of the first round that finishes after
// minTime has passed and at least minRounds rounds have started.
type loop struct {
	clients   int
	minTime   time.Duration
	minRounds int
	// spans, when set, traces every other round (the odd ones): the
	// untraced rounds in between are the baseline of the tracing overhead,
	// measured under the same host conditions.
	spans *spanLog
}

// drive runs the loop over st: each client starts its next op only after
// the previous one finished. Failures are counted, and the first one is
// reported to stderr.
func drive(ctx context.Context, do doFunc, st *stream, lp loop) *phase {
	roundLen := len(st.ops)
	cur := &cursor{limit: math.MaxInt}
	if lp.minRounds < 1 {
		lp.minRounds = 1
	}
	locals := make([]phase, lp.clients)
	var wg sync.WaitGroup
	var reported sync.Once
	start := time.Now()
	for w := range locals {
		lc := &locals[w]
		lc.errs = map[int]*keyErr{}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i, ok := cur.take()
				if !ok {
					return
				}
				o := st.at(i)
				traced := lp.spans != nil && (i/roundLen)%2 == 1
				var spans *spanLog
				if traced {
					spans = lp.spans
				}
				id := spans.begin("op." + o.class)
				out := do(ctx, o, traced)
				spans.end(id)
				end := time.Since(start)
				lc.attempted++
				if out.err != nil {
					lc.failed++
					reported.Do(func() { fmt.Fprintf(os.Stderr, "perfbench: %s op %d failed: %v\n", o.class, o.key, out.err) })
				} else {
					lc.cells += int64(o.cells)
					lc.samples = append(lc.samples, sample{op: o, round: i / roundLen, start: end - out.lat, end: end, traced: traced})
					ke := lc.errs[o.key]
					if ke == nil {
						ke = &keyErr{}
						lc.errs[o.key] = ke
					}
					ke.add(out.errSum, out.errN)
				}
				if time.Since(start) >= lp.minTime && i/roundLen+1 >= lp.minRounds {
					cur.stopAtRoundEnd(roundLen)
				}
			}
		}()
	}
	wg.Wait()
	out := &phase{errs: map[int]*keyErr{}}
	for _, lc := range locals {
		out.attempted += lc.attempted
		out.failed += lc.failed
		out.cells += lc.cells
		out.samples = append(out.samples, lc.samples...)
		for k, v := range lc.errs {
			if out.errs[k] == nil {
				out.errs[k] = &keyErr{}
			}
			out.errs[k].merge(v)
		}
	}
	out.rounds = int(out.attempted) / roundLen
	return out
}
