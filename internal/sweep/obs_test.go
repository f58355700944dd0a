package sweep

import (
	"context"
	"encoding/json"
	"errors"
	"runtime"
	"sync"
	"testing"

	"prophet/internal/obs"
)

func TestOutcomeJSONRoundTrip(t *testing.T) {
	outs := []Outcome[string]{
		{Index: 0, Value: "ok"},
		{Index: 1, Err: errors.New("cell exploded")},
		{Index: 2, Err: errors.New("skipped: context canceled"), Skipped: true},
	}
	data, err := json.Marshal(outs)
	if err != nil {
		t.Fatal(err)
	}
	want := `[{"index":0,"value":"ok"},{"index":1,"value":"","err":"cell exploded"},{"index":2,"value":"","err":"skipped: context canceled","skipped":true}]`
	if string(data) != want {
		t.Fatalf("JSON = %s\nwant   %s", data, want)
	}
	var back []Outcome[string]
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	for i := range outs {
		if back[i].Index != outs[i].Index || back[i].Value != outs[i].Value || back[i].Skipped != outs[i].Skipped {
			t.Errorf("[%d] round-trip = %+v, want %+v", i, back[i], outs[i])
		}
		switch {
		case outs[i].Err == nil && back[i].Err != nil:
			t.Errorf("[%d] spurious err %v", i, back[i].Err)
		case outs[i].Err != nil && (back[i].Err == nil || back[i].Err.Error() != outs[i].Err.Error()):
			t.Errorf("[%d] err = %v, want %v", i, back[i].Err, outs[i].Err)
		}
	}
}

func TestSweepOutcomeCounters(t *testing.T) {
	reg := &obs.Registry{}
	e := Engine{Workers: 2, Metrics: reg}
	boom := errors.New("boom")
	RunCtx(context.Background(), e, 6, func(_ context.Context, i int) (int, error) {
		if i == 3 {
			return 0, boom
		}
		return i, nil
	})
	snap := reg.Snapshot()
	if snap.Counters[obs.MSweepCellsOK] != 5 {
		t.Errorf("ok = %d, want 5", snap.Counters[obs.MSweepCellsOK])
	}
	if snap.Counters[obs.MSweepCellsFailed] != 1 {
		t.Errorf("failed = %d, want 1", snap.Counters[obs.MSweepCellsFailed])
	}

	// A canceled sweep counts every unclaimed cell as skipped.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	RunCtx(ctx, e, 4, func(_ context.Context, i int) (int, error) { return i, nil })
	if got := reg.Counter(obs.MSweepCellsSkipped).Value(); got != 4 {
		t.Errorf("skipped = %d, want 4", got)
	}
}

func TestCacheDedupCounting(t *testing.T) {
	var c Cache[int, int]
	reg := &obs.Registry{}
	ctrs := CacheCounters{
		Hits:   reg.Counter(obs.MCacheHits),
		Misses: reg.Counter(obs.MCacheMisses),
		Dedups: reg.Counter(obs.MCacheDedups),
	}
	c.Instrument(ctrs)

	const waiters = 4
	computing := make(chan struct{})
	release := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		c.Get(context.Background(), 1, func(context.Context) (int, error) {
			close(computing) // flight is now in progress
			<-release
			return 42, nil
		})
	}()
	<-computing
	wg.Add(waiters)
	results := make([]int, waiters)
	for i := 0; i < waiters; i++ {
		go func(i int) {
			defer wg.Done()
			results[i], _ = c.Get(context.Background(), 1, func(context.Context) (int, error) {
				t.Error("deduplicated Get recomputed")
				return 0, nil
			})
		}(i)
	}
	// The waiters' hit/dedup counts are registered before they block on
	// the flight, so waiting for them avoids racing the assertion.
	for ctrs.Dedups.Value() < waiters {
		runtime.Gosched()
	}
	close(release)
	wg.Wait()

	for i, v := range results {
		if v != 42 {
			t.Errorf("waiter %d got %d, want 42", i, v)
		}
	}
	hits, misses := ctrs.Hits.Value(), ctrs.Misses.Value()
	if misses != 1 || hits != waiters {
		t.Errorf("stats = %d hits / %d misses, want %d/1", hits, misses, waiters)
	}
	if ctrs.Dedups.Value() != waiters {
		t.Errorf("dedups = %d, want %d", ctrs.Dedups.Value(), waiters)
	}
	snap := reg.Snapshot()
	if snap.Counters[obs.MCacheHits] != waiters ||
		snap.Counters[obs.MCacheMisses] != 1 ||
		snap.Counters[obs.MCacheDedups] != waiters {
		t.Errorf("registry counters = %v", snap.Counters)
	}

	// A post-completion Get is a plain hit, not a dedup.
	if v, _ := c.Get(context.Background(), 1, nil); v != 42 {
		t.Errorf("completed hit = %d", v)
	}
	if ctrs.Dedups.Value() != waiters {
		t.Errorf("completed hit counted as dedup")
	}
}

// instrument attaches fresh hit, miss and dedup counters to c and
// returns them.
func instrument[K comparable, V any](c *Cache[K, V]) CacheCounters {
	reg := &obs.Registry{}
	ctrs := CacheCounters{
		Hits:   reg.Counter(obs.MCacheHits),
		Misses: reg.Counter(obs.MCacheMisses),
		Dedups: reg.Counter(obs.MCacheDedups),
	}
	c.Instrument(ctrs)
	return ctrs
}
