package sweep

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

func TestRunOrderedResults(t *testing.T) {
	// The same grid must produce the same indexed results at every pool
	// size — the determinism contract the harness's byte-identical
	// output rests on.
	cell := func(_ context.Context, i int) (int, error) { return i*i + 7, nil }
	want := RunCtx(context.Background(), Engine{Workers: 1}, 100, cell)
	for _, workers := range []int{2, 3, 8, 16, 100} {
		got := RunCtx(context.Background(), Engine{Workers: workers}, 100, cell)
		if len(got) != len(want) {
			t.Fatalf("workers=%d: %d outcomes, want %d", workers, len(got), len(want))
		}
		for i := range got {
			if got[i].Index != i || got[i].Value != want[i].Value || got[i].Err != nil {
				t.Fatalf("workers=%d cell %d: got %+v want %+v", workers, i, got[i], want[i])
			}
		}
	}
}

func TestRunZeroCells(t *testing.T) {
	out := RunCtx(context.Background(), Engine{}, 0, func(_ context.Context, i int) (int, error) { t.Fatal("cell called"); return 0, nil })
	if len(out) != 0 {
		t.Fatalf("outcomes = %d, want 0", len(out))
	}
}

func TestRunErrorsStayPerCell(t *testing.T) {
	boom := errors.New("boom")
	out := RunCtx(context.Background(), Engine{Workers: 4}, 10, func(_ context.Context, i int) (int, error) {
		if i%3 == 0 {
			return 0, boom
		}
		return i, nil
	})
	for i, o := range out {
		if i%3 == 0 {
			if !errors.Is(o.Err, boom) {
				t.Errorf("cell %d: err = %v, want boom", i, o.Err)
			}
		} else if o.Err != nil || o.Value != i {
			t.Errorf("cell %d: (%d, %v), want (%d, nil)", i, o.Value, o.Err, i)
		}
	}
}

func TestRunPanicIsolation(t *testing.T) {
	// A worker panic becomes that cell's *PanicError; every other cell
	// completes normally.
	for _, workers := range []int{1, 4} {
		out := RunCtx(context.Background(), Engine{Workers: workers}, 20, func(_ context.Context, i int) (string, error) {
			if i == 7 {
				panic("cell exploded")
			}
			return fmt.Sprintf("ok-%d", i), nil
		})
		for i, o := range out {
			if i == 7 {
				var pe *PanicError
				if !errors.As(o.Err, &pe) {
					t.Fatalf("workers=%d: cell 7 err = %v, want PanicError", workers, o.Err)
				}
				if pe.Cell != 7 || pe.Value != "cell exploded" || len(pe.Stack) == 0 {
					t.Errorf("workers=%d: PanicError = cell %d value %v stack %d bytes",
						workers, pe.Cell, pe.Value, len(pe.Stack))
				}
				continue
			}
			if o.Err != nil || o.Value != fmt.Sprintf("ok-%d", i) {
				t.Errorf("workers=%d cell %d: (%q, %v)", workers, i, o.Value, o.Err)
			}
		}
	}
}

func TestWorkerCountDefaults(t *testing.T) {
	if got := (Engine{}).WorkerCount(); got < 1 {
		t.Errorf("default WorkerCount = %d, want >= 1", got)
	}
	if got := (Engine{Workers: -3}).WorkerCount(); got < 1 {
		t.Errorf("negative WorkerCount = %d, want >= 1", got)
	}
	if got := (Engine{Workers: 5}).WorkerCount(); got != 5 {
		t.Errorf("WorkerCount = %d, want 5", got)
	}
}

func TestCacheSingleflight(t *testing.T) {
	var c Cache[string, int]
	var computes atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 32; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, err := c.Get("k", func() (int, error) {
				computes.Add(1)
				return 42, nil
			})
			if v != 42 || err != nil {
				t.Errorf("Get = (%d, %v), want (42, nil)", v, err)
			}
		}()
	}
	wg.Wait()
	if n := computes.Load(); n != 1 {
		t.Errorf("compute ran %d times, want 1", n)
	}
	if c.Len() != 1 {
		t.Errorf("Len = %d, want 1", c.Len())
	}
	hits, misses := c.Stats()
	if misses != 1 || hits != 31 {
		t.Errorf("stats = %d hits / %d misses, want 31/1", hits, misses)
	}
}

func TestCacheErrorsAndPanicsAreCached(t *testing.T) {
	var c Cache[int, int]
	boom := errors.New("boom")
	var computes atomic.Int64
	for i := 0; i < 3; i++ {
		if _, err := c.Get(1, func() (int, error) { computes.Add(1); return 0, boom }); !errors.Is(err, boom) {
			t.Fatalf("err = %v, want boom", err)
		}
	}
	if n := computes.Load(); n != 1 {
		t.Errorf("error compute ran %d times, want 1", n)
	}
	_, err := c.Get(2, func() (int, error) { panic("compute exploded") })
	var pe *PanicError
	if !errors.As(err, &pe) || pe.Value != "compute exploded" {
		t.Fatalf("err = %v, want PanicError(compute exploded)", err)
	}
	// Waiters arriving after the panic share the cached failure.
	if _, err2 := c.Get(2, func() (int, error) { t.Fatal("recomputed"); return 0, nil }); !errors.As(err2, &pe) {
		t.Fatalf("second err = %v, want cached PanicError", err2)
	}
}

// TestRunCacheRaceStress drives many cells through a shared cache at
// once. It exists for `go test -race -short`: the race detector must see
// the pool and cache as clean under heavy key contention.
func TestRunCacheRaceStress(t *testing.T) {
	var c Cache[int, []int]
	out := RunCtx(context.Background(), Engine{Workers: 8}, 200, func(_ context.Context, i int) (int, error) {
		key := i % 9 // heavy sharing across cells
		v, err := c.Get(key, func() ([]int, error) {
			s := make([]int, 64)
			for j := range s {
				s[j] = key * j
			}
			return s, nil
		})
		if err != nil {
			return 0, err
		}
		sum := 0
		for _, x := range v {
			sum += x
		}
		return sum, nil
	})
	for i, o := range out {
		if o.Err != nil {
			t.Fatalf("cell %d: %v", i, o.Err)
		}
		want := (i % 9) * (63 * 64 / 2)
		if o.Value != want {
			t.Errorf("cell %d = %d, want %d", i, o.Value, want)
		}
	}
	if c.Len() != 9 {
		t.Errorf("cache keys = %d, want 9", c.Len())
	}
}
