package eventq

import (
	"math/rand"
	"sort"
	"testing"
)

// item is one queued element as the tests see it: the key both engine
// heaps use — time the priority, seq the tie-break that makes pop order
// deterministic — and a payload derived from the element's identity, so a
// test sees a payload that strays from its key.
type item struct {
	k Key
	v uint64
}

func payload(seq uint64) uint64 { return seq*7 + 3 }

func mk(at int64, seq uint64) item { return item{Key{At: at, Seq: seq}, payload(seq)} }

func sortedCopy(items []item) []item {
	out := append([]item(nil), items...)
	sort.Slice(out, func(i, j int) bool { return before(out[i].k, out[j].k) })
	return out
}

func pop(h *Heap[uint64]) item {
	k, v := h.Pop()
	return item{k, v}
}

func drain(h *Heap[uint64]) []item {
	var out []item
	for h.Len() > 0 {
		out = append(out, pop(h))
	}
	return out
}

// TestPopOrderIsSortedOrder is the heap's core property: popping
// everything yields exactly the slice-sorted order, including seq
// tie-breaks among equal times, with each payload still on its key.
func TestPopOrderIsSortedOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(64)
		items := make([]item, n)
		for i := range items {
			// Small time range forces many ties so the seq
			// tie-break is actually exercised.
			items[i] = mk(int64(rng.Intn(8)), uint64(i))
		}
		var h Heap[uint64]
		for _, it := range items {
			h.Push(it.k, it.v)
		}
		got := drain(&h)
		want := sortedCopy(items)
		if len(got) != len(want) {
			t.Fatalf("trial %d: drained %d items, want %d", trial, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d: pop[%d] = %v, want %v", trial, i, got[i], want[i])
			}
		}
	}
}

// TestBulkLoadInit checks the Append+Init bulk-load path against Push.
func TestBulkLoadInit(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	items := make([]item, 100)
	for i := range items {
		items[i] = mk(int64(rng.Intn(10)), uint64(i))
	}
	var h Heap[uint64]
	for _, it := range items {
		h.Append(it.k, it.v)
	}
	h.Init()
	got := drain(&h)
	want := sortedCopy(items)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("pop[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

// TestFixTop mirrors the ff emulator's use (container/heap's Fix(h, 0)):
// advance the minimum's time with UpdateTop, and expect the front element
// to be the global minimum of the live keys at every step.
func TestFixTop(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var h Heap[uint64]
	live := make(map[uint64]int64)
	for i := 0; i < 32; i++ {
		it := mk(int64(rng.Intn(50)), uint64(i))
		h.Push(it.k, it.v)
		live[it.k.Seq] = it.k.At
	}
	for step := 0; step < 500 && h.Len() > 0; step++ {
		k, v := h.Peek()
		if want := live[k.Seq]; k.At != want {
			t.Fatalf("step %d: peeked stale element %v, want time %d", step, k, want)
		}
		if v != payload(k.Seq) {
			t.Fatalf("step %d: top %v carries payload %d, want %d", step, k, v, payload(k.Seq))
		}
		// The front element must be the global minimum.
		for seq, tm := range live {
			if tm < k.At || (tm == k.At && seq < k.Seq) {
				t.Fatalf("step %d: top %v but live (%d,%d) sorts earlier", step, k, tm, seq)
			}
		}
		if rng.Intn(4) == 0 {
			h.Pop()
			delete(live, k.Seq)
			continue
		}
		adv := Key{At: k.At + int64(rng.Intn(20)), Seq: k.Seq}
		h.UpdateTop(adv)
		live[adv.Seq] = adv.At
	}
}

// TestResetKeepsCapacity pins the pooled-owner contract: after Reset the
// backing array is reused, so a warm heap pushes without allocating.
func TestResetKeepsCapacity(t *testing.T) {
	var h Heap[uint64]
	for i := 0; i < 256; i++ {
		h.Push(Key{At: int64(i % 7), Seq: uint64(i)}, uint64(i))
	}
	c := cap(h.s)
	h.Reset()
	if h.Len() != 0 {
		t.Fatalf("Len after Reset = %d", h.Len())
	}
	if cap(h.s) != c {
		t.Fatalf("Reset dropped capacity: %d -> %d", c, cap(h.s))
	}
	allocs := testing.AllocsPerRun(10, func() {
		h.Reset()
		for i := 0; i < 256; i++ {
			h.Push(Key{At: int64(i % 7), Seq: uint64(i)}, uint64(i))
		}
	})
	if allocs != 0 {
		t.Fatalf("warm push allocates %.1f allocs/run, want 0", allocs)
	}
}

// refHeap is the sort-based reference the differential tests replay
// against: a plain slice, minimum found by linear scan.
type refHeap []item

func (r refHeap) min() int {
	m := 0
	for k := 1; k < len(r); k++ {
		if before(r[k].k, r[m].k) {
			m = k
		}
	}
	return m
}

func (r *refHeap) pop() item {
	m := r.min()
	it := (*r)[m]
	*r = append((*r)[:m], (*r)[m+1:]...)
	return it
}

// TestDifferentialAgainstSortedReference runs seeded interleavings of
// Push, Pop and UpdateTop against the reference. Times come from a range
// of four, so most comparisons tie on At and Seq decides the order; an
// update keeps the element's Seq, as the ff emulator keeps a worker's
// rank.
func TestDifferentialAgainstSortedReference(t *testing.T) {
	for seed := int64(1); seed <= 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var h Heap[uint64]
		var ref refHeap
		var seq uint64
		for op := 0; op < 2000; op++ {
			if h.Len() != len(ref) {
				t.Fatalf("seed %d op %d: Len %d, reference %d", seed, op, h.Len(), len(ref))
			}
			switch r := rng.Intn(10); {
			case r < 4 || len(ref) == 0:
				it := mk(int64(rng.Intn(4)), seq)
				seq++
				h.Push(it.k, it.v)
				ref = append(ref, it)
			case r < 7:
				got, want := pop(&h), ref.pop()
				if got != want {
					t.Fatalf("seed %d op %d: Pop = %v, reference %v", seed, op, got, want)
				}
			default:
				k, v := h.Peek()
				m := ref.min()
				if got := (item{k, v}); got != ref[m] {
					t.Fatalf("seed %d op %d: Peek = %v, reference %v", seed, op, got, ref[m])
				}
				k.At += int64(rng.Intn(3))
				h.UpdateTop(k)
				ref[m].k = k
			}
		}
		for len(ref) > 0 {
			if got, want := pop(&h), ref.pop(); got != want {
				t.Fatalf("seed %d drain: Pop = %v, reference %v", seed, got, want)
			}
		}
		if h.Len() != 0 {
			t.Fatalf("seed %d: %d elements left after the reference drained", seed, h.Len())
		}
	}
}

// FuzzHeapPopOrder mirrors the tree fuzzers: arbitrary byte-derived
// workloads of pushes and pops must pop exactly what the sort-based
// reference pops, with stable seq tie-breaks.
func FuzzHeapPopOrder(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Add([]byte{0, 0, 0, 0, 0})
	f.Add([]byte{255, 1, 255, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		var h Heap[uint64]
		var seq uint64
		var pending []item
		var popped []item
		for _, b := range data {
			if b&0x80 != 0 && h.Len() > 0 {
				popped = append(popped, pop(&h))
				continue
			}
			it := mk(int64(b&0x7f), seq)
			seq++
			h.Push(it.k, it.v)
			pending = append(pending, it)
		}
		popped = append(popped, drain(&h)...)
		if len(popped) != len(pending) {
			t.Fatalf("popped %d of %d pushed", len(popped), len(pending))
		}
		// Every element must come out exactly once; the final drain
		// must be sorted (interleaved pops may legitimately emit an
		// element before a later, smaller push).
		seen := make(map[uint64]bool, len(popped))
		for _, it := range popped {
			if seen[it.k.Seq] {
				t.Fatalf("element %v popped twice", it)
			}
			seen[it.k.Seq] = true
		}
		// Replay the same operations against the sort-based reference:
		// at each pop, the reference removes its current minimum; the
		// heap must agree.
		var ref refHeap
		seq = 0
		var refPopped []item
		for _, b := range data {
			if b&0x80 != 0 && len(ref) > 0 {
				refPopped = append(refPopped, ref.pop())
				continue
			}
			ref = append(ref, mk(int64(b&0x7f), seq))
			seq++
		}
		refPopped = append(refPopped, sortedCopy(ref)...)
		for i := range refPopped {
			if popped[i] != refPopped[i] {
				t.Fatalf("op %d: heap popped %v, reference %v", i, popped[i], refPopped[i])
			}
		}
	})
}
