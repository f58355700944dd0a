// Package eventq provides the binary min-heap shared by the
// discrete-event simulator (internal/sim) and the fast-forwarding emulator
// (internal/ff).
//
// Every element is ordered by a concrete Key — a time and a sequence
// number that breaks ties — and carries a payload of any type. The heap
// compares keys itself, in plain code on a concrete struct, so the compare
// inlines into the sift loops. An element-supplied comparison method would
// not: a generic method call goes through the instantiation's dictionary
// and is a real call per comparison, which is what the engines' event
// loops paid before.
//
// Elements are stored inline in a flat slice, so a Push does not box or
// allocate once capacity is warm, and the backing array is retained across
// Reset calls: a pooled owner (a recycled sim.Machine, an ff emulation
// scratch) reaches a steady state of zero allocations per run. A payload
// without pointers leaves the whole backing array pointer-free, so the
// sifts need no GC write barriers and the collector does not scan it.
//
// Ordering contract: callers give every queued element a distinct key
// (sim and ff both carry a sequence number or rank in Seq); the heap
// itself is not stable.
package eventq

// Key is an element's priority: At first, then Seq.
type Key struct {
	At  int64
	Seq uint64
}

// before reports whether a sorts strictly before b.
func before(a, b Key) bool {
	return a.At < b.At || (a.At == b.At && a.Seq < b.Seq)
}

type entry[T any] struct {
	key Key
	val T
}

// Heap is a binary min-heap of T payloads ordered by Key. The zero value
// is an empty heap ready for use.
type Heap[T any] struct {
	s []entry[T]
}

// Len returns the number of queued elements.
func (h *Heap[T]) Len() int { return len(h.s) }

// Reset empties the heap, retaining the backing array for reuse. Elements
// are zeroed so pooled heaps do not pin pointers from previous runs.
func (h *Heap[T]) Reset() {
	clear(h.s)
	h.s = h.s[:0]
}

// Grow ensures capacity for at least n total elements.
func (h *Heap[T]) Grow(n int) {
	if cap(h.s) < n {
		s := make([]entry[T], len(h.s), n)
		copy(s, h.s)
		h.s = s
	}
}

// Push inserts v at key k.
func (h *Heap[T]) Push(k Key, v T) {
	h.s = append(h.s, entry[T]{k, v})
	h.up(len(h.s) - 1)
}

// Peek returns the minimum element without removing it. It panics on an
// empty heap, like indexing an empty slice.
func (h *Heap[T]) Peek() (Key, T) { return h.s[0].key, h.s[0].val }

// Pop removes and returns the minimum element. It panics on an empty heap.
func (h *Heap[T]) Pop() (Key, T) {
	top := h.s[0]
	n := len(h.s) - 1
	h.s[0] = h.s[n]
	h.s[n] = entry[T]{} // do not pin pointers held by popped elements
	h.s = h.s[:n]
	if n > 0 {
		h.down(0)
	}
	return top.key, top.val
}

// UpdateTop gives the minimum element the key k, keeping its payload, and
// restores the heap order (container/heap's Fix(h, 0) after a change of
// priority: the ff emulator advances the front worker's clock this way).
func (h *Heap[T]) UpdateTop(k Key) {
	h.s[0].key = k
	if len(h.s) > 1 {
		h.down(0)
	}
}

// Init heapifies the current contents in O(n); used after bulk-loading the
// backing slice through Append.
func (h *Heap[T]) Init() {
	for i := len(h.s)/2 - 1; i >= 0; i-- {
		h.down(i)
	}
}

// Append adds v at key k without restoring heap order; call Init once
// after the last Append. This is the O(n) bulk-load path.
func (h *Heap[T]) Append(k Key, v T) { h.s = append(h.s, entry[T]{k, v}) }

// up and down move the displaced element once, into the hole its
// ancestors or descendants leave, instead of swapping it level by level:
// the same comparisons and the same final array, with half the writes.
func (h *Heap[T]) up(i int) {
	s := h.s
	x := s[i]
	for i > 0 {
		parent := (i - 1) / 2
		if !before(x.key, s[parent].key) {
			break
		}
		s[i] = s[parent]
		i = parent
	}
	s[i] = x
}

func (h *Heap[T]) down(i int) {
	s := h.s
	n := len(s)
	x := s[i]
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		min := l
		if r := l + 1; r < n && before(s[r].key, s[l].key) {
			min = r
		}
		if !before(s[min].key, x.key) {
			break
		}
		s[i] = s[min]
		i = min
	}
	s[i] = x
}
