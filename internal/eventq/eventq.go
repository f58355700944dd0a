// Package eventq provides the monomorphic binary min-heap shared by the
// discrete-event simulator (internal/sim) and the fast-forwarding emulator
// (internal/ff).
//
// The standard container/heap forces every element through interface{}:
// each Push boxes the element (one heap allocation on the hot path) and
// every comparison goes through two interface method calls. For a DES that
// pushes one event per executed slice, that boxing dominated the engine's
// allocation profile. This heap is generic over the element type, so
// elements are stored inline in a flat slice — no boxing, no per-Push
// allocation once capacity is warm — and the sift routines are plain loops
// the compiler can inline.
//
// The backing array is retained across Reset calls, so a pooled owner (a
// recycled sim.Machine, an ff emulation scratch) reaches a steady state of
// zero allocations per run.
//
// Ordering contract: Less must be a strict weak ordering. Ties must be
// broken by the caller (sim and ff both carry a monotonic sequence number)
// — the heap itself is not stable.
package eventq

// Ordered constrains heap elements: x.Less(y) reports whether x sorts
// strictly before y.
type Ordered[T any] interface {
	Less(T) bool
}

// Heap is a binary min-heap over T. The zero value is an empty heap ready
// for use.
type Heap[T Ordered[T]] struct {
	s []T
}

// Len returns the number of queued elements.
func (h *Heap[T]) Len() int { return len(h.s) }

// Reset empties the heap, retaining the backing array for reuse. Elements
// are zeroed so pooled heaps do not pin pointers from previous runs.
func (h *Heap[T]) Reset() {
	var zero T
	for i := range h.s {
		h.s[i] = zero
	}
	h.s = h.s[:0]
}

// Grow ensures capacity for at least n total elements.
func (h *Heap[T]) Grow(n int) {
	if cap(h.s) < n {
		s := make([]T, len(h.s), n)
		copy(s, h.s)
		h.s = s
	}
}

// Push inserts x.
func (h *Heap[T]) Push(x T) {
	h.s = append(h.s, x)
	h.up(len(h.s) - 1)
}

// Peek returns the minimum element without removing it. It panics on an
// empty heap, like indexing an empty slice.
func (h *Heap[T]) Peek() T { return h.s[0] }

// Pop removes and returns the minimum element. It panics on an empty heap.
func (h *Heap[T]) Pop() T {
	top := h.s[0]
	n := len(h.s) - 1
	h.s[0] = h.s[n]
	var zero T
	h.s[n] = zero // do not pin pointers held by popped elements
	h.s = h.s[:n]
	if n > 0 {
		h.down(0)
	}
	return top
}

// FixTop restores the heap order after the caller mutated the minimum
// element in place (the ff emulator advances the front worker's clock and
// re-sifts it, container/heap's Fix(h, 0)).
func (h *Heap[T]) FixTop() {
	if len(h.s) > 1 {
		h.down(0)
	}
}

// Init heapifies the current contents in O(n); used after bulk-loading the
// backing slice through Push-without-order via Append.
func (h *Heap[T]) Init() {
	for i := len(h.s)/2 - 1; i >= 0; i-- {
		h.down(i)
	}
}

// Append adds x without restoring heap order; call Init once after the
// last Append. This is the O(n) bulk-load path.
func (h *Heap[T]) Append(x T) { h.s = append(h.s, x) }

// up and down move the displaced element once, into the hole its
// ancestors or descendants leave, instead of swapping it level by level:
// the same comparisons and the same final array, with half the writes.
func (h *Heap[T]) up(i int) {
	s := h.s
	x := s[i]
	for i > 0 {
		parent := (i - 1) / 2
		if !x.Less(s[parent]) {
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
		if r := l + 1; r < n && s[r].Less(s[l]) {
			min = r
		}
		if !s[min].Less(x) {
			break
		}
		s[i] = s[min]
		i = min
	}
	s[i] = x
}
