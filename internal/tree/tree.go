// Package tree implements the program tree produced by interval profiling
// (§IV-B of the paper, Fig. 4).
//
// A program tree records the dynamic execution trace of the parallel sections
// of an annotated serial program. Node kinds follow the paper exactly:
//
//	Root — holds the list of top-level parallel sections and top-level
//	       serial computations.
//	Sec  — a parallel section (a container whose Task children may run in
//	       parallel); carries an implicit barrier unless NoWait is set.
//	Task — a parallel task (e.g. one loop iteration); its children execute
//	       sequentially within the task.
//	U    — a computation performed without holding a lock.
//	L    — a computation performed while holding a lock.
//	W    — an I/O wait (extension; see the Kind constants).
//
// Each node that stands for a run of identical siblings carries Repeat > 1
// (the RLE form produced by package compress); every consumer in this repo
// understands Repeat, so compressed trees can be emulated without expansion.
package tree

import (
	"errors"
	"fmt"
	"strings"

	"prophet/internal/clock"
	"prophet/internal/counters"
)

// Kind identifies the role of a node in the program tree.
type Kind uint8

// Node kinds, in the paper's vocabulary.
const (
	Root Kind = iota
	Sec
	Task
	U
	L
	// W is an I/O wait: time during which the task blocks without
	// occupying a CPU. The paper lists I/O in annotated regions as a
	// limitation (§VIII); this reproduction models it as an extension.
	// The machine-backed emulators overlap W time with other threads'
	// computation under the real core limit; the FF, with no machine
	// model, simply charges W like computation on the worker's clock
	// (accurate without oversubscription, optimistic with it).
	W
)

// String returns the paper's one-letter/word name for the kind.
func (k Kind) String() string {
	switch k {
	case Root:
		return "Root"
	case Sec:
		return "Sec"
	case Task:
		return "Task"
	case U:
		return "U"
	case L:
		return "L"
	case W:
		return "W"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// MemTraits carries the per-node memory behaviour observed while profiling on
// the simulated machine. It exists only so the ground-truth runner can
// replay the exact memory behaviour; the predictors never read it (they see
// only the per-top-level-section counter aggregates, as the paper's tool
// does).
type MemTraits struct {
	Instructions int64
	LLCMisses    int64
}

// Add accumulates o into m.
func (m *MemTraits) Add(o MemTraits) {
	m.Instructions += o.Instructions
	m.LLCMisses += o.LLCMisses
}

// Node is one node of a program tree.
type Node struct {
	Kind Kind
	// Name is the annotation name (sections and tasks).
	Name string
	// Len is the measured computation length in cycles for U and L nodes.
	// Container nodes (Root/Sec/Task) keep Len zero; use TotalLen.
	Len clock.Cycles
	// LockID identifies the mutex an L node holds.
	LockID int
	// NoWait suppresses the implicit barrier at the end of a Sec
	// (OpenMP's nowait).
	NoWait bool
	// Repeat is the run length: this node stands for Repeat consecutive
	// identical siblings. Zero is treated as one.
	Repeat int
	// Children are the node's ordered children.
	Children []*Node
	// Mem is the ground-truth memory behaviour of a U or L node.
	Mem MemTraits
	// Counters holds the per-section hardware-counter sample for
	// top-level Sec nodes (nil elsewhere).
	Counters *counters.Sample
	// Burden maps a thread count to the burden factor β_t computed by the
	// memory model for top-level Sec nodes (nil until assigned).
	Burden map[int]float64
}

// Reps returns the effective repeat count (at least 1).
func (n *Node) Reps() int {
	if n.Repeat < 1 {
		return 1
	}
	return n.Repeat
}

// BurdenFor returns the burden factor for t threads, defaulting to 1 when the
// memory model has not assigned one.
func (n *Node) BurdenFor(t int) float64 {
	if n == nil || n.Burden == nil {
		return 1
	}
	if b, ok := n.Burden[t]; ok && b >= 1 {
		return b
	}
	return 1
}

// TotalLen returns the serial length of the subtree in cycles: the sum of all
// U/L lengths below (and including) n, honouring Repeat counts.
func (n *Node) TotalLen() clock.Cycles {
	var sum clock.Cycles
	switch n.Kind {
	case U, L, W:
		sum = n.Len
	default:
		for _, c := range n.Children {
			sum += c.TotalLen()
		}
	}
	return sum * clock.Cycles(n.Reps())
}

// NodeCount returns (physical, logical) node counts: physical counts stored
// nodes; logical expands Repeat runs, i.e. the size the tree would have had
// without compression.
func (n *Node) NodeCount() (physical, logical int64) {
	physical = 1
	logical = 1
	for _, c := range n.Children {
		p, l := c.NodeCount()
		physical += p
		logical += l
	}
	logical *= int64(n.Reps())
	return physical, logical
}

// Tasks returns the logical number of Task children of a Sec node, expanding
// Repeat runs.
func (n *Node) Tasks() int {
	total := 0
	for _, c := range n.Children {
		if c.Kind == Task {
			total += c.Reps()
		}
	}
	return total
}

// Walk calls fn for every physical node in depth-first pre-order. If fn
// returns false the node's children are skipped.
func (n *Node) Walk(fn func(*Node) bool) {
	if !fn(n) {
		return
	}
	for _, c := range n.Children {
		c.Walk(fn)
	}
}

// TopLevelSections returns the Sec children of a Root node in order.
func (n *Node) TopLevelSections() []*Node {
	var secs []*Node
	for _, c := range n.Children {
		if c.Kind == Sec {
			secs = append(secs, c)
		}
	}
	return secs
}

// SerialOutsideSections returns the total length of the Root's top-level U
// nodes (serial computation outside any parallel section). This is ΣLength(Uᵢ)
// in the paper's overall-speedup formula (§IV-E).
func (n *Node) SerialOutsideSections() clock.Cycles {
	var sum clock.Cycles
	for _, c := range n.Children {
		if c.Kind == U {
			sum += c.Len * clock.Cycles(c.Reps())
		}
	}
	return sum
}

// Clone returns a deep copy of the subtree that keeps its sharing: a node
// reached through several parents (compression's dictionary pass shares
// identical subtrees) is copied once, and every parent copy points at that
// one copy, so the clone has as many distinct nodes as the original.
func (n *Node) Clone() *Node { return n.clone(map[*Node]*Node{}) }

func (n *Node) clone(copies map[*Node]*Node) *Node {
	if cp, ok := copies[n]; ok {
		return cp
	}
	cp := *n
	copies[n] = &cp
	if n.Counters != nil {
		s := *n.Counters
		cp.Counters = &s
	}
	if n.Burden != nil {
		cp.Burden = make(map[int]float64, len(n.Burden))
		for k, v := range n.Burden {
			cp.Burden[k] = v
		}
	}
	cp.Children = make([]*Node, len(n.Children))
	for i, c := range n.Children {
		cp.Children[i] = c.clone(copies)
	}
	return &cp
}

// ErrMalformed is the family sentinel for structural tree errors: every
// error Validate returns wraps it, so callers can errors.Is against one
// value without enumerating the specific invariant violated.
var ErrMalformed = errors.New("tree: malformed program tree")

// Errors reported by Validate; each wraps ErrMalformed.
var (
	ErrBadChild  = fmt.Errorf("%w: node kind not allowed under parent", ErrMalformed)
	ErrLeafChild = fmt.Errorf("%w: U/L nodes must be leaves", ErrMalformed)
	ErrNegLen    = fmt.Errorf("%w: negative node length", ErrMalformed)
)

// Validate checks the structural invariants of a program tree rooted at a
// Root node:
//
//   - Root children are Sec or U nodes.
//   - Sec children are Task nodes.
//   - Task children are U, L or Sec nodes.
//   - U and L nodes are leaves with non-negative lengths.
func (n *Node) Validate() error {
	if n.Kind != Root {
		return fmt.Errorf("%w: Validate called on %v node, want Root", ErrMalformed, n.Kind)
	}
	return n.validate(nil)
}

func (n *Node) validate(parent *Node) error {
	switch n.Kind {
	case U, L, W:
		if len(n.Children) != 0 {
			return fmt.Errorf("%w: %v %q has %d children", ErrLeafChild, n.Kind, n.Name, len(n.Children))
		}
		if n.Len < 0 {
			return fmt.Errorf("%w: %v %q len %d", ErrNegLen, n.Kind, n.Name, n.Len)
		}
	}
	if parent != nil && !allowed(parent.Kind, n.Kind) {
		return fmt.Errorf("%w: %v under %v (node %q)", ErrBadChild, n.Kind, parent.Kind, n.Name)
	}
	for _, c := range n.Children {
		if err := c.validate(n); err != nil {
			return err
		}
	}
	return nil
}

func allowed(parent, child Kind) bool {
	switch parent {
	case Root:
		return child == Sec || child == U
	case Sec:
		return child == Task
	case Task:
		return child == U || child == L || child == Sec || child == W
	default:
		return false
	}
}

// Equal reports whether two subtrees are structurally identical, with U/L
// lengths compared within a relative tolerance tol (0 means exact). Repeat
// counts, kinds, lock IDs and NoWait flags must match exactly; names,
// counters and burden maps are ignored (they do not affect emulation).
func Equal(a, b *Node, tol float64) bool {
	if a == nil || b == nil {
		return a == b
	}
	if a.Kind != b.Kind || a.Reps() != b.Reps() || a.LockID != b.LockID || a.NoWait != b.NoWait {
		return false
	}
	if (a.Kind == U || a.Kind == L || a.Kind == W) && !withinTol(a.Len, b.Len, tol) {
		return false
	}
	if len(a.Children) != len(b.Children) {
		return false
	}
	for i := range a.Children {
		if !Equal(a.Children[i], b.Children[i], tol) {
			return false
		}
	}
	return true
}

func withinTol(a, b clock.Cycles, tol float64) bool {
	if a == b {
		return true
	}
	if tol <= 0 {
		return false
	}
	d := float64(a - b)
	if d < 0 {
		d = -d
	}
	m := float64(a)
	if float64(b) > m {
		m = float64(b)
	}
	return d <= tol*m
}

// String renders the subtree in a compact indented form (useful in tests and
// error messages; Fig. 4 of the paper rendered as text).
func (n *Node) String() string {
	var b strings.Builder
	n.dump(&b, 0)
	return b.String()
}

func (n *Node) dump(b *strings.Builder, depth int) {
	b.WriteString(strings.Repeat("  ", depth))
	switch n.Kind {
	case U, L, W:
		fmt.Fprintf(b, "%v %d", n.Kind, n.Len)
		if n.Kind == L {
			fmt.Fprintf(b, " lock=%d", n.LockID)
		}
	default:
		fmt.Fprintf(b, "%v", n.Kind)
		if n.Name != "" {
			fmt.Fprintf(b, " %q", n.Name)
		}
		fmt.Fprintf(b, " total=%d", n.TotalLen())
	}
	if n.Reps() > 1 {
		fmt.Fprintf(b, " x%d", n.Reps())
	}
	b.WriteByte('\n')
	for _, c := range n.Children {
		c.dump(b, depth+1)
	}
}

// Convenience constructors used by tests, generators and documentation
// examples. They keep composite-literal noise out of call sites.

// NewRoot returns a Root node with the given children.
func NewRoot(children ...*Node) *Node {
	return &Node{Kind: Root, Children: children}
}

// NewSec returns a Sec node named name with the given Task children.
func NewSec(name string, children ...*Node) *Node {
	return &Node{Kind: Sec, Name: name, Children: children}
}

// NewTask returns a Task node named name with the given children.
func NewTask(name string, children ...*Node) *Node {
	return &Node{Kind: Task, Name: name, Children: children}
}

// NewU returns a U (unlocked computation) leaf of the given length.
func NewU(len clock.Cycles) *Node {
	return &Node{Kind: U, Len: len}
}

// NewL returns an L (locked computation) leaf of the given length holding
// lockID.
func NewL(lockID int, len clock.Cycles) *Node {
	return &Node{Kind: L, Len: len, LockID: lockID}
}
