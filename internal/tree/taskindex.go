package tree

// TaskIndex maps a section's logical task numbers — its Task children with
// Repeat runs expanded — onto the Task nodes, without expanding the tree.
// Children that are not Tasks are skipped.
type TaskIndex struct {
	sec *Node
	cum []int // cum[k] = logical tasks before sec.Children[k]
	n   int
}

// NewTaskIndex indexes the Task children of sec.
func NewTaskIndex(sec *Node) TaskIndex {
	ix := TaskIndex{sec: sec, cum: make([]int, len(sec.Children))}
	for k, c := range sec.Children {
		ix.cum[k] = ix.n
		if c.Kind == Task {
			ix.n += c.Reps()
		}
	}
	return ix
}

// Len returns the number of logical tasks (Tasks() of the section).
func (ix TaskIndex) Len() int { return ix.n }

// At returns the Task node that runs logical task i, for 0 <= i < Len().
func (ix TaskIndex) At(i int) *Node {
	// Binary search for the last child k with cum[k] <= i. A non-Task
	// child adds no tasks, so the child after it has the same cum and
	// wins; the last child with cum[k] <= i < Len() is always a Task.
	lo, hi := 0, len(ix.cum)
	for hi-lo > 1 {
		mid := int(uint(lo+hi) >> 1)
		if ix.cum[mid] <= i {
			lo = mid
		} else {
			hi = mid
		}
	}
	return ix.sec.Children[lo]
}
