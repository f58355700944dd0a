// Package compress shrinks program trees (§VI-B of the paper).
//
// Interval profiling records every loop iteration as a separate Task node,
// so a program tree can become enormous (the paper reports 13.5 GB for NPB
// CG before compression). Two techniques are applied, mirroring the paper:
//
//  1. Run-length encoding: consecutive sibling subtrees whose structure is
//     identical and whose leaf lengths agree within a relative tolerance
//     (the paper uses 5%) are merged into one node with Repeat set to the
//     run length. Leaf lengths of merged runs are length-preserving
//     weighted averages, so the tree's TotalLen is (almost) unchanged.
//  2. Dictionary sharing: identical non-adjacent subtrees are replaced by
//     pointers to a single representative, so each distinct shape is stored
//     once. Consumers treat trees as immutable, which makes the sharing
//     safe.
//
// The paper keeps a lossy fallback as a "last resort" that its
// experiments never needed; neither do this reproduction's, so it is not
// implemented.
package compress

import (
	"fmt"
	"math"

	"prophet/internal/clock"
	"prophet/internal/tree"
)

// DefaultTolerance is the paper's 5% length-variation tolerance.
const DefaultTolerance = 0.05

// Stats reports the effect of one Compress call.
type Stats struct {
	// NodesBefore / NodesAfter are unique (stored) node counts.
	NodesBefore, NodesAfter int64
	// LogicalNodes is the fully expanded node count (unchanged by
	// compression).
	LogicalNodes int64
	// BytesBefore / BytesAfter estimate the in-memory footprint.
	BytesBefore, BytesAfter int64
}

// Reduction returns the fractional node-count reduction, e.g. 0.93 for the
// paper's 93% CG result.
func (s Stats) Reduction() float64 {
	if s.NodesBefore == 0 {
		return 0
	}
	return 1 - float64(s.NodesAfter)/float64(s.NodesBefore)
}

func (s Stats) String() string {
	return fmt.Sprintf("nodes %d -> %d (%.1f%% reduction, logical %d), bytes %d -> %d",
		s.NodesBefore, s.NodesAfter, 100*s.Reduction(), s.LogicalNodes, s.BytesBefore, s.BytesAfter)
}

// Compress compresses the tree rooted at root in place and returns stats.
// tol is the relative leaf-length tolerance for considering two subtrees
// "the same": DefaultTolerance is the paper's, zero means exact and a
// negative tol disables run merging.
//
// root must share no nodes, as a freshly profiled tree does: its stored
// node count, NodesBefore, is then the physical count NodeCount returns,
// with no identity walk over the raw tree.
func Compress(root *tree.Node, tol float64) Stats {
	var st Stats
	st.NodesBefore, st.LogicalNodes = root.NodeCount()
	st.BytesBefore = root.ApproxBytes()

	// nodes is the unique count of the tree as it stands; each pass
	// recounts once, after it has changed the tree. Dictionary sharing
	// can turn near-equal siblings into equal pointers, enabling further
	// RLE merges; iterate to a fixpoint (bounded — each pass strictly
	// reduces node count).
	nodes := st.NodesBefore
	for i := 0; i < 8; i++ {
		before := nodes
		rle(root, tol)
		dedupe(root, tol)
		if nodes = uniqueNodes(root); nodes == before {
			break
		}
	}
	st.NodesAfter = nodes
	st.BytesAfter = int64(float64(st.BytesBefore) * float64(st.NodesAfter) / float64(max(st.NodesBefore, 1)))
	return st
}

// rle merges runs of equivalent consecutive siblings, recursively,
// bottom-up.
func rle(n *tree.Node, tol float64) {
	for _, c := range n.Children {
		rle(c, tol)
	}
	if tol < 0 || len(n.Children) < 2 {
		return
	}
	out := n.Children[:0]
	i := 0
	for i < len(n.Children) {
		run := n.Children[i]
		j := i + 1
		for j < len(n.Children) && tree.Equal(run, n.Children[j], tol) {
			j++
		}
		if j > i+1 {
			merged := unshared(run)
			weight := merged.Reps()
			for k := i + 1; k < j; k++ {
				mergeInto(merged, n.Children[k], weight, n.Children[k].Reps())
				weight += n.Children[k].Reps()
			}
			merged.Repeat = weight
			out = append(out, merged)
		} else {
			out = append(out, run)
		}
		i = j
	}
	n.Children = out
}

// unshared returns a copy of n's subtree in which no node is reached
// twice. rle cannot use tree.Node.Clone, which keeps sharing: mergeInto
// averages each run member into the representative position by position,
// and a node dedupe shared between two positions would be averaged twice.
// Counters and Burden stay shared with n, since mergeInto changes neither.
func unshared(n *tree.Node) *tree.Node {
	cp := *n
	cp.Children = make([]*tree.Node, len(n.Children))
	for i, c := range n.Children {
		cp.Children[i] = unshared(c)
	}
	return &cp
}

// mergeInto folds b's leaf lengths into a as a running weighted average, so
// the representative of a run keeps the mean length of its members. a and b
// are structurally equal (same shape), which rle guarantees.
func mergeInto(a, b *tree.Node, wa, wb int) {
	if a.Kind == tree.U || a.Kind == tree.L || a.Kind == tree.W {
		a.Len = clock.Cycles(math.Round((float64(a.Len)*float64(wa) + float64(b.Len)*float64(wb)) / float64(wa+wb)))
		a.Mem.Instructions = weightedAvg(a.Mem.Instructions, b.Mem.Instructions, wa, wb)
		a.Mem.LLCMisses = weightedAvg(a.Mem.LLCMisses, b.Mem.LLCMisses, wa, wb)
	}
	for i := range a.Children {
		if i < len(b.Children) {
			mergeInto(a.Children[i], b.Children[i], wa, wb)
		}
	}
}

func weightedAvg(a, b int64, wa, wb int) int64 {
	return int64(math.Round((float64(a)*float64(wa) + float64(b)*float64(wb)) / float64(wa+wb)))
}

// dedupe shares identical subtrees through a structural-hash dictionary.
// Two subtrees are shared only when tree.Equal within tol; the hash buckets
// candidates (quantized lengths) and Equal confirms. visit returns each
// node's hash, folded bottom-up from its own fields and its children's
// hashes, so every node is hashed once rather than once per ancestor. A
// child swapped for its candidate keeps its hash: both sit in one bucket.
func dedupe(n *tree.Node, tol float64) {
	dict := make(map[uint64][]*tree.Node)
	var visit func(node *tree.Node) uint64
	visit = func(node *tree.Node) uint64 {
		h := fnvMix(fnvOffset, fieldWord(node, tol))
		for i, c := range node.Children {
			ch := visit(c)
			found := false
			for _, cand := range dict[ch] {
				// No bucket entry is Equal to a later one, so meeting c
				// itself (a shared node seen again) ends the scan.
				if found = cand == c || tree.Equal(cand, c, tol); found {
					node.Children[i] = cand
					break
				}
			}
			if !found {
				dict[ch] = append(dict[ch], c)
			}
			h = fnvMix(h, ch)
		}
		return (h ^ 0xFF) * fnvPrime
	}
	visit(n)
}

// fieldWord packs the node fields the structural hash covers. Leaf lengths
// are quantized by the tolerance so near-equal subtrees collide and Equal
// can confirm.
func fieldWord(node *tree.Node, tol float64) uint64 {
	q := int64(node.Len)
	if tol > 0 && node.Len > 0 {
		// Quantize to log-scale buckets of width ~tol.
		q = int64(math.Log(float64(node.Len)) / tol / 2)
	}
	w := uint64(byte(node.Kind)) | uint64(byte(node.Reps()))<<8 | uint64(byte(node.LockID))<<16 | uint64(uint32(q))<<32
	if node.NoWait {
		w |= 1 << 24
	}
	return w
}

const fnvOffset, fnvPrime = 14695981039346656037, 1099511628211

// fnvMix folds the eight little-endian bytes of v into the FNV-1a hash h.
func fnvMix(h, v uint64) uint64 {
	for i := 0; i < 64; i += 8 {
		h = (h ^ (v >> i & 0xFF)) * fnvPrime
	}
	return h
}

// uniqueNodes counts distinct stored nodes (shared subtrees counted once).
func uniqueNodes(root *tree.Node) int64 {
	seen := make(map[*tree.Node]struct{})
	var visit func(n *tree.Node)
	visit = func(n *tree.Node) {
		// The insert leaves len unchanged exactly when n was seen.
		l := len(seen)
		if seen[n] = struct{}{}; len(seen) == l {
			return
		}
		for _, c := range n.Children {
			visit(c)
		}
	}
	visit(root)
	return int64(len(seen))
}
