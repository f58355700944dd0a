package compress

import (
	"math/rand"
	"testing"

	"prophet/internal/clock"
	"prophet/internal/tree"
)

// randomTree builds a random valid program tree with locks and nested
// sections for property testing.
func randomTree(rng *rand.Rand, nTasks, maxDepth int) *tree.Node {
	var buildTask func(depth int) *tree.Node
	buildTask = func(depth int) *tree.Node {
		task := tree.NewTask("t")
		nSegs := 1 + rng.Intn(3)
		for s := 0; s < nSegs; s++ {
			switch {
			case depth > 0 && rng.Intn(4) == 0:
				inner := tree.NewSec("in")
				for k := 0; k < 1+rng.Intn(3); k++ {
					inner.Children = append(inner.Children, buildTask(depth-1))
				}
				task.Children = append(task.Children, inner)
			case rng.Intn(3) == 0:
				task.Children = append(task.Children, tree.NewL(1+rng.Intn(2), clock.Cycles(100+rng.Intn(200))))
			default:
				task.Children = append(task.Children, tree.NewU(clock.Cycles(100+rng.Intn(200))))
			}
		}
		return task
	}
	sec := tree.NewSec("s")
	for i := 0; i < nTasks; i++ {
		sec.Children = append(sec.Children, buildTask(maxDepth))
	}
	return tree.NewRoot(sec)
}

// TestCompressIdempotent: compressing twice changes nothing further.
func TestCompressIdempotent(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 10; trial++ {
		root := randomTree(rng, 30+rng.Intn(50), 2)
		Compress(root, DefaultTolerance)
		n1 := uniqueNodes(root)
		l1 := root.TotalLen()
		st2 := Compress(root, DefaultTolerance)
		if st2.NodesAfter != n1 {
			t.Fatalf("second pass changed nodes: %d -> %d", n1, st2.NodesAfter)
		}
		if root.TotalLen() != l1 {
			t.Fatalf("second pass changed length: %d -> %d", l1, root.TotalLen())
		}
	}
}

// TestCompressPreservesValidityAndLength on random lock/nested trees.
func TestCompressPreservesValidityAndLength(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		root := randomTree(rng, 20+rng.Intn(80), 2)
		before := root.TotalLen()
		_, logicalBefore := root.NodeCount()
		Compress(root, DefaultTolerance)
		if err := root.Validate(); err != nil {
			t.Fatalf("trial %d: invalid after compress: %v", trial, err)
		}
		_, logicalAfter := root.NodeCount()
		if logicalAfter != logicalBefore {
			t.Fatalf("trial %d: logical nodes %d -> %d", trial, logicalBefore, logicalAfter)
		}
		diff := float64(root.TotalLen() - before)
		if diff < 0 {
			diff = -diff
		}
		if diff > DefaultTolerance*float64(before)+100 {
			t.Fatalf("trial %d: length drift %d -> %d", trial, before, root.TotalLen())
		}
	}
}

// TestLockNodesNeverMergeAcrossIDs: L nodes with different lock ids are
// semantically different and must not be merged even within tolerance.
func TestLockNodesNeverMergeAcrossIDs(t *testing.T) {
	sec := tree.NewSec("s",
		tree.NewTask("a", tree.NewL(1, 100)),
		tree.NewTask("b", tree.NewL(2, 100)),
		tree.NewTask("c", tree.NewL(1, 100)),
	)
	root := tree.NewRoot(sec)
	Compress(root, 0.5)
	// Tasks a and b must stay separate (different lock).
	if len(sec.Children) < 2 {
		t.Fatalf("lock ids merged: %s", root)
	}
	ids := map[int]bool{}
	root.Walk(func(n *tree.Node) bool {
		if n.Kind == tree.L {
			ids[n.LockID] = true
		}
		return true
	})
	if !ids[1] || !ids[2] {
		t.Fatalf("lock ids lost: %v", ids)
	}
}

// TestDictionaryShareStability: dedup must not create cycles or break
// Walk (shared nodes appear once per reference).
func TestDictionaryShareStability(t *testing.T) {
	tasks := make([]*tree.Node, 40)
	for i := range tasks {
		tasks[i] = tree.NewTask("t", tree.NewU(clock.Cycles(100+(i%2)*50)))
	}
	root := tree.NewRoot(tree.NewSec("s", tasks...))
	Compress(root, 0)
	visits := 0
	root.Walk(func(n *tree.Node) bool {
		visits++
		if visits > 100_000 {
			t.Fatal("walk did not terminate (cycle?)")
		}
		return true
	})
	if err := root.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestCloneKeepsSharing: tree.Node.Clone copies a compressed tree's shared
// nodes once each, so the clone has the original's distinct node count,
// is structurally equal to it, and shares no node with it.
func TestCloneKeepsSharing(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 10; trial++ {
		root := randomTree(rng, 30+rng.Intn(50), 2)
		Compress(root, DefaultTolerance)
		cp := root.Clone()
		if got, want := uniqueNodes(cp), uniqueNodes(root); got != want {
			t.Fatalf("trial %d: clone has %d distinct nodes, original %d", trial, got, want)
		}
		if !tree.Equal(cp, root, 0) {
			t.Fatalf("trial %d: clone not structurally equal to the original", trial)
		}
		orig := map[*tree.Node]bool{}
		root.Walk(func(n *tree.Node) bool { orig[n] = true; return true })
		cp.Walk(func(n *tree.Node) bool {
			if orig[n] {
				t.Fatalf("trial %d: clone shares node %p with the original", trial, n)
			}
			return true
		})
	}
}
