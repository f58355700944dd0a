package compress

import (
	"testing"

	"prophet/internal/clock"
	"prophet/internal/tree"
)

// buildFuzzTree decodes a byte string into a valid program tree: a Root
// holding sections of task runs whose U/L leaf lengths, lock IDs, run
// lengths and nesting come from the input bytes. The decoder only ever
// produces trees that pass Validate — the fuzz target probes compression
// itself, not tree construction.
func buildFuzzTree(data []byte) *tree.Node {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	nSecs := 1 + next()%4
	var secs []*tree.Node
	for s := 0; s < nSecs; s++ {
		nTasks := 1 + next()%32
		baseLen := 1 + next()*37
		jitter := next() % 16
		withLock := next()%3 == 0
		nested := next()%5 == 0
		var tasks []*tree.Node
		for i := 0; i < nTasks; i++ {
			l := clock.Cycles(baseLen + (i%(jitter+1))*next()%97)
			kids := []*tree.Node{tree.NewU(l)}
			if withLock {
				kids = append(kids, tree.NewL(1+next()%3, clock.Cycles(1+next())))
			}
			if nested {
				kids = append(kids, tree.NewSec("inner",
					tree.NewTask("it", tree.NewU(clock.Cycles(1+next()))),
					tree.NewTask("it", tree.NewU(clock.Cycles(1+next())))))
			}
			tasks = append(tasks, tree.NewTask("t", kids...))
		}
		secs = append(secs, tree.NewSec("loop", tasks...))
	}
	return tree.NewRoot(secs...)
}

// FuzzCompressRoundTrip feeds arbitrary generated node runs through
// Compress and checks the §VI-B contract: the compressed tree is still a
// valid program tree, its logical node count (Repeat runs expanded) is
// unchanged, and its total serial length is preserved within the merge
// tolerance. RLE representatives store length-preserving weighted
// averages (rounding noise only); dictionary sharing may substitute a
// representative whose leaves differ by up to the tolerance, so the
// drift budget scales with tol.
func FuzzCompressRoundTrip(f *testing.F) {
	f.Add([]byte{}, uint8(5))
	f.Add([]byte{3, 7, 1, 0, 200, 9}, uint8(0))
	f.Add([]byte{1, 31, 2, 15, 0, 0, 1, 2, 3, 4, 5, 6, 7, 8}, uint8(10))
	f.Add([]byte{2, 4, 250, 3, 1, 4, 99, 42, 42, 42}, uint8(50))
	f.Fuzz(func(t *testing.T, data []byte, tolByte uint8) {
		root := buildFuzzTree(data)
		if err := root.Validate(); err != nil {
			t.Fatalf("decoder produced invalid tree: %v", err)
		}
		// Fuzz over the contract-relevant range (the paper operates at
		// 5%; beyond ~10% repeated merge passes compound near-equal
		// substitutions and the length guarantee intentionally weakens
		// toward the lossy fallback regime).
		tol := float64(tolByte%11) / 100 // 0% .. 10%
		before := root.TotalLen()
		_, logicalBefore := root.NodeCount()

		st := Compress(root, tol)

		if err := root.Validate(); err != nil {
			t.Fatalf("compressed tree invalid (tol %.2f): %v\n%s", tol, err, root)
		}
		if _, logicalAfter := root.NodeCount(); logicalAfter != logicalBefore {
			t.Fatalf("logical nodes changed %d -> %d (tol %.2f)", logicalBefore, logicalAfter, tol)
		}
		if st.NodesAfter > st.NodesBefore {
			t.Fatalf("compression grew the tree: %d -> %d", st.NodesBefore, st.NodesAfter)
		}
		after := root.TotalLen()
		drift := float64(after - before)
		if drift < 0 {
			drift = -drift
		}
		// Dictionary substitution drifts at most tol per affected leaf
		// (3x headroom for repeated passes), plus one cycle of rounding
		// per logical node for the RLE weighted averages.
		budget := 3*tol*float64(before) + float64(logicalBefore) + 1
		if drift > budget {
			t.Fatalf("TotalLen drifted %d -> %d (tol %.2f, budget %.0f)", before, after, tol, budget)
		}
	})
}
