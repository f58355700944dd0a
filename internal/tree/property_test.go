package tree

import (
	"encoding/json"
	"math/rand"
	"testing"

	"prophet/internal/clock"
	"prophet/internal/counters"
)

// randomValidTree builds a random structurally valid tree including
// nowait flags, repeats, locks, counters and burden maps.
func randomValidTree(rng *rand.Rand) *Node {
	var buildTask func(depth int) *Node
	buildTask = func(depth int) *Node {
		task := NewTask("t")
		if rng.Intn(5) == 0 {
			task.Repeat = 1 + rng.Intn(9)
		}
		for s := 0; s < 1+rng.Intn(3); s++ {
			switch {
			case depth > 0 && rng.Intn(5) == 0:
				inner := NewSec("in")
				inner.NoWait = rng.Intn(2) == 0
				for k := 0; k < 1+rng.Intn(3); k++ {
					inner.Children = append(inner.Children, buildTask(depth-1))
				}
				task.Children = append(task.Children, inner)
			case rng.Intn(4) == 0:
				l := NewL(1+rng.Intn(3), clock.Cycles(rng.Intn(1_000)))
				l.Mem = MemTraits{Instructions: int64(rng.Intn(100)), LLCMisses: int64(rng.Intn(10))}
				task.Children = append(task.Children, l)
			default:
				u := NewU(clock.Cycles(rng.Intn(1_000)))
				u.Mem = MemTraits{Instructions: int64(rng.Intn(100))}
				task.Children = append(task.Children, u)
			}
		}
		return task
	}
	root := NewRoot()
	for i := 0; i < 1+rng.Intn(4); i++ {
		if rng.Intn(4) == 0 {
			root.Children = append(root.Children, NewU(clock.Cycles(rng.Intn(500))))
			continue
		}
		sec := NewSec("s")
		for k := 0; k < 1+rng.Intn(5); k++ {
			sec.Children = append(sec.Children, buildTask(2))
		}
		sec.Counters = &counters.Sample{
			Instructions: int64(rng.Intn(100_000)),
			Cycles:       clock.Cycles(rng.Intn(100_000) + 1),
			LLCMisses:    int64(rng.Intn(1_000)),
		}
		sec.Burden = map[int]float64{2: 1 + rng.Float64(), 12: 1 + rng.Float64()}
		root.Children = append(root.Children, sec)
	}
	return root
}

// TestJSONRoundTripProperty: random trees survive marshal/unmarshal with
// structure, flags, lengths, counters and burdens intact.
func TestJSONRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(123))
	for trial := 0; trial < 40; trial++ {
		root := randomValidTree(rng)
		if err := root.Validate(); err != nil {
			t.Fatalf("generator produced invalid tree: %v", err)
		}
		data, err := json.Marshal(root)
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		var back Node
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatalf("unmarshal: %v", err)
		}
		if !Equal(root, &back, 0) {
			t.Fatalf("trial %d: round trip changed tree:\n%s\nvs\n%s", trial, root, &back)
		}
		if back.TotalLen() != root.TotalLen() {
			t.Fatalf("trial %d: TotalLen %d -> %d", trial, root.TotalLen(), back.TotalLen())
		}
		// Burden and counters on sections survive.
		origSecs := root.TopLevelSections()
		backSecs := back.TopLevelSections()
		if len(origSecs) != len(backSecs) {
			t.Fatalf("sections %d -> %d", len(origSecs), len(backSecs))
		}
		for i := range origSecs {
			if (origSecs[i].Counters == nil) != (backSecs[i].Counters == nil) {
				t.Fatalf("counters presence changed on section %d", i)
			}
			for k, v := range origSecs[i].Burden {
				if backSecs[i].Burden[k] != v {
					t.Fatalf("burden[%d] changed", k)
				}
			}
		}
	}
}

// TestCloneEqualProperty: Clone is always Equal and fully detached.
func TestCloneEqualProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(321))
	for trial := 0; trial < 30; trial++ {
		root := randomValidTree(rng)
		cp := root.Clone()
		if !Equal(root, cp, 0) {
			t.Fatal("clone not equal")
		}
		// Mutate every leaf of the original; clone must not change.
		before := cp.TotalLen()
		root.Walk(func(n *Node) bool {
			if n.Kind == U || n.Kind == L {
				n.Len += 1_000_000
			}
			return true
		})
		if cp.TotalLen() != before {
			t.Fatal("clone shares leaves with original")
		}
	}
}

// TestApproxBytesScalesWithNodes: footprint estimate grows with the
// physical node count.
func TestApproxBytesScalesWithNodes(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	small := randomValidTree(rand.New(rand.NewSource(1)))
	var big *Node
	for {
		big = randomValidTree(rng)
		ps, _ := small.NodeCount()
		pb, _ := big.NodeCount()
		if pb > 2*ps {
			break
		}
	}
	if big.ApproxBytes() <= small.ApproxBytes() {
		t.Fatalf("bytes: big %d <= small %d", big.ApproxBytes(), small.ApproxBytes())
	}
}
