package tree

import (
	"testing"

	"prophet/internal/clock"
)

// buildArbitraryNode decodes bytes into an arbitrary node graph — kinds,
// lengths, repeats, lock IDs and child nesting all come straight from
// the input, with no validity filtering (kinds may be out of range,
// lengths negative, containers may carry Len, leaves may get children).
// The decoder builds a finite DAG, never a cycle, so traversals
// terminate.
func buildArbitraryNode(data []byte, budget *int) *Node {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	var build func(depth int) *Node
	build = func(depth int) *Node {
		*budget--
		n := &Node{
			Kind:   Kind(next() % 9), // includes kinds beyond W
			Name:   "f",
			Len:    clock.Cycles(next()*73 - 4096), // may be negative
			LockID: next()%5 - 1,
			NoWait: next()%2 == 0,
			Repeat: next()%40 - 3, // may be zero or negative
		}
		if depth < 6 {
			kids := next() % 5
			for i := 0; i < kids && *budget > 0; i++ {
				n.Children = append(n.Children, build(depth+1))
			}
		}
		return n
	}
	return build(0)
}

// FuzzTreeValidate: arbitrary mutations must never panic Validate (or
// the read-only traversals) — invalid structure is reported as an error,
// mirroring the FuzzTracerAnnotations contract one layer down.
func FuzzTreeValidate(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 2, 1, 0, 0, 1, 3})                  // Root-ish with children
	f.Add([]byte{3, 200, 4, 1, 9, 9, 9})                // leaf with children
	f.Add([]byte{8, 0, 0, 0, 255, 7, 6, 5, 4, 3, 2, 1}) // out-of-range kind
	f.Fuzz(func(t *testing.T, data []byte) {
		budget := 256
		n := buildArbitraryNode(data, &budget)
		// Validate on the node as-is (usually not a Root) and wrapped
		// under a proper Root, so both rejection paths are exercised.
		_ = n.Validate()
		root := &Node{Kind: Root, Children: []*Node{n}}
		_ = root.Validate()
		// Read-only traversals must tolerate arbitrary shapes too.
		_ = n.String()
		_ = n.TotalLen()
		n.NodeCount()
		_ = n.Tasks()
		n.Walk(func(*Node) bool { return true })
	})
}
