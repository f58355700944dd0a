package tree

import (
	"encoding/json"
	"fmt"
	"io"
	"unsafe"

	"prophet/internal/clock"
	"prophet/internal/counters"
)

// jsonNode is the stable wire form of a Node. Pointers and maps are flattened
// so the output is deterministic and diff-friendly.
type jsonNode struct {
	Kind     string       `json:"kind"`
	Name     string       `json:"name,omitempty"`
	Len      int64        `json:"len,omitempty"`
	LockID   int          `json:"lock,omitempty"`
	NoWait   bool         `json:"nowait,omitempty"`
	Repeat   int          `json:"repeat,omitempty"`
	Instr    int64        `json:"instr,omitempty"`
	Misses   int64        `json:"misses,omitempty"`
	Children []*jsonNode  `json:"children,omitempty"`
	Counters *jsonSample  `json:"counters,omitempty"`
	Burden   []burdenPair `json:"burden,omitempty"`
	// Pipeline is decode-only: it marked the retired pipeline-parallel
	// section, which no engine runs; fromJSON refuses a tree that sets it.
	Pipeline bool `json:"pipeline,omitempty"`
}

type jsonSample struct {
	Instructions int64 `json:"instr"`
	Cycles       int64 `json:"cycles"`
	LLCMisses    int64 `json:"misses"`
}

type burdenPair struct {
	Threads int     `json:"threads"`
	Beta    float64 `json:"beta"`
}

func toJSON(n *Node) *jsonNode {
	j := &jsonNode{
		Kind:   n.Kind.String(),
		Name:   n.Name,
		Len:    int64(n.Len),
		LockID: n.LockID,
		NoWait: n.NoWait,
		Repeat: n.Repeat,
		Instr:  n.Mem.Instructions,
		Misses: n.Mem.LLCMisses,
	}
	if n.Counters != nil {
		j.Counters = &jsonSample{
			Instructions: n.Counters.Instructions,
			Cycles:       int64(n.Counters.Cycles),
			LLCMisses:    n.Counters.LLCMisses,
		}
	}
	if len(n.Burden) > 0 {
		// Deterministic order: ascending thread counts.
		for t := 1; t <= 1024; t++ {
			if b, ok := n.Burden[t]; ok {
				j.Burden = append(j.Burden, burdenPair{Threads: t, Beta: b})
			}
		}
	}
	for _, c := range n.Children {
		j.Children = append(j.Children, toJSON(c))
	}
	return j
}

func fromJSON(j *jsonNode) (*Node, error) {
	var k Kind
	switch j.Kind {
	case "Root":
		k = Root
	case "Sec":
		k = Sec
	case "Task":
		k = Task
	case "U":
		k = U
	case "L":
		k = L
	case "W":
		k = W
	default:
		return nil, fmt.Errorf("tree: unknown node kind %q", j.Kind)
	}
	if j.Pipeline {
		return nil, fmt.Errorf("%w: pipeline-parallel %v %q is no longer supported", ErrMalformed, k, j.Name)
	}
	n := &Node{
		Kind:   k,
		Name:   j.Name,
		Len:    clock.Cycles(j.Len),
		LockID: j.LockID,
		NoWait: j.NoWait,
		Repeat: j.Repeat,
		Mem:    MemTraits{Instructions: j.Instr, LLCMisses: j.Misses},
	}
	if j.Counters != nil {
		n.Counters = &counters.Sample{
			Instructions: j.Counters.Instructions,
			Cycles:       clock.Cycles(j.Counters.Cycles),
			LLCMisses:    j.Counters.LLCMisses,
		}
	}
	if len(j.Burden) > 0 {
		n.Burden = make(map[int]float64, len(j.Burden))
		for _, p := range j.Burden {
			n.Burden[p.Threads] = p.Beta
		}
	}
	for _, jc := range j.Children {
		c, err := fromJSON(jc)
		if err != nil {
			return nil, err
		}
		n.Children = append(n.Children, c)
	}
	return n, nil
}

// MarshalJSON encodes the subtree in a stable wire format.
func (n *Node) MarshalJSON() ([]byte, error) {
	return json.Marshal(toJSON(n))
}

// UnmarshalJSON decodes a subtree written by MarshalJSON.
func (n *Node) UnmarshalJSON(data []byte) error {
	var j jsonNode
	if err := json.Unmarshal(data, &j); err != nil {
		return err
	}
	dec, err := fromJSON(&j)
	if err != nil {
		return err
	}
	*n = *dec
	return nil
}

// WriteDOT renders the subtree as a Graphviz digraph (Fig. 4 style: node
// kind plus cycle length). Intended for debugging and documentation.
func (n *Node) WriteDOT(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "digraph programtree {"); err != nil {
		return err
	}
	if _, err := fmt.Fprintln(w, "  node [shape=box, fontname=\"monospace\"];"); err != nil {
		return err
	}
	id := 0
	var emit func(node *Node) (int, error)
	emit = func(node *Node) (int, error) {
		me := id
		id++
		label := node.Kind.String()
		if node.Name != "" {
			label += "\\n" + node.Name
		}
		switch node.Kind {
		case U, L:
			label += fmt.Sprintf("\\n%d", node.Len)
		default:
			label += fmt.Sprintf("\\n%d", node.TotalLen())
		}
		if node.Reps() > 1 {
			label += fmt.Sprintf(" x%d", node.Reps())
		}
		if _, err := fmt.Fprintf(w, "  n%d [label=\"%s\"];\n", me, label); err != nil {
			return 0, err
		}
		for _, c := range node.Children {
			cid, err := emit(c)
			if err != nil {
				return 0, err
			}
			if _, err := fmt.Fprintf(w, "  n%d -> n%d;\n", me, cid); err != nil {
				return 0, err
			}
		}
		return me, nil
	}
	if _, err := emit(n); err != nil {
		return err
	}
	_, err := fmt.Fprintln(w, "}")
	return err
}

// ApproxBytes estimates the in-memory footprint of the physical tree (node
// structs plus child-slice headers). Used by the §VI-B memory-overhead
// report; the logical (uncompressed) footprint is ApproxBytes scaled by the
// logical/physical node ratio.
func (n *Node) ApproxBytes() int64 {
	var node Node
	per := int64(unsafe.Sizeof(node))
	var total int64
	n.Walk(func(m *Node) bool {
		total += per + int64(len(m.Children))*8 + int64(len(m.Name))
		return true
	})
	return total
}
