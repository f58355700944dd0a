package prophet

import (
	"context"
	"fmt"
	"hash"
	"hash/fnv"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"prophet/internal/tree"
	"prophet/internal/workloads"
)

// compressGoldenSamples is the number of seeded Test1/Test2 pairs pinned
// beside the benchmarks.
const compressGoldenSamples = 50

// TestCompressGolden pins §VI-B compression byte for byte. Each line of
// results/golden/compress.golden is one profiled tree: the benchmarks,
// then seeded Test1/Test2 samples drawn as Fig. 11 draws them. A line
// holds the compression Stats, a hash of the compressed tree's content
// and a hash of its sharing structure (which stored node each child
// pointer lands on), so a compressor that stores the same values but
// shares different nodes still fails. Regenerate with:
//
//	go test . -run TestCompressGolden -update
func TestCompressGolden(t *testing.T) {
	type input struct {
		name string
		prog Program
	}
	var inputs []input
	for _, name := range append(workloads.Names(), "NPB-IS") {
		w, err := workloads.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		inputs = append(inputs, input{name, w.Program})
	}
	rng := rand.New(rand.NewSource(1))
	for s := 0; s < compressGoldenSamples; s++ {
		t1, t2 := workloads.RandomTest1(rng), workloads.RandomTest2(rng)
		inputs = append(inputs,
			input{fmt.Sprintf("test1-%02d", s), t1.Program()},
			input{fmt.Sprintf("test2-%02d", s), t2.Program()})
	}

	var b strings.Builder
	for _, in := range inputs {
		p, err := ProfileProgramCtx(context.Background(), in.prog, &Options{DisableMemoryModel: true})
		if err != nil {
			t.Fatalf("%s: %v", in.name, err)
		}
		content, sharing := treeHashes(p.Tree)
		fmt.Fprintf(&b, "%s\t%s\tcontent=%016x\tsharing=%016x\n", in.name, p.Compression, content, sharing)
	}
	got := b.String()

	path := filepath.Join("results", "golden", "compress.golden")
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("compression drifted from %s at line %d:\n got: %s\nwant: %s", path, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("compression drifted from %s: %d lines, want %d", path, len(gl), len(wl))
	}
}

// treeHashes returns two FNV-64a hashes of a compressed tree, both taken
// in depth-first pre-order. content covers the fields of every node on
// every path, so shared subtrees are hashed once per reference. sharing
// maps each node pointer to the index of its first visit and hashes the
// index sequence, so it changes whenever a child pointer lands on a
// different stored node.
func treeHashes(root *tree.Node) (content, sharing uint64) {
	ch, sh := fnv.New64a(), fnv.New64a()
	ids := make(map[*tree.Node]int)
	var visit func(n *tree.Node, first bool)
	visit = func(n *tree.Node, first bool) {
		writeNode(ch, n)
		id, seen := ids[n]
		if !seen {
			id = len(ids)
			ids[n] = id
		}
		if first {
			fmt.Fprintf(sh, "%d/%d,", id, len(n.Children))
		}
		for _, c := range n.Children {
			visit(c, first && !seen)
		}
	}
	visit(root, true)
	return ch.Sum64(), sh.Sum64()
}

// writeNode writes n's own fields (not its children) to h. Burden maps
// are left out: the golden profiles run with the memory model off, so
// none is assigned.
func writeNode(h hash.Hash64, n *tree.Node) {
	// The literal false fills the retired pipeline flag's slot, so the
	// golden hashes stay comparable.
	fmt.Fprintf(h, "%v|%q|%d|%d|%v|%v|%d|%d|%d|%d|", n.Kind, n.Name, n.Len, n.LockID,
		n.NoWait, false, n.Repeat, n.Mem.Instructions, n.Mem.LLCMisses, len(n.Children))
	if n.Counters != nil {
		fmt.Fprintf(h, "c%d/%d/%d|", n.Counters.Instructions, n.Counters.Cycles, n.Counters.LLCMisses)
	}
}
