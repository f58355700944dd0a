package compress

import (
	"testing"

	"prophet/internal/clock"
	"prophet/internal/tree"
)

// BenchmarkCompressionDictionary is the ablation separating the RLE and
// dictionary contributions to §VI-B's reductions: dict=off runs the RLE
// pass alone.
func BenchmarkCompressionDictionary(b *testing.B) {
	build := func() *tree.Node {
		tasks := make([]*tree.Node, 10_000)
		for i := range tasks {
			l := clock.Cycles(100)
			if i%2 == 1 {
				l = 200 // alternating: RLE can't merge, dictionary can share
			}
			tasks[i] = tree.NewTask("t", tree.NewU(l))
		}
		return tree.NewRoot(tree.NewSec("s", tasks...))
	}
	b.Run("dict=on", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			root := build()
			b.StartTimer()
			st := Compress(root, 0)
			b.ReportMetric(float64(st.NodesAfter), "nodes")
		}
	})
	b.Run("dict=off", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			root := build()
			b.StartTimer()
			rle(root, 0)
			b.ReportMetric(float64(uniqueNodes(root)), "nodes")
		}
	})
}
