// qsortcilk reproduces the paper's Fig. 1(b) scenario: recursive
// parallelism, which OpenMP 2.0 nested teams handle poorly but a
// work-stealing runtime (Cilk Plus) handles well. The synthesizer can
// emulate both paradigms from the same profile — this example compares
// them.
//
//	go run ./examples/qsortcilk
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"

	"prophet"
)

const (
	n      = 1 << 14
	cutoff = 256
	cPart  = 8
)

// qsortProgram annotates a real quicksort recursion: it actually
// partitions a random slice, so the recursion tree has authentic
// data-dependent imbalance.
func qsortProgram(ctx prophet.Context) {
	rng := rand.New(rand.NewSource(1))
	data := make([]float64, n)
	for i := range data {
		data[i] = rng.Float64()
	}
	var rec func(s []float64)
	rec = func(s []float64) {
		if len(s) <= cutoff {
			ctx.Compute(int64(len(s)*cPart*2), 0)
			return
		}
		p := partition(s)
		ctx.Compute(int64(len(s)*cPart), 0)
		ctx.SecBegin("halves") // cilk_spawn / cilk_sync pair
		ctx.TaskBegin("lo")
		rec(s[:p])
		ctx.TaskEnd()
		ctx.TaskBegin("hi")
		rec(s[p+1:])
		ctx.TaskEnd()
		ctx.SecEnd(false)
	}
	ctx.SecBegin("qsort")
	ctx.TaskBegin("root")
	rec(data)
	ctx.TaskEnd()
	ctx.SecEnd(false)
}

func partition(s []float64) int {
	pivot := s[len(s)/2]
	s[len(s)/2], s[len(s)-1] = s[len(s)-1], s[len(s)/2]
	i := 0
	for j := 0; j < len(s)-1; j++ {
		if s[j] < pivot {
			s[i], s[j] = s[j], s[i]
			i++
		}
	}
	s[i], s[len(s)-1] = s[len(s)-1], s[i]
	return i
}

func main() {
	ctx := context.Background()
	prof, err := prophet.ProfileProgramCtx(ctx, qsortProgram, nil)
	if err != nil {
		log.Fatal(err)
	}
	// predict returns req's predicted speedup; a failed emulation stops
	// the example.
	predict := func(req prophet.Request) float64 {
		est, err := prof.EstimateCtx(ctx, req)
		if err != nil {
			log.Fatal(err)
		}
		return est.Speedup
	}
	fmt.Printf("quicksort of %d elements: serial %d cycles\n\n", n, prof.SerialCycles)
	fmt.Println("recursive parallelism, synthesizer predictions:")
	fmt.Println("cores   Cilk (work stealing)   OpenMP 2.0 (nested teams)")
	for _, cores := range []int{2, 4, 8, 12} {
		cilk := predict(prophet.Request{
			Method: prophet.Synthesizer, Threads: cores, Paradigm: prophet.Cilk,
		})
		omp := predict(prophet.Request{
			Method: prophet.Synthesizer, Threads: cores, Paradigm: prophet.OpenMP, Sched: prophet.Dynamic1,
		})
		fmt.Printf("%5d   %20.2f   %25.2f\n", cores, cilk, omp)
	}
	fmt.Println()
	fmt.Println("(the paper's §III: naive nested OpenMP spawns too many physical")
	fmt.Println(" threads; Cilk-style work stealing is the right paradigm here)")
}
