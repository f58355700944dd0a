// luloop reproduces the paper's Fig. 1(a) motivation: LU reduction, where
// only the *inner* loop is parallelizable and its per-iteration work
// shrinks every outer step (workload imbalance + inner-loop parallelism).
// The example shows why scheduling policy matters for the prediction.
//
//	go run ./examples/luloop
package main

import (
	"context"
	"fmt"
	"log"

	"prophet"
)

const (
	size  = 192 // matrix dimension (kept small so the example is instant)
	cElim = 30  // cycles per eliminated element
)

// luProgram annotates the Fig. 1(a) loop nest:
//
//	for k in 0..size-1:                 // serial outer loop
//	    #pragma omp parallel for        // the annotated section
//	    for i in k+1..size-1:           // one task per row
//	        update row i (size-k work)  // shrinking, imbalanced work
func luProgram(ctx prophet.Context) {
	for k := 0; k < size-1; k++ {
		rowLen := size - k - 1
		if rowLen == 0 {
			continue
		}
		ctx.SecBegin("eliminate")
		for i := k + 1; i < size; i++ {
			ctx.TaskBegin("row")
			ctx.Compute(int64(rowLen*cElim), 0)
			ctx.TaskEnd()
		}
		ctx.SecEnd(false)
	}
}

func main() {
	ctx := context.Background()
	prof, err := prophet.ProfileProgramCtx(ctx, luProgram, nil)
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
	fmt.Printf("LU %dx%d: serial %d cycles, %d parallel sections\n\n",
		size, size, prof.SerialCycles, len(prof.Tree.TopLevelSections()))

	fmt.Println("frequent inner-loop parallelism: fork/join overhead eats small sections,")
	fmt.Println("and (static) suffers from the triangular imbalance:")
	fmt.Println()
	fmt.Println("cores  (static)  (static,1)  (dynamic,1)  suitability")
	for _, cores := range []int{2, 4, 8, 12} {
		row := fmt.Sprintf("%5d", cores)
		for _, sched := range []prophet.Sched{prophet.Static, prophet.Static1, prophet.Dynamic1} {
			ff := predict(prophet.Request{Method: prophet.FastForward, Threads: cores, Sched: sched})
			row += fmt.Sprintf("  %8.2f", ff)
		}
		suit := predict(prophet.Request{Method: prophet.Suitability, Threads: cores})
		row += fmt.Sprintf("  %11.2f", suit)
		fmt.Println(row)
	}
	fmt.Println()
	fmt.Println("(the paper's Fig. 12(b): Suitability under-predicts LU because it")
	fmt.Println(" overestimates the overhead of the frequently invoked inner loop)")
}
