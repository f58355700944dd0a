// Quickstart: annotate a serial loop, profile it, and ask Parallel Prophet
// how it would scale — the whole paper workflow in ~40 lines.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"prophet"
)

func main() {
	// An annotated serial program: a parallelizable loop of 32
	// iterations. Each iteration does 80k cycles of computation, and a
	// short region updates a shared accumulator under a lock.
	program := func(ctx prophet.Context) {
		ctx.Compute(50_000, 0) // serial setup

		ctx.SecBegin("main-loop") // PAR_SEC_BEGIN
		for i := 0; i < 32; i++ {
			ctx.TaskBegin("iteration") // PAR_TASK_BEGIN
			ctx.Compute(80_000, 0)     // the iteration's work
			ctx.LockBegin(1)           // LOCK_BEGIN
			ctx.Compute(2_000, 0)      // protected accumulator update
			ctx.LockEnd(1)             // LOCK_END
			ctx.TaskEnd()              // PAR_TASK_END
		}
		ctx.SecEnd(false) // PAR_SEC_END (implicit barrier)

		ctx.Compute(50_000, 0) // serial teardown
	}

	ctx := context.Background()
	prof, err := prophet.ProfileProgramCtx(ctx, program, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("serial execution: %d cycles\n", prof.SerialCycles)
	fmt.Printf("program tree: %s\n\n", prof.Compression)

	fmt.Println("predicted speedup (fast-forward emulator, OpenMP):")
	fmt.Println("cores  (static)  (static,1)  (dynamic,1)")
	for _, cores := range prophet.DefaultThreadCounts() {
		row := fmt.Sprintf("%5d", cores)
		for _, sched := range []prophet.Sched{prophet.Static, prophet.Static1, prophet.Dynamic1} {
			est, err := prof.EstimateCtx(ctx, prophet.Request{
				Method:  prophet.FastForward,
				Threads: cores,
				Sched:   sched,
			})
			if err != nil {
				log.Fatal(err)
			}
			row += fmt.Sprintf("  %8.2f", est.Speedup)
		}
		fmt.Println(row)
	}

	// The synthesizer runs generated parallel code on the simulated
	// machine — slower, but it models the OS and runtime exactly.
	est, err := prof.EstimateCtx(ctx, prophet.Request{
		Method:  prophet.Synthesizer,
		Threads: 12,
		Sched:   prophet.Dynamic1,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nsynthesizer, 12 cores, (dynamic,1): %.2fx\n", est.Speedup)
}
