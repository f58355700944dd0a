// memorybound reproduces the paper's Fig. 2 story: a bandwidth-bound
// program whose speedup saturates on a 12-core machine. Without the memory
// performance model the prediction badly overestimates; with burden
// factors it tracks the machine.
//
//	go run ./examples/memorybound
package main

import (
	"context"
	"fmt"
	"log"

	"prophet"
)

// streamProgram is an FT-like workload: each task does a little compute
// and streams a lot of data (high LLC-miss rate).
func streamProgram(ctx prophet.Context) {
	ctx.SecBegin("stream")
	for i := 0; i < 96; i++ {
		ctx.TaskBegin("chunk")
		ctx.Compute(40_000, 9_000) // 40k compute cycles, 9k LLC misses
		ctx.TaskEnd()
	}
	ctx.SecEnd(false)
}

func main() {
	ctx := context.Background()
	prof, err := prophet.ProfileProgramCtx(ctx, streamProgram, nil)
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
	// groundTruth returns req's speedup on the simulated machine.
	groundTruth := func(req prophet.Request) float64 {
		s, err := prof.RealSpeedupCtx(ctx, req)
		if err != nil {
			log.Fatal(err)
		}
		return s
	}
	sec := prof.Tree.TopLevelSections()[0]
	fmt.Printf("serial: %d cycles; section traffic: %.0f MB/s, MPI %.4f\n\n",
		prof.SerialCycles, sec.Counters.TrafficMBps(0), sec.Counters.MPI())

	fmt.Println("burden factors computed by the memory model:")
	for _, t := range prophet.DefaultThreadCounts() {
		fmt.Printf("  beta_%-2d = %.2f\n", t, sec.BurdenFor(t))
	}

	fmt.Println("\ncores   Pred (no mem model)   PredM (with)   Real (machine)")
	for _, cores := range prophet.DefaultThreadCounts() {
		base := prophet.Request{Method: prophet.Synthesizer, Threads: cores, Sched: prophet.Static}
		pred := predict(base)
		withMem := base
		withMem.MemoryModel = true
		predM := predict(withMem)
		real := groundTruth(base)
		fmt.Printf("%5d   %19.2f   %12.2f   %14.2f\n", cores, pred, predM, real)
	}
	fmt.Println("\n(the paper's Fig. 2: without a memory model, Kismet and Suitability")
	fmt.Println(" overestimate FT's speedup; burden factors predict the saturation)")
}
