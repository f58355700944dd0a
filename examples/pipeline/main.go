// pipeline demonstrates the §VIII extension: pipeline-parallel loops
// (after Thies et al.), predicted from annotations with PipeBegin /
// StageBreak. A three-stage read→process→write loop is bounded by its
// slowest stage, not by the core count — and the prediction shows it.
//
//	go run ./examples/pipeline
package main

import (
	"context"
	"fmt"
	"log"

	"prophet"
)

func pipelineProgram(ctx prophet.Context) {
	ctx.PipeBegin("transcode")
	for i := 0; i < 64; i++ {
		ctx.TaskBegin("frame")
		ctx.Compute(20_000, 0) // stage 0: read / decode header
		ctx.StageBreak()
		ctx.Compute(90_000, 0) // stage 1: transform (bottleneck)
		ctx.StageBreak()
		ctx.Compute(30_000, 0) // stage 2: encode / write
		ctx.TaskEnd()
	}
	ctx.PipeEnd()
}

func main() {
	ctx := context.Background()
	prof, err := prophet.ProfileProgramCtx(ctx, pipelineProgram, nil)
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
	fmt.Printf("3-stage pipeline, 64 frames; serial %d cycles\n\n", prof.SerialCycles)
	fmt.Println("cores   FF prediction   machine ground truth")
	for _, cores := range []int{1, 2, 3, 4, 8} {
		req := prophet.Request{Method: prophet.FastForward, Threads: cores, Sched: prophet.Static}
		est := predict(req)
		real := groundTruth(prophet.Request{Threads: cores, Sched: prophet.Static})
		fmt.Printf("%5d   %13.2f   %20.2f\n", cores, est, real)
	}
	fmt.Println()
	bound := 140_000.0 / 90_000.0
	fmt.Printf("throughput is bound by the 90k-cycle stage: max speedup ~%.2f\n", bound)
	fmt.Println("regardless of core count — worth knowing before parallelizing.")
}
