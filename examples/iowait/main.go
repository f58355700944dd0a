// iowait demonstrates the I/O-wait extension (the paper's §VIII lists I/O
// in annotated regions as a limitation; this reproduction models it): a
// loop whose tasks spend 70% of their time blocked on I/O can profitably
// use far more threads than cores — and only the machine-backed
// synthesizer predicts it.
//
//	go run ./examples/iowait
package main

import (
	"context"
	"fmt"
	"log"

	"prophet"
)

func fetchComputeStore(ctx prophet.Context) {
	ctx.SecBegin("requests")
	for i := 0; i < 64; i++ {
		ctx.TaskBegin("request")
		ctx.Compute(15_000, 0) // parse / prepare
		ctx.IOWait(70_000)     // blocked on the backend, no CPU used
		ctx.Compute(15_000, 0) // post-process
		ctx.TaskEnd()
	}
	ctx.SecEnd(false)
}

func main() {
	machine := prophet.MachineConfig{Cores: 4}
	ctx := context.Background()
	prof, err := prophet.ProfileProgramCtx(ctx, fetchComputeStore, &prophet.Options{Machine: machine})
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
	fmt.Println("64 requests, 70% of each blocked on I/O; machine has 4 cores")
	fmt.Println()
	fmt.Println("threads   synthesizer   FF (treats waits as compute)   real (machine)")
	for _, threads := range []int{2, 4, 8, 16} {
		syn := predict(prophet.Request{
			Method: prophet.Synthesizer, Threads: threads, Sched: prophet.Dynamic1,
		})
		ffp := predict(prophet.Request{
			Method: prophet.FastForward, Threads: threads, Sched: prophet.Dynamic1,
		})
		real := groundTruth(prophet.Request{Threads: threads, Sched: prophet.Dynamic1})
		fmt.Printf("%7d   %11.2f   %28.2f   %14.2f\n", threads, syn, ffp, real)
	}
	fmt.Println()
	fmt.Println("oversubscription pays: with 16 threads on 4 cores, waits overlap and")
	fmt.Println("the real speedup beats the core count. The synthesizer nails it because")
	fmt.Println("it actually schedules the generated program on the machine; the")
	fmt.Println("analytical FF, with no machine underneath, over-promises (compute from")
	fmt.Println("16 threads can't really fit on 4 cores).")
}
