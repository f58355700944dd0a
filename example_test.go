package prophet_test

import (
	"context"
	"fmt"

	"prophet"
)

// ExampleProfileProgramCtx shows the whole workflow: annotate, profile,
// predict.
func ExampleProfileProgramCtx() {
	program := func(ctx prophet.Context) {
		ctx.SecBegin("loop")
		for i := 0; i < 24; i++ {
			ctx.TaskBegin("iteration")
			ctx.Compute(100_000, 0)
			ctx.TaskEnd()
		}
		ctx.SecEnd(false)
	}
	ctx := context.Background()
	prof, err := prophet.ProfileProgramCtx(ctx, program, &prophet.Options{DisableMemoryModel: true})
	if err != nil {
		panic(err)
	}
	est, err := prof.EstimateCtx(ctx, prophet.Request{Threads: 8, Sched: prophet.Static})
	if err != nil {
		panic(err)
	}
	fmt.Printf("serial: %d cycles\n", prof.SerialCycles)
	// 7.66x, not 8.00x: the emulation charges the calibrated OpenMP
	// fork/join and dispatch overheads.
	fmt.Printf("8 threads, (static): %.2fx\n", est.Speedup)
	// Output:
	// serial: 2400000 cycles
	// 8 threads, (static): 7.66x
}

// ExampleProfile_EstimateCtx compares two prediction engines on a
// lock-bound loop.
func ExampleProfile_EstimateCtx() {
	program := func(ctx prophet.Context) {
		ctx.SecBegin("locked")
		for i := 0; i < 8; i++ {
			ctx.TaskBegin("t")
			ctx.LockBegin(1)
			ctx.Compute(50_000, 0) // the whole task holds the lock
			ctx.LockEnd(1)
			ctx.TaskEnd()
		}
		ctx.SecEnd(false)
	}
	ctx := context.Background()
	// A four-core cut of the paper machine.
	quad := prophet.DefaultMachineSpec().WithCores("westmere4", 4)
	prof, err := prophet.ProfileProgramCtx(ctx, program, &prophet.Options{
		Machine:            prophet.MachineConfig{Spec: quad},
		DisableMemoryModel: true,
	})
	if err != nil {
		panic(err)
	}
	ff, err := prof.EstimateCtx(ctx, prophet.Request{Method: prophet.FastForward, Threads: 4, Sched: prophet.Static1})
	if err != nil {
		panic(err)
	}
	bound, err := prof.EstimateCtx(ctx, prophet.Request{Method: prophet.CriticalPathBound, Threads: 4})
	if err != nil {
		panic(err)
	}
	fmt.Printf("fast-forward sees the lock: %.2fx\n", ff.Speedup)
	fmt.Printf("critical-path bound is lock-blind: %.2fx\n", bound.Speedup)
	// Output:
	// fast-forward sees the lock: 0.98x
	// critical-path bound is lock-blind: 4.00x
}

// ExampleProfile_Regions ranks the parallel regions of a program by work.
func ExampleProfile_Regions() {
	program := func(ctx prophet.Context) {
		ctx.SecBegin("hot")
		for i := 0; i < 4; i++ {
			ctx.TaskBegin("t")
			ctx.Compute(200_000, 0)
			ctx.TaskEnd()
		}
		ctx.SecEnd(false)
		ctx.SecBegin("cold")
		ctx.TaskBegin("t")
		ctx.Compute(100_000, 0)
		ctx.TaskEnd()
		ctx.SecEnd(false)
	}
	prof, err := prophet.ProfileProgramCtx(context.Background(), program, &prophet.Options{DisableMemoryModel: true})
	if err != nil {
		panic(err)
	}
	for _, r := range prof.Regions() {
		fmt.Printf("%s: %.0f%% of the program, self-parallelism %.0f\n",
			r.Name, 100*r.Coverage, r.SelfParallelism)
	}
	// Output:
	// hot: 89% of the program, self-parallelism 4
	// cold: 11% of the program, self-parallelism 1
}

// ExampleTree_String renders a profiled program tree (the paper's Fig. 4
// format).
func ExampleTree_String() {
	program := func(ctx prophet.Context) {
		ctx.SecBegin("loop")
		ctx.TaskBegin("t")
		ctx.Compute(10, 0)
		ctx.LockBegin(1)
		ctx.Compute(20, 0)
		ctx.LockEnd(1)
		ctx.TaskEnd()
		ctx.SecEnd(false)
	}
	prof, err := prophet.ProfileProgramCtx(context.Background(), program, &prophet.Options{
		DisableMemoryModel: true,
		CompressTolerance:  -1,
	})
	if err != nil {
		panic(err)
	}
	fmt.Print(prof.Tree.String())
	// Output:
	// Root total=30
	//   Sec "loop" total=30
	//     Task "t" total=30
	//       U 10
	//       L 20 lock=1
}
