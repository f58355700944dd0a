package hostexec

import (
	"sync"

	"prophet/internal/pipesim"
	"prophet/internal/tree"
)

// RunPipeline executes a pipeline section on the host with real
// goroutines: stages are fused into contiguous weight-balanced groups (the
// same pipesim.PartitionStages assignment the simulator and the FF use),
// one goroutine per group, handing iterations downstream through buffered
// channels — classic decoupled software pipelining.
//
// exec runs one stage instance (a U or L leaf); implementations handle
// L-node locking themselves.
func RunPipeline(sec *tree.Node, threads int, exec func(seg *tree.Node)) {
	runs := pipesim.IterRuns(sec)
	groups, nGroups := pipesim.PartitionStages(sec, threads)
	if len(runs) == 0 || nGroups == 0 {
		return
	}

	// Stage-group workers chained by channels carrying each iteration's
	// stage slots.
	chans := make([]chan []*tree.Node, nGroups+1)
	for i := range chans {
		chans[i] = make(chan []*tree.Node, 64)
	}
	var wg sync.WaitGroup
	for g := 0; g < nGroups; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for slots := range chans[g] {
				for s, seg := range slots {
					if s < len(groups) && groups[s] == g {
						exec(seg)
					}
				}
				chans[g+1] <- slots
			}
			close(chans[g+1])
		}()
	}
	// Feed iterations in order; drain the tail.
	go func() {
		for _, run := range runs {
			for k := 0; k < run.Reps; k++ {
				chans[0] <- run.Slots
			}
		}
		close(chans[0])
	}()
	for range chans[nGroups] {
	}
	wg.Wait()
}
