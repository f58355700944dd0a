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
	var iters []*tree.Node
	for _, c := range sec.Children {
		if c.Kind != tree.Task {
			continue
		}
		for r := 0; r < c.Reps(); r++ {
			iters = append(iters, c)
		}
	}
	depth := pipesim.Depth(sec)
	if len(iters) == 0 || depth == 0 {
		return
	}
	groups := pipesim.PartitionStages(sec, threads)
	nGroups := 0
	for _, g := range groups {
		if g+1 > nGroups {
			nGroups = g + 1
		}
	}

	// Stage-group workers chained by channels carrying iteration indexes.
	chans := make([]chan int, nGroups+1)
	for i := range chans {
		chans[i] = make(chan int, 64)
	}
	var wg sync.WaitGroup
	for g := 0; g < nGroups; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range chans[g] {
				slots := pipesim.StageSlots(iters[i])
				for s, seg := range slots {
					if s < len(groups) && groups[s] == g {
						exec(seg)
					}
				}
				chans[g+1] <- i
			}
			close(chans[g+1])
		}()
	}
	// Feed iterations in order; drain the tail.
	go func() {
		for i := range iters {
			chans[0] <- i
		}
		close(chans[0])
	}()
	for range chans[nGroups] {
	}
	wg.Wait()
}
