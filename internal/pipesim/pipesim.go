// Package pipesim executes a pipeline-parallel section (tree.Node with
// Pipeline set) on the simulated machine — the runtime counterpart of the
// FF's pipeline schedule (internal/ff/pipeline.go) used by both the
// ground-truth runner and the synthesizer.
//
// Scheduling follows decoupled software pipelining: stages are fused into
// contiguous weight-balanced groups, one worker per group
// (PartitionStages); each worker processes its stages in iteration order
// and blocks until stage s-1 of the same iteration has completed. The
// iteration-major order within a worker matches the FF model, so the two
// emulators agree on the schedule and differ only in machine effects.
package pipesim

import (
	"prophet/internal/sim"
	"prophet/internal/tree"
)

// Exec executes one stage segment (a U or L leaf) on the given thread.
// Implementations handle L-node locking themselves.
type Exec func(w *sim.Thread, seg *tree.Node)

// slotCount returns a task's stage-slot count: slot k of every iteration
// belongs to pipeline stage k, one slot per (segment, repeat) position.
func slotCount(task *tree.Node) int {
	n := 0
	for _, seg := range task.Children {
		n += seg.Reps()
	}
	return n
}

// IterRun is a run of Reps consecutive pipeline iterations of one task.
// Slots flattens the task's (segment, repeat) positions: Slots[k] is the
// segment the iterations execute as stage k.
type IterRun struct {
	Slots []*tree.Node
	Reps  int
}

// IterRuns returns a section's logical iterations in order, one run per
// task child, so Repeat-compressed tasks stay compressed. Every run's
// slots share one backing array, which makes the cost two allocations
// per section whatever its iteration and task counts.
func IterRuns(sec *tree.Node) []IterRun {
	tasks, slots := 0, 0
	for _, c := range sec.Children {
		if c.Kind == tree.Task {
			tasks++
			slots += slotCount(c)
		}
	}
	if tasks == 0 {
		return nil
	}
	runs := make([]IterRun, 0, tasks)
	buf := make([]*tree.Node, 0, slots)
	for _, c := range sec.Children {
		if c.Kind != tree.Task {
			continue
		}
		start := len(buf)
		for _, seg := range c.Children {
			for r := 0; r < seg.Reps(); r++ {
				buf = append(buf, seg)
			}
		}
		runs = append(runs, IterRun{Slots: buf[start:len(buf):len(buf)], Reps: c.Reps()})
	}
	return runs
}

// Depth returns the pipeline depth of a section: the widest task's slot
// count.
func Depth(sec *tree.Node) int {
	depth := 0
	for _, c := range sec.Children {
		if c.Kind != tree.Task {
			continue
		}
		if d := slotCount(c); d > depth {
			depth = d
		}
	}
	return depth
}

// PartitionStages assigns the section's stages to nt workers as contiguous
// groups balanced by total stage weight (the classic linear-partition DP).
// Contiguity matters: a worker owning stages {0, 2} of the same iteration
// would serialize the whole pipeline, while fusing adjacent stages merely
// coarsens it — the decoupled-software-pipelining assignment. The result
// maps stage index to worker rank, and workers is the number of ranks it
// uses. It is the one stage plan of the FF's pipeline schedule, the machine
// execution and the host runtime, so they model the same assignment.
func PartitionStages(sec *tree.Node, nt int) (groups []int, workers int) {
	depth := Depth(sec)
	if depth == 0 {
		return nil, 0
	}
	if nt > depth {
		nt = depth
	}
	if nt < 1 {
		nt = 1
	}
	// Per-stage weight: total cycles across all iterations.
	weights := make([]float64, depth)
	for _, c := range sec.Children {
		if c.Kind != tree.Task {
			continue
		}
		s := 0
		for _, seg := range c.Children {
			for r := 0; r < seg.Reps(); r++ {
				weights[s] += float64(seg.Len) * float64(c.Reps())
				s++
			}
		}
	}
	// DP: cost[g][s] = minimal max-group-sum partitioning stages [0, s]
	// into g+1 groups.
	prefix := make([]float64, depth+1)
	for i, w := range weights {
		prefix[i+1] = prefix[i] + w
	}
	sum := func(a, b int) float64 { return prefix[b+1] - prefix[a] } // stages a..b
	const inf = 1e300
	cost := make([][]float64, nt)
	cut := make([][]int, nt)
	for g := range cost {
		cost[g] = make([]float64, depth)
		cut[g] = make([]int, depth)
	}
	for s := 0; s < depth; s++ {
		cost[0][s] = sum(0, s)
	}
	for g := 1; g < nt; g++ {
		for s := 0; s < depth; s++ {
			cost[g][s] = inf
			for k := g - 1; k < s; k++ {
				c := cost[g-1][k]
				if last := sum(k+1, s); last > c {
					c = last
				}
				if c < cost[g][s] {
					cost[g][s] = c
					cut[g][s] = k
				}
			}
			if cost[g][s] == inf { // fewer stages than groups
				cost[g][s] = cost[g-1][s]
				cut[g][s] = s
			}
		}
	}
	// Walk the cuts back into a stage->worker map.
	out := make([]int, depth)
	s := depth - 1
	for g := nt - 1; g >= 1; g-- {
		k := cut[g][s]
		for i := k + 1; i <= s; i++ {
			out[i] = g
		}
		s = k
	}
	// Stages 0..s stay in group 0 (already zero-valued). The ids ascend
	// but skip empty groups: renumber them without gaps.
	for i, prev := 0, 0; i < depth; i++ {
		if g := out[i]; g != prev {
			prev = g
			workers++
		}
		out[i] = workers
	}
	return out, workers + 1
}

// Run executes the pipeline section on main's machine with up to threads
// workers, invoking exec for every stage instance. It returns when every
// iteration has drained through every stage (the section's barrier).
func Run(main *sim.Thread, sec *tree.Node, threads int, exec Exec) {
	runs := IterRuns(sec)
	groups, nt := PartitionStages(sec, threads)
	depth := len(groups)
	if len(runs) == 0 || depth == 0 {
		return
	}

	// stageDone[s] counts iterations whose stage s has completed; the
	// engine serializes all workers, so plain ints and slices suffice.
	stageDone := make([]int, depth)
	var parked []*sim.Thread

	// wake unparks every waiting worker. Unpark never switches threads,
	// so the list is not appended to while it is walked and its storage
	// is reused.
	wake := func(w *sim.Thread) {
		for _, p := range parked {
			w.Unpark(p)
		}
		parked = parked[:0]
	}

	worker := func(rank int) func(*sim.Thread) {
		return func(w *sim.Thread) {
			i := 0
			for _, run := range runs {
				for end := i + run.Reps; i < end; i++ {
					for s := 0; s < depth; s++ {
						if groups[s] != rank {
							continue
						}
						if s >= len(run.Slots) {
							// This iteration is narrower
							// than the pipeline: the stage
							// is a no-op, but still retires
							// in order.
							stageDone[s] = i + 1
							wake(w)
							continue
						}
						// Wait for stage s-1 of this iteration.
						for s > 0 && stageDone[s-1] <= i {
							parked = append(parked, w)
							w.Park()
						}
						exec(w, run.Slots[s])
						// The stage retires when its queued
						// steps have played.
						w.Play()
						stageDone[s] = i + 1
						wake(w)
					}
				}
			}
		}
	}

	helpers := make([]*sim.Thread, 0, nt-1)
	for r := 1; r < nt; r++ {
		helpers = append(helpers, main.Spawn(worker(r)))
	}
	worker(0)(main)
	for _, h := range helpers {
		main.Join(h)
	}
}
