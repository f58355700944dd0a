package ff

import (
	"prophet/internal/clock"
	"prophet/internal/pipesim"
	"prophet/internal/tree"
)

// This file emulates pipeline-parallel sections — the paper's §VIII
// extension ("pipelining can be easily supported by extending annotations
// [23] and the emulation algorithm"), after Thies et al.'s coarse-grained
// pipeline parallelism for C loops.
//
// Model: a pipeline section's tasks are loop iterations; the segments of
// each task are stages. Stage s of iteration i may start only after
//
//	stage s-1 of iteration i   (data flows through the iteration), and
//	stage s   of iteration i-1 (each stage processes iterations in order).
//
// Stages are fused into contiguous groups balanced by stage weight, one
// worker per group (pipesim.PartitionStages, the decoupled-software-
// pipelining assignment), so a stage also waits for its worker's previous
// work. L stages additionally serialize on their lock.

// emulatePipeline fast-forwards one pipeline section starting at start on
// p CPUs and returns its duration including fork/join overhead. The FF
// and the machine execution share the stage plan, so they model the same
// assignment.
func emulatePipeline(st *state, sec *tree.Node, start clock.Cycles, p int) clock.Cycles {
	runs := pipesim.IterRuns(sec)
	groups, nt := pipesim.PartitionStages(sec, p)
	if len(runs) == 0 || nt == 0 {
		return 0
	}
	depth := len(groups)
	begin := start + st.ov.ForkPerThread*clock.Cycles(nt-1) + st.ov.WorkerInit

	workerTime := make([]clock.Cycles, nt)
	for w := range workerTime {
		workerTime[w] = begin
	}
	stageFinish := make([]clock.Cycles, depth) // finish of stage s, previous iteration
	var finish clock.Cycles
	for _, run := range runs {
		for k := 0; k < run.Reps; k++ {
			st.tick()
			var prevStageEnd clock.Cycles = begin
			for s, seg := range run.Slots {
				if s >= depth {
					break
				}
				w := groups[s]
				t := workerTime[w]
				if prevStageEnd > t {
					t = prevStageEnd
				}
				if stageFinish[s] > t {
					t = stageFinish[s]
				}
				t += st.ov.Dispatch
				switch seg.Kind {
				case tree.L:
					if f := st.lockFree[seg.LockID]; f > t {
						t = f
					}
					t += st.ov.LockEnter + st.scaledOn(w, seg.Len) + st.ov.LockExit
					st.lockFree[seg.LockID] = t
				default: // U
					t += st.scaledOn(w, seg.Len)
				}
				workerTime[w] = t
				stageFinish[s] = t
				prevStageEnd = t
			}
			if prevStageEnd > finish {
				finish = prevStageEnd
			}
		}
	}
	return finish - start + st.ov.JoinBarrier
}
