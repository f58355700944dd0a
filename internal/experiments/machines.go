package experiments

import (
	"context"
	"fmt"
	"strconv"

	"prophet"
	"prophet/internal/report"
	"prophet/internal/sweep"
	"prophet/internal/workloads"
)

// MachineMatrix predicts the configured benchmarks across machine
// presets: one PredM (FF with memory model) speedup column per machine,
// one row per (benchmark, cores) pair — the paper's Fig. 12 numbers
// re-asked for hardware the paper never had. The (benchmark, cores,
// machine) grid runs as independent cells on the worker pool; each
// benchmark is profiled once through the harness cache and each machine
// variant once through the profile's own variant cache, so the matrix
// costs one re-profile + recalibration per (benchmark, machine), not
// per cell.
func (h *Harness) MachineMatrix(names []string, machines []string) *report.Table {
	cfg := h.cfg
	if names == nil {
		names = workloads.Names()
	}
	if len(machines) == 0 {
		machines = prophet.MachineNames()
	}
	var ws []*workloads.Workload
	for _, name := range names {
		w, err := workloads.ByName(name)
		if err != nil {
			continue
		}
		ws = append(ws, w)
	}

	type cellID struct{ w, c, m int }
	grid := make([]cellID, 0, len(ws)*len(cfg.Cores)*len(machines))
	for wi := range ws {
		for ci := range cfg.Cores {
			for mi := range machines {
				grid = append(grid, cellID{wi, ci, mi})
			}
		}
	}
	outs := sweep.RunCtx(h.ctx, h.eng, len(grid), func(ctx context.Context, i int) (string, error) {
		id := grid[i]
		w := ws[id.w]
		prof, err := h.profileBench(ctx, w)
		if err != nil {
			return "", err
		}
		req := prophet.Request{
			Threads:     cfg.Cores[id.c],
			Paradigm:    w.Paradigm,
			Sched:       w.Sched,
			MemoryModel: true,
			Machine:     machines[id.m],
		}
		est, err := prof.EstimateCtx(ctx, req)
		if err != nil {
			return "", err
		}
		return fmt.Sprintf("%.2f", est.Speedup), nil
	})

	headers := append([]string{"benchmark", "cores"}, machines...)
	t := report.NewTable("machine matrix — PredM speedup per machine preset", headers...)
	for wi, w := range ws {
		for ci, cores := range cfg.Cores {
			row := []string{w.Name, strconv.Itoa(cores)}
			for mi := range machines {
				o := outs[(wi*len(cfg.Cores)+ci)*len(machines)+mi]
				switch {
				case o.Skipped || o.Err != nil:
					row = append(row, "-")
				default:
					row = append(row, o.Value)
				}
			}
			t.AddRow(row...)
		}
	}
	return t
}
