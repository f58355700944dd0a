package experiments

import (
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"
)

// BenchmarkSweepScaling times the Fig. 11 validation sweep serially and
// on a 4-worker pool, reports both as custom metrics, and records the
// comparison into results/sweep_scaling.csv. Each run gets a fresh
// harness so the profile cache cannot transfer work between the two
// configurations.
//
// On a multicore host the 4-worker sweep should cut wall time by >= 2x;
// on a single-CPU machine (some CI containers) the two times converge,
// which the CSV makes visible rather than hiding.
func BenchmarkSweepScaling(b *testing.B) {
	cfg := Config{Machine: fastMachine(), Samples: 16, Seed: 7}
	run := func(workers int) time.Duration {
		cfg := cfg
		cfg.Workers = workers
		start := time.Now()
		res := harness(cfg).Fig11()
		if res.Failed != 0 {
			b.Fatalf("workers=%d: %d failed cells", workers, res.Failed)
		}
		return time.Since(start)
	}

	var serial, par4 time.Duration
	for i := 0; i < b.N; i++ {
		serial += run(1)
		par4 += run(4)
	}
	serialMS := float64(serial.Microseconds()) / 1000 / float64(b.N)
	par4MS := float64(par4.Microseconds()) / 1000 / float64(b.N)
	b.ReportMetric(serialMS, "serial-ms/op")
	b.ReportMetric(par4MS, "par4-ms/op")
	b.ReportMetric(serialMS/par4MS, "speedup-x")
	// Domain throughput: sweep cells (one validation sample each)
	// completed per second on the 4-worker pool.
	b.ReportMetric(float64(cfg.Samples)*1000/par4MS, "cells/sec")

	csv := fmt.Sprintf("sweep,samples,serial_ms,par4_ms,speedup_x,cpus\nfig11,%d,%.2f,%.2f,%.2f,%d\n",
		cfg.Samples, serialMS, par4MS, serialMS/par4MS, runtime.GOMAXPROCS(0))
	if err := os.WriteFile("../../results/sweep_scaling.csv", []byte(csv), 0o644); err != nil {
		b.Logf("could not record results/sweep_scaling.csv: %v", err)
	}
}
