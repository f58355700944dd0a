// Command calibrate runs the paper's §V-D microbenchmark against the
// simulated machine and prints the fitted Ψ and Φ formulas — the
// reproduction of Eq. (6) and Eq. (7). It fits the model predictions use:
// the requested thread counts are widened to the same ladder a profile's
// calibration runs on (memmodel.Ladder).
//
// Usage:
//
//	calibrate [-cores 2,4,6,8,10,12] [-points]
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"prophet"
	"prophet/internal/experiments"
	"prophet/internal/memmodel"
	"prophet/internal/sim"
)

func main() {
	var (
		coresArg = flag.String("cores", "2,4,6,8,10,12", "thread counts to calibrate")
		points   = flag.Bool("points", false, "print every measured point")
		outFile  = flag.String("o", "", "save the fitted model as JSON to this file")
	)
	flag.Parse()

	cores, err := prophet.ParseCores(*coresArg)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	var mc sim.Config
	m, data, err := memmodel.CalibrateCtx(context.Background(), mc, memmodel.Ladder(cores, mc.MachineSpec().Cores()))
	if err != nil {
		fmt.Fprintln(os.Stderr, "calibration failed:", err)
		os.Exit(1)
	}
	fmt.Println("Memory performance model calibrated against the simulated machine")
	fmt.Println("(the reproduction of the paper's Eq. 6/7, fitted on its Westmere):")
	fmt.Println()
	fmt.Print(m)
	fmt.Println()
	fmt.Println("paper Eq. (7):  w = 101481 * d^-0.964   (d in MB/s)")
	fmt.Println("paper Eq. (6):  d2  = (1.35*d + 1758)/2")
	fmt.Println("                d4  = (5756*ln d - 38805)/4")
	fmt.Println("                d8  = (6143*ln d - 39657)/8")
	fmt.Println("                d12 = (6314*ln d - 39621)/12")

	if *outFile != "" {
		data, jerr := json.MarshalIndent(m, "", " ")
		if jerr == nil {
			jerr = os.WriteFile(*outFile, data, 0o644)
		}
		if jerr != nil {
			fmt.Fprintln(os.Stderr, "save:", jerr)
			os.Exit(1)
		}
		fmt.Println("\nmodel written to", *outFile)
	}

	if *points {
		fmt.Println()
		for _, s := range experiments.CalibrationSeries(data) {
			fmt.Print(s.Table())
		}
	}
}
