// Phases: the paper's phase-detection context (Section 2.4, after Isci):
// counter-based power estimates expose program power phases that a
// control-flow metric cannot see, and phase boundaries are where dynamic
// adaptation (DVFS, consolidation) should act.
//
// SPECjbb ramps through warehouse counts, producing a staircase of
// system power. The demo estimates total power per second from counters
// only, segments the series with internal/phase's online change
// detector, and prints each phase with its mean power and the subsystem
// that moved most — ending with the adaptation hint a DVFS governor
// would consume.
//
//	go run ./examples/phases
package main

import (
	"fmt"
	"log"

	"trickledown/internal/experiments"
	"trickledown/internal/machine"
	"trickledown/internal/phase"
	"trickledown/internal/power"
	"trickledown/internal/stats"
)

func main() {
	log.SetFlags(0)

	fmt.Println("training models...")
	est, err := experiments.TrainTrio(180, 180, 150)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("running specjbb and watching counter-estimated power...")
	ds, err := machine.RunWorkload("specjbb", 220, 9)
	if err != nil {
		log.Fatal(err)
	}

	// Estimate the per-second series and total power for summary stats.
	series := make([]power.Reading, ds.Len())
	totals := make([]float64, ds.Len())
	for i := range ds.Rows {
		series[i] = est.Estimate(&ds.Rows[i].Counters)
		totals[i] = series[i].Total()
	}

	const threshold = 12.0
	phases, err := phase.Detect(series, threshold)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("\ndetected %d power phases (threshold %.0f W):\n", len(phases), threshold)
	for i, p := range phases {
		driver := "startup"
		delta := 0.0
		if i > 0 {
			s, d := phase.DominantShift(phases[i-1], p)
			driver = s.String()
			delta = p.Mean - phases[i-1].Mean
			_ = d
		}
		fmt.Printf("  phase %2d  [%3d..%3ds]  mean %6.1f W  Δ%+6.1f W  driver: %s\n",
			i+1, p.Start, p.End, p.Mean, delta, driver)
	}

	sum, err := stats.Summarize(totals)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\npower swing %.1f W (%.1f..%.1f); stddev %.1f W\n",
		sum.Max-sum.Min, sum.Min, sum.Max, sum.StdDev)
	fmt.Println("adaptation hint: low-power phases are DVFS/consolidation opportunities;")
	fmt.Println("counter-based detection sees them before any temperature sensor would.")
}
