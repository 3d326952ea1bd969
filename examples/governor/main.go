// Governor: closed-loop power capping from counters alone — the paper's
// dynamic-adaptation context (Section 2.3, after Kotla's
// instruction-throttling work). A governor polls the trickle-down power
// estimate once per second and adjusts OS-level instruction throttling
// to keep total system power under a cap. It never sees a power sensor;
// the loop closes through the models because throttling shows up in the
// very counter (halted cycles) that Equation 1 consumes.
//
// The demo runs SPECjbb's ramp twice — uncapped, then capped — and
// verifies compliance against the measured rails the governor never saw.
//
//	go run ./examples/governor
package main

import (
	"fmt"
	"log"

	"trickledown/internal/core"
	"trickledown/internal/experiments"
	"trickledown/internal/machine"
	"trickledown/internal/workload"
)

const (
	capWatts = 215.0
	runSec   = 200
)

func main() {
	log.SetFlags(0)

	fmt.Println("training models...")
	est, err := experiments.TrainTrio(180, 180, 150)
	if err != nil {
		log.Fatal(err)
	}

	uncapped := run(est, false)
	capped := run(est, true)

	fmt.Printf("\n%-28s %10s %10s\n", "", "uncapped", "capped")
	fmt.Printf("%-28s %10.1f %10.1f\n", "peak measured power (W)", uncapped.peak, capped.peak)
	fmt.Printf("%-28s %10.1f %10.1f\n", "mean measured power (W)", uncapped.mean, capped.mean)
	fmt.Printf("%-28s %9.1f%% %9.1f%%\n", "seconds over the cap", uncapped.overPct, capped.overPct)
	fmt.Printf("%-28s %10.2e %10.2e\n", "work done (uops)", uncapped.uops, capped.uops)
	fmt.Printf("%-28s %10s %10.1f%%\n", "performance retained", "-", 100*capped.uops/uncapped.uops)
	if capped.overPct > 15 {
		fmt.Println("\nWARNING: governor failed to hold the cap")
	} else {
		fmt.Printf("\nthe governor held the %.0f W cap using counters only, trading\n", capWatts)
		fmt.Printf("%.0f%% of throughput for %.0f W of peak power.\n",
			100*(1-capped.uops/uncapped.uops), uncapped.peak-capped.peak)
	}
}

type result struct {
	peak, mean, overPct, uops float64
}

func run(est *core.Estimator, capped bool) result {
	spec, err := workload.ByName("specjbb")
	if err != nil {
		log.Fatal(err)
	}
	cfg := machine.DefaultConfig()
	cfg.Seed = 33
	srv, err := machine.New(cfg, spec)
	if err != nil {
		log.Fatal(err)
	}
	label := "uncapped"
	if capped {
		label = fmt.Sprintf("capped at %.0f W", capWatts)
	}
	fmt.Printf("\nrunning specjbb %s...\n", label)

	throttle := 0.0
	var res result
	n := 0.0
	seen := 0
	for sec := 1; sec <= runSec; sec++ {
		srv.Run(1)
		ds, err := srv.Dataset()
		if err != nil {
			log.Fatal(err)
		}
		if ds.Len() <= seen {
			continue
		}
		row := &ds.Rows[ds.Len()-1]
		seen = ds.Len()

		// Governor: proportional control on the counter-based estimate.
		if capped {
			estTotal := est.Estimate(&row.Counters).Total()
			gap := estTotal - capWatts
			// Asymmetric proportional control: clamp down hard on
			// violations, release slowly.
			if gap > 0 {
				throttle += 0.012 * gap
			} else {
				throttle += 0.002 * gap
			}
			if throttle < 0 {
				throttle = 0
			}
			if throttle > 0.9 {
				throttle = 0.9
			}
			srv.SetThrottleAll(throttle)
		}

		// Bookkeeping against ground truth (the governor never reads it).
		meas := row.Power.Total()
		if meas > res.peak {
			res.peak = meas
		}
		res.mean += meas
		if meas > capWatts+2 { // 2 W compliance band
			res.overPct++
		}
		for _, c := range row.Counters.CPUs {
			res.uops += float64(c.FetchedUops)
		}
		n++
		if sec%40 == 0 {
			fmt.Printf("  t=%3ds measured %6.1f W throttle %4.1f%%\n", sec, meas, 100*throttle)
		}
	}
	res.mean /= n
	res.overPct = 100 * res.overPct / n
	return res
}
