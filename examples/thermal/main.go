// Thermal: the paper's opening argument made concrete. "Rather than
// relying on relatively slow temperature sensors for observing power
// consumption... performance counters can be used as a proxy" — because
// thermal inertia delays the sensors, counter-based power estimates see
// a thermal emergency forming *before* any thermometer moves.
//
// The demo runs SPECjbb's warehouse ramp. Two watchdogs guard a CPU
// temperature limit:
//
//   - the sensor watchdog trips when the (lagged, quantized) on-board
//     sensor crosses the limit;
//   - the counter watchdog trips when the steady-state temperature
//     implied by the counter-based power estimate crosses the same
//     limit — no thermal information used at all.
//
// The difference between their trip times is the reaction headroom the
// trickle-down models buy.
//
//	go run ./examples/thermal
package main

import (
	"fmt"
	"log"

	"trickledown/internal/experiments"
	"trickledown/internal/machine"
	"trickledown/internal/power"
	"trickledown/internal/thermal"
	"trickledown/internal/workload"
)

const cpuLimitC = 62.0

func main() {
	log.SetFlags(0)

	fmt.Println("training models...")
	est, err := experiments.TrainTrio(180, 180, 150)
	if err != nil {
		log.Fatal(err)
	}

	// Run the ramping workload with a thermal model driven by the true
	// rail power (the physical reality both watchdogs are guarding).
	spec, err := workload.ByName("specjbb")
	if err != nil {
		log.Fatal(err)
	}
	cfg := machine.DefaultConfig()
	cfg.Seed = 21
	srv, err := machine.New(cfg, spec)
	if err != nil {
		log.Fatal(err)
	}
	th := thermal.New(thermal.DefaultParams())
	srv.OnSlice(func(si machine.SliceInfo) {
		th.Step(0.001, si.Truth)
	})

	// Drive second by second so the watchdogs can react online.
	var counterTrip, sensorTrip, peakTrip float64 = -1, -1, -1
	fmt.Printf("\n%5s %9s %9s %9s %11s\n", "sec", "est P(W)", "die °C", "sensor °C", "pred-SS °C")
	for sec := 1; sec <= 200; sec++ {
		srv.Run(1)
		ds, err := srv.Dataset()
		if err != nil {
			log.Fatal(err)
		}
		if ds.Len() == 0 {
			continue
		}
		row := &ds.Rows[ds.Len()-1]
		estP := est.Estimate(&row.Counters)
		predicted := th.SteadyState(estP)[power.SubCPU]
		die := th.Temps()[power.SubCPU]
		sensor := th.SensorTemps()[power.SubCPU]

		if counterTrip < 0 && predicted > cpuLimitC {
			counterTrip = float64(sec)
		}
		if peakTrip < 0 && die > cpuLimitC {
			peakTrip = float64(sec)
		}
		if sensorTrip < 0 && sensor > cpuLimitC {
			sensorTrip = float64(sec)
		}
		if sec%20 == 0 {
			fmt.Printf("%5d %9.1f %9.1f %9.1f %11.1f\n",
				sec, estP[power.SubCPU], die, sensor, predicted)
		}
	}

	fmt.Printf("\nCPU thermal limit: %.0f °C\n", cpuLimitC)
	report := func(name string, t float64) {
		if t < 0 {
			fmt.Printf("  %-34s never tripped\n", name)
			return
		}
		fmt.Printf("  %-34s t=%3.0f s\n", name, t)
	}
	report("counter-based watchdog (predictive)", counterTrip)
	report("die actually crosses the limit", peakTrip)
	report("sensor-based watchdog (lagged)", sensorTrip)
	if counterTrip > 0 && sensorTrip > counterTrip {
		fmt.Printf("\nthe counter-based watchdog led the sensor by %.0f s —\n", sensorTrip-counterTrip)
		fmt.Println("time a DVFS governor can use to act *before* the silicon is hot.")
	}
}
