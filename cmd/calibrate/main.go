// Command calibrate compares the simulated server's per-workload rail
// power against the paper's Table 1, reporting both the full-run average
// (which includes the staggered-start ramp) and the sustained level once
// all instances are running. It is a development tool for tuning the
// workload profiles.
package main

import (
	"fmt"

	"trickledown/internal/experiments"
	"trickledown/internal/machine"
	"trickledown/internal/power"
	"trickledown/internal/workload"
)

func main() {
	fmt.Printf("%-9s %-9s  %7s %7s %7s %7s %7s\n", "workload", "series", "CPU", "Chip", "Mem", "IO", "Disk")
	for _, name := range workload.TableOrder() {
		spec, _ := workload.ByName(name)
		srv, err := machine.New(machine.DefaultConfig(), spec)
		if err != nil {
			panic(err)
		}
		rampEnd := float64(spec.Instances-1)*spec.StaggerSec + 30
		var sus power.Reading
		var susN int64
		srv.OnSlice(func(si machine.SliceInfo) {
			if si.Seconds >= rampEnd {
				for i, w := range si.Truth {
					sus[i] += w
				}
				susN++
			}
		})
		srv.Run(spec.DefaultDuration)
		m := srv.TruthMean()
		if susN > 0 {
			for i := range sus {
				sus[i] /= float64(susN)
			}
		}
		p := experiments.PaperTable1[name]
		row := func(label string, r [5]float64) {
			fmt.Printf("%-9s %-9s  %7.1f %7.2f %7.1f %7.2f %7.2f\n",
				name, label, r[0], r[1], r[2], r[3], r[4])
		}
		row("paper", p)
		row("full-avg", [5]float64(m))
		row("sustained", [5]float64(sus))
	}
}
