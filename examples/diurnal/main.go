// Diurnal: a day in the life of a small fleet, closed-loop. Eight
// nodes run the same workload under a two-period diurnal envelope
// (a 240 s "day" plus a short harmonic, starting at the morning peak).
// Each 20 s interval the controller reads per-node draws through the
// estimator's per-interval window mean — no power sensors anywhere —
// and actuates with hysteresis: when fleet utilization falls through
// the low threshold at night, sched.Plan consolidates and powers nodes
// down; when the morning ramp pushes the survivors through the high
// threshold, sched.PlanExpansion wakes nodes from the off-pool before
// they saturate. The run must consolidate below the full fleet at
// night and wake at least one node on the ramp, or it fails.
//
// Both thresholds are calibrated from the hardware's estimated idle
// floor and single-thread busy draw, not hard-coded wattages, so the
// scenario tracks the simulator rather than pinning its numbers.
//
// Everything on stdout is a pure deterministic function of the flags:
// the same command line produces bit-identical output at any -workers
// value. Logs go to stderr.
//
//	go run ./examples/diurnal
package main

import (
	"flag"
	"fmt"
	"log"
	"log/slog"
	"math"
	"os"

	"trickledown/internal/cluster"
	"trickledown/internal/core"
	"trickledown/internal/experiments"
	"trickledown/internal/machine"
	"trickledown/internal/sched"
	"trickledown/internal/telemetry"
	"trickledown/internal/workload"
)

const (
	numNodes    = 8
	daySec      = 240.0 // one full diurnal period
	intervalSec = 20.0  // controller decision interval
	intervals   = 12    // one day
)

// dayShape is the two-period envelope: phase +pi/2 starts the run at
// the peak, so the fleet sees peak -> night -> morning ramp in one day.
var dayShape = workload.DiurnalConfig{
	Base: 0.55,
	Periods: []workload.DiurnalPeriod{
		{PeriodSec: daySec, Amp: 0.5, PhaseRad: math.Pi / 2},
		{PeriodSec: daySec / 3, Amp: 0.08},
	},
}

func main() {
	log.SetFlags(0)
	workers := flag.Int("workers", 4, "cluster stepping workers (output is identical at any value)")
	verbose := flag.Bool("v", false, "debug-level logging on stderr")
	flag.Parse()
	telemetry.SetupLogger(*verbose)

	est := train()
	lightCfg := machine.DefaultConfig()
	lightCfg.NumCPUs = 1
	lightCfg.ThreadsPerCPU = 2
	lightCfg.NumDisks = 1

	// Calibrate the controller's inventory numbers through the
	// estimator: the idle floor and the draw of the one busy thread each
	// node actually runs. Thresholds sit inside the dynamic range so
	// they survive simulator retuning.
	idleW := calibrate(est, lightCfg, 901, "idle")
	busyW := calibrate(est, lightCfg, 902, "gcc")
	capW := busyW * 1.05
	dynW := busyW - idleW
	utilHigh := (idleW + 0.75*dynW) / capW
	utilLow := (idleW + 0.35*dynW) / capW

	gcc, err := workload.ByName("gcc")
	check(err)
	dspec, err := workload.DiurnalSpec(gcc, dayShape)
	check(err)

	fleet, err := cluster.New(est)
	check(err)
	fleet.SetWorkers(*workers)
	names := make([]string, numNodes)
	for i := 0; i < numNodes; i++ {
		names[i] = fmt.Sprintf("node-%d", i)
		cfg := lightCfg
		cfg.Seed = uint64(300 + i)
		// One diurnal-driven thread, one free thread of headroom.
		_, err := fleet.AddMixedConfig(names[i], cfg,
			[]machine.Placement{{Thread: 0, Spec: &dspec}})
		check(err)
	}
	fmt.Printf("fleet: %d nodes, idle %.1f W, busy %.1f W, util thresholds %.2f/%.2f\n",
		numNodes, idleW, busyW, utilLow, utilHigh)

	env, err := workload.NewDiurnal(idleInner(), dayShape)
	check(err)

	var off []sched.OffNode
	minPowered, wokeTotal := numNodes, 0
	cooldown := 0
	for i := 1; i <= intervals; i++ {
		check(fleet.Run(intervalSec))
		t := float64(i) * intervalSec

		// Observe: per-interval window means of the powered nodes.
		var on []sched.NodeInfo
		var fleetW float64
		for _, name := range names {
			node, ok := fleet.Lookup(name)
			if !ok {
				log.Fatalf("node %s missing", name)
			}
			if !node.Powered() {
				continue
			}
			w, err := node.WindowMean()
			check(err)
			fleetW += w
			on = append(on, sched.NodeInfo{
				Name: name, Watts: w, IdleWatts: idleW, CapacityWatts: capW,
				UsedThreads: 1, FreeThreads: 1, Healthy: true,
			})
		}
		util := fleetW / (float64(len(on)) * capW)

		// Decide and actuate with hysteresis.
		action := "hold"
		switch {
		case util > utilHigh && len(off) > 0:
			e := sched.PlanExpansion(on, off, sched.ExpandConfig{TargetUtil: utilHigh})
			for _, name := range e.PowerOn {
				check(fleet.SetPowered(name, true))
				wokeTotal++
			}
			off = off[len(e.PowerOn):]
			action = e.Summary()
			cooldown = 2 // woken nodes resume mid-phase; let them settle
		case util < utilLow && cooldown == 0 && len(on) > 2:
			d := sched.Plan(on, sched.Config{
				MigrationCostJ: 500, AmortizeSec: intervalSec, MinNodes: 2,
			})
			for _, a := range d.Actions {
				check(fleet.SetPowered(a.Node, false))
				off = append(off, sched.OffNode{
					Name: a.Node, IdleWatts: idleW, CapacityWatts: capW, FreeThreads: 1,
				})
			}
			action = d.Summary()
		default:
			if cooldown > 0 {
				cooldown--
			}
		}

		powered := numNodes - len(off)
		if powered < minPowered {
			minPowered = powered
		}
		fmt.Printf("t=%3.0fs env=%.2f powered=%d util=%.2f fleet=%6.1fW  %s\n",
			t, env.Envelope(t), powered, util, fleetW, action)
	}

	if minPowered >= numNodes {
		fmt.Fprintln(os.Stderr, "FAIL: the night never consolidated the fleet")
		os.Exit(1)
	}
	if wokeTotal == 0 {
		fmt.Fprintln(os.Stderr, "FAIL: the morning ramp never woke a node")
		os.Exit(1)
	}
	fmt.Printf("day complete: consolidated to %d nodes at night, woke %d on the ramp\n",
		minPowered, wokeTotal)
	fmt.Println("OK")
}

// calibrate runs one workload on a single thread of the node hardware
// and returns the estimator's mean draw.
func calibrate(est *core.Estimator, cfg machine.Config, seed uint64, wl string) float64 {
	c, err := cluster.New(est)
	check(err)
	cfg.Seed = seed
	_, err = c.AddMixedConfig("calib", cfg,
		[]machine.Placement{{Workload: wl, Thread: 0}})
	check(err)
	check(c.Run(intervalSec))
	node, ok := c.Lookup("calib")
	if !ok {
		log.Fatal("calibration node missing")
	}
	w, err := node.EstimatedMean()
	check(err)
	return w
}

// idleInner returns a quiet generator for the reference envelope (the
// Envelope method never calls it).
func idleInner() workload.Generator {
	spec, err := workload.ByName("idle")
	check(err)
	return spec.Make(0, nil)
}

// train fits the estimator once, from the paper's training trio.
func train() *core.Estimator {
	slog.Info("training the fleet's estimator")
	est, err := experiments.TrainTrio(150, 150, 120)
	check(err)
	return est
}

func check(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
