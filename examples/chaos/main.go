// Chaos: a fault-injection drill for the ensemble manager. A 16-node
// fleet runs under a deterministic chaos plan (internal/faults): two
// nodes crash mid-observation, one node's DAQ memory channel drops out
// and ten percent of its sync pulses vanish. The run must NOT be lost —
// the crashed nodes are quarantined with their cause recorded, the
// flaky node's trace is repaired by the robust merge, and the manager
// still produces a snapshot, an accuracy figure and a consolidation
// plan over the survivors.
//
// The output is greppable for CI smoke checks: one "quarantined=<name>"
// line per failed node and a final "survivors=<n> accuracy=<pct>" line.
//
//	go run ./examples/chaos [-seconds 60] [-chaos-seed 2024]
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"log/slog"
	"time"

	"trickledown/internal/cluster"
	"trickledown/internal/core"
	"trickledown/internal/faults"
	"trickledown/internal/machine"
	"trickledown/internal/pool"
	"trickledown/internal/power"
	"trickledown/internal/sched"
	"trickledown/internal/telemetry"
)

// fleetWorkloads cycles across the 16 nodes.
var fleetWorkloads = []string{"gcc", "mcf", "mesa", "idle", "dbt-2", "diskload", "specjbb", "mgrid"}

func main() {
	log.SetFlags(0)
	seconds := flag.Float64("seconds", 60, "observation window in simulated seconds")
	chaosSeed := flag.Uint64("chaos-seed", 2024, "seed for the fault schedule")
	verbose := flag.Bool("v", false, "debug-level logging with periodic progress lines")
	flag.Parse()
	logger := telemetry.SetupLogger(*verbose)
	if *verbose {
		defer telemetry.StartProgress(logger, 2*time.Second)()
	}

	slog.Info("training the fleet's estimator")
	gcc, err := machine.RunWorkload("gcc", 180, 1)
	if err != nil {
		log.Fatal(err)
	}
	mcf, err := machine.RunWorkload("mcf", 180, 2)
	if err != nil {
		log.Fatal(err)
	}
	dl, err := machine.RunWorkload("diskload", 150, 3)
	if err != nil {
		log.Fatal(err)
	}
	est, err := core.TrainEstimator(core.TrainingSet{
		CPU: gcc, Memory: mcf, Disk: dl, IO: dl, Chipset: gcc,
	})
	if err != nil {
		log.Fatal(err)
	}

	fleet, err := cluster.New(est)
	if err != nil {
		log.Fatal(err)
	}
	// One retry with a short backoff: transient failures get a second
	// chance before a node is declared dead.
	fleet.SetRetry(pool.Retry{Attempts: 2, BaseDelay: 10 * time.Millisecond, MaxDelay: 100 * time.Millisecond})
	for i := 0; i < 16; i++ {
		name := fmt.Sprintf("node%02d", i)
		if _, err := fleet.AddHomogeneous(name, fleetWorkloads[i%len(fleetWorkloads)], uint64(100+i)); err != nil {
			log.Fatal(err)
		}
	}

	// The drill: two crashes plus a flaky sensor chain on a survivor.
	plan := &faults.Plan{Seed: *chaosSeed, Specs: []faults.Spec{
		{Kind: faults.NodeCrash, Node: "node03", Start: *seconds * 0.25},
		{Kind: faults.NodeCrash, Node: "node11", Start: *seconds * 0.60},
		{Kind: faults.DAQDropout, Node: "node05", Channel: power.SubMemory, Start: *seconds * 0.2, Duration: 3},
		{Kind: faults.SyncDrop, Node: "node05", Start: 0, Magnitude: 0.1},
	}}
	attached, err := fleet.InjectFaults(plan)
	if err != nil {
		log.Fatal(err)
	}
	slog.Info("chaos plan armed", "seed", *chaosSeed, "specs", len(plan.Specs), "nodes_wired", attached)
	fmt.Printf("fault schedule:\n%s\n", plan.Schedule())

	slog.Info("observing fleet under chaos", "nodes", 16, "seconds", *seconds)
	runErr := fleet.RunContext(context.Background(), *seconds)
	if runErr != nil && !errors.Is(runErr, cluster.ErrNodeFailed) {
		// Only an unexpected failure class aborts the drill; injected
		// node deaths are the exercise.
		log.Fatal(runErr)
	}

	cov := fleet.Coverage()
	for _, n := range fleet.Nodes() {
		if err := n.Err(); err != nil {
			fmt.Printf("quarantined=%s cause=%q\n", n.Name, err)
		}
	}
	for _, name := range cov.Degraded {
		if n, ok := fleet.Lookup(name); ok {
			fmt.Printf("degraded=%s quality=%q\n", name, n.Quality())
		}
	}

	snap, total, err := fleet.Snapshot()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n%-9s %12s %12s %8s\n", "node", "est (W)", "meas (W)", "err")
	for _, e := range snap {
		n, ok := fleet.Lookup(e.Name)
		if !ok {
			log.Fatalf("snapshot names unknown node %s", e.Name)
		}
		meas, err := n.MeasuredMean()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-9s %12.1f %12.1f %7.2f%%\n",
			e.Name, e.Watts, meas, 100*abs(e.Watts-meas)/meas)
	}
	fmt.Printf("%-9s %12.1f  (over %d of %d nodes)\n", "fleet", total, cov.Healthy, cov.Total)

	acc, err := fleet.VerifyAccuracy()
	if err != nil {
		log.Fatal(err)
	}

	// The survivors still support a consolidation decision. With no idle
	// floor and no free threads nothing can migrate, so the scheduler
	// sheds the largest consumers first until the budget fits.
	budget := total * 0.85
	info := make([]sched.NodeInfo, len(snap))
	for i, e := range snap {
		info[i] = sched.NodeInfo{Name: e.Name, Watts: e.Watts, Healthy: true}
	}
	decision := sched.Plan(info, sched.Config{BudgetWatts: budget})
	evict := make([]string, len(decision.Actions))
	for i, a := range decision.Actions {
		evict[i] = a.Node
	}
	fmt.Printf("\nbudget %.0f W: evict %v, projected %.0f W (fits: %v)\n",
		budget, evict, decision.Projected, decision.Fits)

	fmt.Printf("\nsurvivors=%d accuracy=%.2f%%\n", cov.Healthy, acc)
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}
