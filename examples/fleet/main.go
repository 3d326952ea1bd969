// Fleet: the paper's ensemble-management motivation at fleet scale.
// A mixed fleet of simulated servers is stepped in shards on the
// cluster's worker pool; a scheduler with NO power sensors
// (internal/sched) turns each interval's trickle-down estimates — and
// nothing else — into migration and power-down decisions. The example
// then verifies the decision physically: every host that absorbed load
// is rebuilt as a combined machine (machine.NewMixed) and measured over
// the rest of the horizon, and fleet energy under the scheduler must
// beat naive static placement by an asserted margin.
//
// Everything printed to stdout is a pure deterministic function of the
// flags: the same command line produces bit-identical output at any
// -workers value, which CI exploits with a double-run cmp. Logs go to
// stderr.
//
//	go run ./examples/fleet                 # 12-node scenario with physical verification
//	go run ./examples/fleet -smoke 1000     # 1k-node sharded smoke (no physical rebuild)
package main

import (
	"flag"
	"fmt"
	"log"
	"log/slog"
	"os"

	"trickledown/internal/cluster"
	"trickledown/internal/core"
	"trickledown/internal/experiments"
	"trickledown/internal/machine"
	"trickledown/internal/sched"
	"trickledown/internal/telemetry"
)

const (
	observeSec     = 30.0 // interval the scheduler decides from
	restSec        = 90.0 // remainder of the horizon after actuation
	horizonSec     = observeSec + restSec
	threadsPerNode = 8 // default config: 4 CPUs x 2 threads
)

// nodeSpec is one fleet node's static inventory: which workload it
// runs and on how many hardware threads.
type nodeSpec struct {
	name    string
	wl      string
	threads int
}

// fleetSpec is the default scenario: four busy web nodes, two
// middle-tier app nodes and six barely-loaded edge caches — the
// energy-proportionality problem in miniature (half the fleet burns an
// idle floor for a trickle of work).
var fleetSpec = []nodeSpec{
	{"web-0", "gcc", 4}, {"web-1", "gcc", 4}, {"web-2", "gcc", 4}, {"web-3", "gcc", 4},
	{"app-0", "mcf", 2}, {"app-1", "mcf", 2},
	{"edge-0", "mesa", 1}, {"edge-1", "mesa", 1}, {"edge-2", "mesa", 1},
	{"edge-3", "mesa", 1}, {"edge-4", "mesa", 1}, {"edge-5", "mesa", 1},
}

func main() {
	log.SetFlags(0)
	smoke := flag.Int("smoke", 0, "run the N-node sharded smoke scenario instead (no physical rebuild)")
	workers := flag.Int("workers", 4, "cluster stepping workers (output is identical at any value)")
	minMargin := flag.Float64("min-margin", 10, "fail unless scheduler energy beats naive placement by this percent")
	verbose := flag.Bool("v", false, "debug-level logging on stderr")
	flag.Parse()
	telemetry.SetupLogger(*verbose)

	est := train()
	if *smoke > 0 {
		runSmoke(est, *smoke, *workers)
		return
	}
	runScenario(est, *workers, *minMargin)
}

// train fits the estimator once; the same model drives every node and
// the scheduler ("the cost of implementation is small").
func train() *core.Estimator {
	slog.Info("training the fleet's estimator")
	est, err := experiments.TrainTrio(180, 180, 150)
	check(err)
	return est
}

// placements lays a workload across the first n hardware threads.
func placements(wl string, n, base int) []machine.Placement {
	out := make([]machine.Placement, n)
	for i := range out {
		out[i] = machine.Placement{Workload: wl, Thread: base + i}
	}
	return out
}

// calibrate derives the scheduler's static inventory numbers through
// the estimator (never the rails): the hardware configuration's idle
// floor and a safe-capacity ceiling from a fully loaded box.
func calibrate(est *core.Estimator, cfg machine.Config, busy []machine.Placement) (idleW, capW float64) {
	c, err := cluster.New(est)
	check(err)
	idleCfg := cfg
	idleCfg.Seed = 901
	_, err = c.AddMixedConfig("calib-idle", idleCfg, placements("idle", len(busy), 0))
	check(err)
	busyCfg := cfg
	busyCfg.Seed = 902
	_, err = c.AddMixedConfig("calib-busy", busyCfg, busy)
	check(err)
	check(c.Run(observeSec))
	idle, ok := c.Lookup("calib-idle")
	if !ok {
		log.Fatal("calibration node missing")
	}
	idleW, err = idle.EstimatedMean()
	check(err)
	full, ok := c.Lookup("calib-busy")
	if !ok {
		log.Fatal("calibration node missing")
	}
	fullW, err := full.EstimatedMean()
	check(err)
	return idleW, fullW * 1.05
}

// runScenario is the default mode: observe, decide, actuate, then
// physically verify the decision and assert the energy margin.
func runScenario(est *core.Estimator, workers int, minMargin float64) {
	cfg := machine.DefaultConfig()
	idleW, capW := calibrate(est, cfg, placements("gcc", threadsPerNode, 0))

	rack, err := cluster.New(est)
	check(err)
	rack.SetWorkers(workers)
	for i, n := range fleetSpec {
		nodeCfg := cfg
		nodeCfg.Seed = uint64(100 + i)
		_, err := rack.AddMixedConfig(n.name, nodeCfg, placements(n.wl, n.threads, 0))
		check(err)
	}
	fmt.Printf("fleet: %d nodes, idle floor %.1f W, capacity %.1f W per node\n",
		rack.NumNodes(), idleW, capW)

	// Interval 1: observe through the estimator only.
	check(rack.Run(observeSec))
	snap, total, err := rack.Snapshot()
	check(err)
	acc, err := rack.VerifyAccuracy()
	check(err)
	fmt.Printf("interval 1 (0..%.0fs): estimated fleet draw %.1f W, sensorless accuracy %.2f%%\n",
		observeSec, total, acc)

	// Decide from estimates plus static inventory.
	info := make([]sched.NodeInfo, len(snap))
	for i, e := range snap {
		used := fleetSpec[i].threads
		info[i] = sched.NodeInfo{
			Name: e.Name, Watts: e.Watts, IdleWatts: idleW, CapacityWatts: capW,
			UsedThreads: used, FreeThreads: threadsPerNode - used, Healthy: true,
		}
	}
	decision := sched.Plan(info, sched.Config{
		MigrationCostJ: 2000, AmortizeSec: restSec, MinNodes: 2,
	})
	fmt.Printf("scheduler: %s\n", decision.Summary())
	for _, a := range decision.Actions {
		fmt.Printf("  %s\n", a)
	}
	if len(decision.Actions) == 0 {
		log.Fatal("scheduler found nothing to consolidate; scenario is broken")
	}

	// Actuate: power evicted nodes down; resolve each migrant's final
	// host through any chain of later evictions.
	finalHost := map[string][]string{} // host -> migrants, decision order
	hostOf := map[string]string{}
	for _, a := range decision.Actions {
		if a.Host == "" {
			log.Fatalf("unexpected shed without budget pressure: %v", a)
		}
		hostOf[a.Node] = a.Host
		check(rack.SetPowered(a.Node, false))
	}
	for _, a := range decision.Actions {
		h := a.Host
		for {
			next, evicted := hostOf[h]
			if !evicted {
				break
			}
			h = next
		}
		finalHost[h] = append(finalHost[h], a.Node)
	}

	// Physical verification: rebuild every host that absorbed load as a
	// combined machine and measure it over the rest of the horizon.
	specOf := map[string]nodeSpec{}
	for _, n := range fleetSpec {
		specOf[n.name] = n
	}
	measA := map[string]float64{} // per-node measured mean from interval 1
	for _, n := range rack.Nodes() {
		m, err := n.MeasuredMean()
		check(err)
		measA[n.Name] = m
	}
	verify, err := cluster.New(est)
	check(err)
	verify.SetWorkers(workers)
	type rebuilt struct{ host, label string }
	var rebuilds []rebuilt
	for _, a := range decision.Actions { // decision order keeps output stable
		host := a.Host
		if _, evicted := hostOf[host]; evicted {
			continue // load chained onward; handled at the final host
		}
		migrants, done := finalHost[host], false
		for _, r := range rebuilds {
			done = done || r.host == host
		}
		if done || len(migrants) == 0 {
			continue
		}
		hs := specOf[host]
		combined := placements(hs.wl, hs.threads, 0)
		cursor := hs.threads
		label := host
		for _, m := range migrants {
			ms := specOf[m]
			combined = append(combined, placements(ms.wl, ms.threads, cursor)...)
			cursor += ms.threads
			label += "+" + m
		}
		nodeCfg := cfg
		nodeCfg.Seed = uint64(9000 + len(rebuilds))
		_, err := verify.AddMixedConfig(host, nodeCfg, combined)
		check(err)
		rebuilds = append(rebuilds, rebuilt{host, label})
	}
	check(verify.Run(restSec))

	// Energy over the horizon: naive keeps every node powered at its
	// measured draw; the scheduler pays interval 1 everywhere, then only
	// survivors — with hosts at their measured combined draw — plus the
	// one-time migration cost.
	naiveJ, schedJ := 0.0, decision.MigrationJ
	for _, n := range fleetSpec {
		naiveJ += measA[n.name] * horizonSec
		schedJ += measA[n.name] * observeSec
	}
	fmt.Printf("physical verification (%.0f..%.0fs):\n", observeSec, horizonSec)
	for _, r := range rebuilds {
		node, ok := verify.Lookup(r.host)
		if !ok {
			log.Fatal("rebuilt host missing")
		}
		m, err := node.MeasuredMean()
		check(err)
		fmt.Printf("  %s: measured %.1f W combined\n", r.label, m)
		schedJ += m * restSec
	}
	for _, n := range fleetSpec { // untouched survivors keep their draw
		_, isHost := finalHost[n.name]
		_, evicted := hostOf[n.name]
		if !isHost && !evicted {
			schedJ += measA[n.name] * restSec
		}
	}

	margin := 100 * (naiveJ - schedJ) / naiveJ
	fmt.Printf("naive static placement: %.1f kJ over %.0f s\n", naiveJ/1000, horizonSec)
	fmt.Printf("scheduler-driven fleet: %.1f kJ (includes %.1f kJ migration cost)\n",
		schedJ/1000, decision.MigrationJ/1000)
	fmt.Printf("fleet energy saved: %.2f%%\n", margin)
	if margin < minMargin {
		fmt.Fprintf(os.Stderr, "FAIL: margin %.2f%% below required %.2f%%\n", margin, minMargin)
		os.Exit(1)
	}
	fmt.Println("OK")
}

// smokeWorkloads cycles across the smoke fleet so shards step
// mixed-cost nodes.
var smokeWorkloads = []string{"gcc", "mcf", "mesa", "vortex"}

// runSmoke is the CI scenario: n small-generation nodes stepped through
// the sharded path, one scheduling decision actuated purely through
// SetPowered, and a second interval over the survivors. No physical
// rebuild — the point is fleet-scale stepping, determinism and the
// race detector, not the energy margin.
func runSmoke(est *core.Estimator, n, workers int) {
	lightCfg := machine.DefaultConfig()
	lightCfg.NumCPUs = 1
	lightCfg.ThreadsPerCPU = 2
	lightCfg.NumDisks = 1
	idleW, capW := calibrate(est, lightCfg, placements("gcc", 2, 0))

	fleet, err := cluster.New(est)
	check(err)
	fleet.SetWorkers(workers)
	for i := 0; i < n; i++ {
		cfg := lightCfg
		cfg.Seed = uint64(3000 + i)
		_, err := fleet.AddMixedConfig(fmt.Sprintf("smoke-%05d", i), cfg,
			[]machine.Placement{{Workload: smokeWorkloads[i%len(smokeWorkloads)], Thread: i % 2}})
		check(err)
	}
	fmt.Printf("fleet[smoke]: %d nodes, idle floor %.1f W, capacity %.1f W\n", n, idleW, capW)

	const interval = 2.0
	check(fleet.Run(interval))
	buf := make([]cluster.Estimate, 0, n)
	snap, total, err := fleet.SnapshotInto(buf)
	check(err)
	acc, err := fleet.VerifyAccuracy()
	check(err)
	fmt.Printf("interval 1: estimated fleet draw %.1f W, sensorless accuracy %.2f%%\n", total, acc)

	info := make([]sched.NodeInfo, len(snap))
	for i, e := range snap {
		info[i] = sched.NodeInfo{
			Name: e.Name, Watts: e.Watts, IdleWatts: idleW, CapacityWatts: capW,
			UsedThreads: 1, FreeThreads: 1, Healthy: true,
		}
	}
	decision := sched.Plan(info, sched.Config{
		BudgetWatts: 0.6 * total, MigrationCostJ: 500, AmortizeSec: 60, MinNodes: 1,
	})
	migrated, shed := 0, 0
	for _, a := range decision.Actions {
		if a.Host == "" {
			shed++
		} else {
			migrated++
		}
		check(fleet.SetPowered(a.Node, false))
	}
	fmt.Printf("scheduler: %s (migrated %d, shed %d)\n", decision.Summary(), migrated, shed)
	if len(decision.Actions) > 0 {
		fmt.Printf("  first action: %s\n", decision.Actions[0])
	}

	check(fleet.Run(interval))
	snap, total, err = fleet.SnapshotInto(snap)
	check(err)
	cov := fleet.Coverage()
	fmt.Printf("interval 2: %d survivors, estimated fleet draw %.1f W\n", len(snap), total)
	if cov.Healthy != n-len(decision.Actions) || !cov.Full() {
		fmt.Fprintf(os.Stderr, "FAIL: coverage %+v after %d evictions\n", cov, len(decision.Actions))
		os.Exit(1)
	}
	// Survivors draw at most the projection: smoke actuation powers
	// migrants off without replaying their load on the hosts, so the
	// realized total can only undershoot it.
	if total > decision.Projected+1 {
		fmt.Fprintf(os.Stderr, "FAIL: post-actuation draw %.1f W exceeds projection %.1f W\n", total, decision.Projected)
		os.Exit(1)
	}
	fmt.Println("OK")
}

func check(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
