// Tenants: multi-tenant power attribution — the chargeback use case the
// paper's per-processor accounting (Eq. 1) hints at, extended to whole
// subsystems. Four tenants share one node through a workload.Cohort
// (shared-L3/bus interference applied between them); the node's power
// is estimated sensorlessly from its counters, and core.AttributeTenants
// splits each subsystem's reading by the tenants' shares of that
// subsystem's driving metric: the idle floor divides evenly, the
// dynamic part proportionally. The metamorphic battery
// (core.CheckAttribution) gates the result — conservation, monotonicity
// in own demand, single-tenant identity — and a machine-level identity
// check replays one tenant alone and requires the cohort wrapper to be
// invisible, bit for bit.
//
// Everything on stdout is a pure deterministic function of the flags;
// logs go to stderr.
//
//	go run ./examples/tenants
package main

import (
	"flag"
	"fmt"
	"log"
	"log/slog"
	"os"

	"trickledown/internal/align"
	"trickledown/internal/core"
	"trickledown/internal/experiments"
	"trickledown/internal/machine"
	"trickledown/internal/power"
	"trickledown/internal/sim"
	"trickledown/internal/telemetry"
	"trickledown/internal/workload"
)

const shareSec = 60.0 // how long the tenants share the node

var tenantWorkloads = []string{"gcc", "mcf", "dbt-2", "mesa"}

func main() {
	log.SetFlags(0)
	verbose := flag.Bool("v", false, "debug-level logging on stderr")
	flag.Parse()
	telemetry.SetupLogger(*verbose)

	est := train()
	cfg := machine.DefaultConfig()
	cfg.Seed = 42

	// Idle floor of this hardware configuration, through the estimator
	// (never the rails — the meter stays sensorless end to end).
	idleCfg := cfg
	idleCfg.Seed = 43
	idle := meanEstimate(est, runSpecMachine(idleCfg, "idle"))

	// The shared node: one cohort, four tenants, threads 0-3.
	co := workload.NewCohort()
	mkRNG := sim.NewRNG(4242)
	for ti, wl := range tenantWorkloads {
		spec, err := workload.ByName(wl)
		check(err)
		_, err = co.Add(wl, spec.Make(ti, mkRNG.Split()))
		check(err)
	}
	spec, err := co.Spec("tenants")
	check(err)
	placements := make([]machine.Placement, len(tenantWorkloads))
	for ti := range tenantWorkloads {
		placements[ti] = machine.Placement{Thread: ti, Spec: &spec}
	}
	srv, err := machine.NewMixed(cfg, placements)
	check(err)
	srv.Run(shareSec)
	ds, err := srv.Dataset()
	check(err)
	total := meanEstimate(est, ds)

	// Attribute and gate.
	usage := co.Usage()
	tenants := make([]core.TenantActivity, len(usage))
	for i, u := range usage {
		tenants[i] = core.TenantActivityFromUsage(u)
	}
	if err := core.CheckAttribution(total, idle, tenants); err != nil {
		fmt.Fprintf(os.Stderr, "FAIL: metamorphic battery: %v\n", err)
		os.Exit(1)
	}
	per, err := core.AttributeTenants(total, idle, tenants)
	check(err)

	fmt.Printf("4 tenants shared one node for %.0f s (estimated mean %.1f W, idle floor %.1f W)\n",
		shareSec, total.Total(), idle.Total())
	fmt.Printf("%-8s %8s %8s %8s %8s %8s %9s %7s\n",
		"tenant", "CPU", "chipset", "memory", "I/O", "disk", "total", "share")
	var sum float64
	for i, r := range per {
		fmt.Printf("%-8s %7.1fW %7.1fW %7.1fW %7.1fW %7.1fW %8.1fW %6.1f%%\n",
			tenants[i].Name, r[power.SubCPU], r[power.SubChipset], r[power.SubMemory],
			r[power.SubIO], r[power.SubDisk], r.Total(), 100*r.Total()/total.Total())
		sum += r.Total()
	}
	fmt.Printf("%-8s %44s %8.1fW %6.1f%%\n", "node", "", sum, 100*sum/total.Total())
	fmt.Println("metamorphic battery: conservation, monotonicity, identity all hold")

	soloIdentity(cfg)
	fmt.Println("OK")
}

// soloIdentity proves the cohort wrapper is invisible when a tenant
// runs alone: the same workload placed plainly and through a
// single-tenant cohort, on machines with the same seed, must produce
// byte-identical ground-truth datasets.
func soloIdentity(cfg machine.Config) {
	cfg.Seed = 77
	run := func(wrap bool) string {
		spec := workload.Spec{
			Name:      "solo",
			Class:     workload.ClassInteger,
			Instances: 1,
			Make: func(instance int, rng *sim.RNG) workload.Generator {
				inner, err := workload.ByName("gcc")
				check(err)
				g := inner.Make(0, rng)
				if !wrap {
					return g
				}
				solo := workload.NewCohort()
				i, err := solo.Add("solo", g)
				check(err)
				w, err := solo.Generator(i)
				check(err)
				return w
			},
		}
		srv, err := machine.NewMixed(cfg, []machine.Placement{{Thread: 0, Spec: &spec}})
		check(err)
		srv.Run(20)
		ds, err := srv.Dataset()
		check(err)
		return align.Fingerprint(ds)
	}
	plain, wrapped := run(false), run(true)
	if plain != wrapped {
		fmt.Fprintf(os.Stderr, "FAIL: single-tenant cohort run %s != plain run %s\n", wrapped, plain)
		os.Exit(1)
	}
	fmt.Printf("single-tenant identity: cohort run == plain run (%s)\n", plain)
}

// runSpecMachine runs one registry workload on cfg and returns the
// aligned dataset.
func runSpecMachine(cfg machine.Config, wl string) *align.Dataset {
	spec, err := workload.ByName(wl)
	check(err)
	srv, err := machine.New(cfg, spec)
	check(err)
	srv.Run(shareSec)
	ds, err := srv.Dataset()
	check(err)
	return ds
}

// meanEstimate averages the estimator's per-subsystem readings over a
// dataset.
func meanEstimate(est *core.Estimator, ds *align.Dataset) power.Reading {
	var sum power.Reading
	for i := range ds.Rows {
		r := est.Estimate(&ds.Rows[i].Counters)
		for s := range sum {
			sum[s] += r[s]
		}
	}
	for s := range sum {
		sum[s] /= float64(ds.Len())
	}
	return sum
}

// train fits the estimator once, from the paper's training trio.
func train() *core.Estimator {
	slog.Info("training the estimator")
	est, err := experiments.TrainTrio(150, 150, 120)
	check(err)
	return est
}

func check(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
