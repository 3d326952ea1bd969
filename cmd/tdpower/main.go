// Command tdpower is the user-facing tool of the trickle-down library: a
// sensorless system power meter for the simulated server. It trains the
// paper's five subsystem models once, then runs any workload and streams
// per-second power estimates next to the (normally invisible) measured
// rail power.
//
// Usage:
//
//	tdpower [-workload gcc] [-seconds 120] [-seed 7] [-scale 0.5] [-percpu] [-quiet] [-workers N]
//	tdpower -placement "gcc:0,gcc:1:30,dbt-2:2"   # heterogeneous placement wl:thread[:start]
//	tdpower -record trace.csv ...     # save the aligned power+counter log
//	tdpower -replay trace.csv ...     # analyze a recorded log instead of simulating
//	tdpower -record-wtrace day.wtr .. # save the per-thread workload demand as a WTR1 trace
//	tdpower -replay-wtrace day.wtr .. # re-simulate from a WTR1 trace (byte-identical ground truth)
//	tdpower -metrics-addr :9090 ...   # live /metrics, /debug/vars and /debug/pprof
//	tdpower -chaos [-chaos-seed 1]    # inject sensor faults, recover via the robust merge
//	tdpower -list
//
// The -percpu flag adds the Equation 1 per-processor attribution, the
// paper's SMP accounting use case. Status lines go to stderr as
// structured slog records (-v raises the level to Debug and enables a
// periodic progress line); results stay on stdout.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"trickledown/internal/align"
	"trickledown/internal/core"
	"trickledown/internal/experiments"
	"trickledown/internal/faults"
	"trickledown/internal/machine"
	"trickledown/internal/perfctr"
	"trickledown/internal/power"
	"trickledown/internal/sim"
	"trickledown/internal/stats"
	"trickledown/internal/telemetry"
	"trickledown/internal/tracez"
	"trickledown/internal/workload"
	"trickledown/internal/wtrace"

	// Linked for its metric registrations only: /metrics always exposes
	// the full sim/pool/cluster/daq schema (at zero when unused), so
	// dashboards never see series appear and disappear between binaries.
	_ "trickledown/internal/cluster"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("tdpower: ")
	wl := flag.String("workload", "gcc", "workload to run (see -list)")
	seconds := flag.Float64("seconds", 120, "run length in simulated seconds")
	seed := flag.Uint64("seed", 7, "simulation seed")
	scale := flag.Float64("scale", 0.5, "training-run duration multiplier")
	perCPU := flag.Bool("percpu", false, "print per-processor CPU power attribution")
	quiet := flag.Bool("quiet", false, "suppress the per-second stream, print only the summary")
	list := flag.Bool("list", false, "list workloads and exit")
	placement := flag.String("placement", "", `heterogeneous placement: comma-separated "workload:thread[:startSec]" (overrides -workload)`)
	record := flag.String("record", "", "write the aligned power+counter log to this CSV file")
	replay := flag.String("replay", "", "analyze a recorded CSV log instead of simulating")
	recordWtrace := flag.String("record-wtrace", "", "record the run's per-thread workload demand to this WTR1 trace file")
	replayWtrace := flag.String("replay-wtrace", "", "simulate from a recorded WTR1 workload trace (overrides -workload and -placement)")
	workers := flag.Int("workers", 0, "max concurrent training simulations (0 = GOMAXPROCS)")
	chaos := flag.Bool("chaos", false, "inject deterministic sensor faults (dropped syncs, a DAQ dropout, rare counter glitches) and recover via the robust merge")
	chaosSeed := flag.Uint64("chaos-seed", 1, "seed for the -chaos fault schedule")
	metricsAddr := flag.String("metrics-addr", "", "serve /metrics, /debug/vars and /debug/pprof on this address (e.g. :9090; empty = off)")
	verbose := flag.Bool("v", false, "debug-level logging with periodic progress lines")
	flag.Parse()

	logger := telemetry.SetupLogger(*verbose)
	if *metricsAddr != "" {
		obs, err := telemetry.Serve(*metricsAddr)
		if err != nil {
			log.Fatal(err)
		}
		logger.Info("telemetry listening", "addr", obs.Addr().String(),
			"metrics", fmt.Sprintf("http://%s/metrics", obs.Addr()))
	}
	if *verbose {
		defer telemetry.StartProgress(logger, 2*time.Second)()
	}

	if *list {
		fmt.Println("workloads:", strings.Join(workload.TableOrder(), " "))
		return
	}

	logger.Info("training models", "scale", *scale, "workers", *workers)
	runner := experiments.NewRunner(experiments.Options{Seed: 100, TrainSeed: 10, Scale: *scale, Workers: *workers})
	est, err := runner.Estimator()
	if err != nil {
		log.Fatal(err)
	}

	var ds *align.Dataset
	if *replay != "" {
		f, err := os.Open(*replay)
		if err != nil {
			log.Fatal(err)
		}
		ds, err = align.ReadCSV(f)
		f.Close()
		if err != nil {
			log.Fatal(err)
		}
		logger.Info("replaying recorded log", "samples", ds.Len(), "file", *replay)
	} else {
		cfg := machine.DefaultConfig()
		cfg.Seed = *seed
		var srv *machine.Server
		var label string
		var rec *wtrace.Recorder
		switch {
		case *replayWtrace != "":
			tr, err := wtrace.ReadFile(*replayWtrace)
			if err != nil {
				log.Fatal(err)
			}
			placements, err := tr.Placements()
			if err != nil {
				log.Fatal(err)
			}
			if srv, err = machine.NewMixed(cfg, placements); err != nil {
				log.Fatal(err)
			}
			fp, err := tr.Fingerprint()
			if err != nil {
				log.Fatal(err)
			}
			logger.Info("replaying workload trace", "file", *replayWtrace,
				"workload", tr.Header.Workload, "threads", tr.Header.Threads,
				"duration_sec", tr.Duration(), "fingerprint", fp)
			label = "replay:" + tr.Header.Workload
		case *placement != "":
			placements, err := parsePlacements(*placement)
			if err != nil {
				log.Fatal(err)
			}
			if *recordWtrace != "" {
				if rec, err = wrapPlacements(cfg, placements); err != nil {
					log.Fatal(err)
				}
			}
			if srv, err = machine.NewMixed(cfg, placements); err != nil {
				log.Fatal(err)
			}
			label = "mixed [" + *placement + "]"
		default:
			spec, err := workload.ByName(*wl)
			if err != nil {
				log.Fatal(err)
			}
			if *recordWtrace != "" {
				if rec, err = wtrace.NewRecorder(spec.Name, 1/cfg.Slice.Seconds(), spec.Instances); err != nil {
					log.Fatal(err)
				}
				if spec, err = wtrace.RecordSpec(spec, rec); err != nil {
					log.Fatal(err)
				}
			}
			if srv, err = machine.New(cfg, spec); err != nil {
				log.Fatal(err)
			}
			label = spec.Name
		}
		if *chaos {
			plan := chaosPlan(*chaosSeed, *seconds)
			faults.Attach(plan, "local", srv)
			logger.Info("chaos enabled", "seed", *chaosSeed, "specs", len(plan.Specs))
		}
		logger.Info("running workload", "workload", label, "seconds", *seconds,
			"cpus", cfg.NumCPUs, "threads_per_cpu", cfg.ThreadsPerCPU, "disks", cfg.NumDisks)
		srv.Run(*seconds)
		if *chaos {
			// The strict merge would refuse the degraded logs; the robust
			// path repairs them and reports what it had to do.
			var quality align.Quality
			if ds, quality, err = srv.DatasetRobust(); err != nil {
				log.Fatal(err)
			}
			logger.Info("data quality", "degraded", quality.Degraded(), "summary", quality.String())
			// The chaos drill's inspectable artifact: what the process
			// recorder captured (training cells plus any errored runs).
			ts := tracez.Default().Stats()
			logger.Info("traces", "started", ts.Started, "finished", ts.Finished,
				"anomalies", ts.Anomalies)
			for _, tr := range tracez.Default().Snapshot().Errored {
				logger.Info("errored trace", "id", tr.ID, "node", tr.Node,
					"outcome", tr.Outcome, "e2e_ms", tr.E2EMs)
			}
		} else if ds, err = srv.Dataset(); err != nil {
			log.Fatal(err)
		}
		if rec != nil {
			tr, err := rec.Trace()
			if err != nil {
				log.Fatal(err)
			}
			if err := tr.WriteFile(*recordWtrace); err != nil {
				log.Fatal(err)
			}
			fp, err := tr.Fingerprint()
			if err != nil {
				log.Fatal(err)
			}
			logger.Info("recorded workload trace", "file", *recordWtrace,
				"samples", tr.Header.Samples, "fingerprint", fp)
		}
	}
	if ds.Len() == 0 {
		log.Fatal("run produced no samples")
	}
	for _, issue := range core.CheckDataset(ds) {
		logger.Warn("dataset issue", "issue", issue)
	}
	if *record != "" {
		f, err := os.Create(*record)
		if err != nil {
			log.Fatal(err)
		}
		if err := ds.WriteCSV(f); err != nil {
			f.Close()
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		logger.Info("recorded aligned log", "samples", ds.Len(), "file", *record)
	}

	if !*quiet {
		header := fmt.Sprintf("%4s | %21s | %21s | %21s | %8s", "sec",
			"CPU est/meas", "Memory est/meas", "I/O est/meas", "total")
		fmt.Println(header)
		fmt.Println(strings.Repeat("-", len(header)))
	}
	for i := range ds.Rows {
		row := &ds.Rows[i]
		estR := est.Estimate(&row.Counters)
		if !*quiet {
			fmt.Printf("%4.0f | %9.1f /%9.1f | %9.1f /%9.1f | %9.1f /%9.1f | %8.1f\n",
				row.Counters.TargetSeconds,
				estR[power.SubCPU], row.Power[power.SubCPU],
				estR[power.SubMemory], row.Power[power.SubMemory],
				estR[power.SubIO], row.Power[power.SubIO],
				estR.Total())
		}
		if *perCPU {
			printPerCPU(est, &row.Counters)
		}
	}

	fmt.Println("\nper-subsystem average error (Eq. 6):")
	for _, s := range power.Subsystems() {
		measured, modeled := est.Model(s).Trace(ds)
		e, err := stats.AverageError(modeled, measured)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-8s %6.2f%%   (mean measured %.1f W)\n", s, e, stats.Mean(measured))
	}
}

// chaosPlan builds the -chaos fault schedule: recoverable sensor-chain
// faults only (no crash — the meter should finish its run and show the
// repair), deterministic in the seed.
func chaosPlan(seed uint64, seconds float64) *faults.Plan {
	return &faults.Plan{Seed: seed, Specs: []faults.Spec{
		{Kind: faults.SyncDrop, Start: 0, Magnitude: 0.1},
		{Kind: faults.DAQDropout, Channel: power.SubMemory, Start: seconds * 0.3, Duration: 2},
		{Kind: faults.CounterGlitch, CPU: -1, Start: 0, Magnitude: 0.01},
	}}
}

// wrapPlacements arms a WTR1 recorder over a mixed placement run: each
// placement's generator is wrapped to record its hardware thread's
// demand stream, and the recorder's chipset bias is set to the average
// over distinct placed workloads (what the machine itself applies), so
// a replay reproduces the chipset rail too.
func wrapPlacements(cfg machine.Config, placements []machine.Placement) (*wtrace.Recorder, error) {
	rec, err := wtrace.NewRecorder("mixed", 1/cfg.Slice.Seconds(), cfg.NumCPUs*cfg.ThreadsPerCPU)
	if err != nil {
		return nil, err
	}
	seen := map[string]float64{}
	for i := range placements {
		pl := &placements[i]
		spec, err := workload.ByName(pl.Workload)
		if err != nil {
			return nil, err
		}
		seen[spec.Name] = spec.ChipsetDomainBias
		inner := spec.Make
		thread, start := pl.Thread, pl.StartSec
		wspec := spec
		wspec.Steady = nil // the recorder needs every slice's demand
		wspec.Make = func(instance int, rng *sim.RNG) workload.Generator {
			g := inner(instance, rng)
			w, err := rec.Wrap(thread, start, g)
			if err != nil {
				return g
			}
			return w
		}
		pl.Spec = &wspec
	}
	var bias float64
	for _, b := range seen {
		bias += b
	}
	if len(seen) > 0 {
		rec.SetChipsetBias(bias / float64(len(seen)))
	}
	return rec, nil
}

// parsePlacements parses "workload:thread[:startSec]" items.
func parsePlacements(in string) ([]machine.Placement, error) {
	var out []machine.Placement
	for _, item := range strings.Split(in, ",") {
		parts := strings.Split(strings.TrimSpace(item), ":")
		if len(parts) < 2 || len(parts) > 3 {
			return nil, fmt.Errorf("tdpower: bad placement %q (want workload:thread[:startSec])", item)
		}
		var pl machine.Placement
		pl.Workload = parts[0]
		if _, err := fmt.Sscanf(parts[1], "%d", &pl.Thread); err != nil {
			return nil, fmt.Errorf("tdpower: bad thread in %q: %v", item, err)
		}
		if len(parts) == 3 {
			if _, err := fmt.Sscanf(parts[2], "%g", &pl.StartSec); err != nil {
				return nil, fmt.Errorf("tdpower: bad start in %q: %v", item, err)
			}
		}
		out = append(out, pl)
	}
	return out, nil
}

func printPerCPU(est *core.Estimator, s *perfctr.Sample) {
	per := est.PerCPUPower(s)
	parts := make([]string, len(per))
	for i, w := range per {
		parts[i] = fmt.Sprintf("cpu%d %.1fW", i, w)
	}
	fmt.Printf("       attribution: %s\n", strings.Join(parts, "  "))
}
