// Drift: the self-healing drill. A frozen trickle-down estimator is
// only as good as the counter→power relationship it was fit on; when
// the workload mix shifts underneath it, its Eq. 6 error quietly
// breaches the paper's 9% bound. This demo runs that failure and its
// remedy side by side:
//
//  1. train the five-subsystem estimator on the calibration workloads,
//  2. stream a live mixed run (gcc, mcf and diskload interleaved, so
//     every subsystem design keeps variance for the online refit) with
//     measured rails, mutating the counter mix mid-run with a seeded
//     faults.WorkloadDrift injection,
//  3. feed the stream to internal/adapt's manager, which detects the
//     drift, refits a challenger online, and hot-swaps it through the
//     shadow gate — then score the frozen and adaptive estimators on
//     the drifted tail.
//
// The run is deterministic: fixed seeds everywhere, so stdout is
// byte-identical across repeats (CI diffs two runs). The process exits
// non-zero if any mode's invariant fails, so the drill is its own gate.
//
//	go run ./examples/drift                        # frozen breaches, adaptive holds
//	go run ./examples/drift -force-bad-challenger  # negative control: gate rejects
//	go run ./examples/drift -rollback-drill        # post-swap alarm reverts champion
package main

import (
	"flag"
	"fmt"
	"log"
	"math"
	"os"

	"trickledown/internal/adapt"
	"trickledown/internal/align"
	"trickledown/internal/core"
	"trickledown/internal/experiments"
	"trickledown/internal/faults"
	"trickledown/internal/machine"
	"trickledown/internal/power"
	"trickledown/internal/tracez"
	"trickledown/internal/validate"
)

const (
	driftStart = 150.0 // seconds into the live stream
	driftMag   = 0.45  // workload-mix drift fraction
	liveSecs   = 140   // per interleaved workload (three of them)
	bound      = validate.PaperBoundPct
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("drift: ")
	badChallenger := flag.Bool("force-bad-challenger", false,
		"corrupt every challenger before the shadow gate (negative control: nothing may swap)")
	rollbackDrill := flag.Bool("rollback-drill", false,
		"hit the freshly swapped champion with a second, violent drift inside its guard window")
	diagDir := flag.String("diag-dir", "", "dump a diagnostics bundle (flight ring + metrics) here at the end")
	flag.Parse()

	frozen := train()
	fmt.Printf("trained champion %s\n", frozen.Provenance().Version)

	live := liveStream()
	injectDrift(live, driftStart, driftMag, 7)
	fmt.Printf("live stream: gcc+mcf+diskload interleaved, %d samples, workload-mix drift mag=%.2f from t=%.0fs\n",
		live.Len(), driftMag, driftStart)

	var events []adapt.Event
	cfg := adapt.Config{
		Champion:        frozen,
		Window:          90,
		MinFill:         45,
		GuardWindow:     45,
		Cooldown:        20,
		PhaseThresholdW: 500, // the drill streams one workload; no phase gating
		PhaseSettle:     3,
		Seed:            21,
		OnEvent:         func(ev adapt.Event) { events = append(events, ev) },
	}
	if *badChallenger {
		cfg.ChallengerHook = corruptChallenger
		fmt.Println("negative control: every challenger is corrupted before the gate")
	}
	mgr, err := adapt.New(cfg)
	if err != nil {
		log.Fatal(err)
	}

	nonFinite, swapObs, rollbackObs := stream(mgr, live, &events, *rollbackDrill)

	for _, ev := range events {
		fmt.Printf("event %-8s %s -> %s  err=%.2f%%  trace=%s\n",
			ev.Kind, ev.From, ev.To, ev.WindowErrPct, ev.Trace)
	}
	st := mgr.Status()
	fmt.Printf("status: swaps=%d rollbacks=%d retrains=%d rejected=%d alarms=%d quarantined=%d\n",
		st.Swaps, st.Rollbacks, st.Retrains, st.Rejected, st.Alarms, st.Quarantined)
	fmt.Printf("estimates: %d non-finite during the whole drill\n", nonFinite)

	fail := false
	if nonFinite != 0 {
		fmt.Println("FAIL: service emitted non-finite estimates")
		fail = true
	}

	switch {
	case *rollbackDrill:
		fail = checkRollback(st, swapObs, rollbackObs, cfg.Window) || fail
	case *badChallenger:
		fail = checkNegativeControl(st, mgr, frozen) || fail
	default:
		fail = checkAdaptive(st, mgr, frozen, live) || fail
	}

	if *diagDir != "" {
		// The bundle path embeds a timestamp, so it goes to stderr — stdout
		// stays byte-identical across repeats.
		rec := tracez.NewRecorder(tracez.Config{})
		if dir, err := tracez.DumpBundle(*diagDir, "drift-drill", rec, tracez.Flight()); err != nil {
			log.Printf("diagnostics bundle failed: %v", err)
		} else {
			log.Printf("diagnostics bundle: %s", dir)
		}
	}
	if fail {
		os.Exit(1)
	}
	fmt.Println("PASS")
}

// train fits the production estimator on the calibration workloads and
// stamps versioned provenance, exactly as the offline pipeline does.
func train() *core.Estimator {
	est, err := experiments.TrainTrio(180, 180, 150)
	if err != nil {
		log.Fatal(err)
	}
	return est
}

// liveStream interleaves fresh gcc, mcf and diskload runs sample by
// sample — a node hosting mixed work. The blend matters: a single
// workload leaves some subsystem designs without variance, and the
// online refit (like any OLS) needs every term excited.
func liveStream() *align.Dataset {
	g, err := machine.RunWorkload("gcc", liveSecs, 42)
	if err != nil {
		log.Fatal(err)
	}
	m, err := machine.RunWorkload("mcf", liveSecs, 43)
	if err != nil {
		log.Fatal(err)
	}
	d, err := machine.RunWorkload("diskload", liveSecs, 44)
	if err != nil {
		log.Fatal(err)
	}
	var rows []align.Row
	for i := 0; ; i++ {
		any := false
		for _, ds := range []*align.Dataset{g, m, d} {
			if i < ds.Len() {
				rows = append(rows, ds.Rows[i])
				any = true
			}
		}
		if !any {
			break
		}
	}
	// Restamp the clock so the drift ramp sees one monotone timeline.
	for i := range rows {
		rows[i].Counters.TargetSeconds = float64(i + 1)
	}
	return &align.Dataset{Rows: rows}
}

// injectDrift remixes the dataset's counters in place from start
// seconds on: the measured rails stay what the machine really drew,
// but the counters no longer mean what they meant at training time.
func injectDrift(ds *align.Dataset, start, mag float64, seed uint64) {
	plan := faults.Plan{Seed: seed, Specs: []faults.Spec{
		{Kind: faults.WorkloadDrift, CPU: -1, Start: start, Magnitude: mag},
	}}
	if err := plan.Validate(); err != nil {
		log.Fatal(err)
	}
	in := plan.Injector("")
	for i := range ds.Rows {
		s := &ds.Rows[i].Counters
		for c := range s.CPUs {
			in.PerturbCounts(s.TargetSeconds, c, &s.CPUs[c])
		}
	}
}

// stream feeds the live rows to the manager one at a time (the drills'
// determinism contract), counting non-finite champion estimates. In the
// rollback drill, a second violent drift starts right after the first
// swap; streaming stops once the rollback lands (or the guard expires).
func stream(mgr *adapt.Manager, live *align.Dataset, events *[]adapt.Event, rollback bool) (nonFinite int, swapObs, rollbackObs int) {
	swapObs, rollbackObs = -1, -1
	var second *faults.Injector
	for i := range live.Rows {
		row := &live.Rows[i]
		if second != nil {
			s := &row.Counters
			for c := range s.CPUs {
				second.PerturbCounts(s.TargetSeconds, c, &s.CPUs[c])
			}
		}
		mgr.Observe(&row.Counters, row.Power)
		r := mgr.Champion().Estimate(&row.Counters)
		for _, v := range r {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				nonFinite++
				break
			}
		}
		if len(*events) > 0 && (*events)[0].Kind == "swap" && swapObs < 0 {
			swapObs = i
			if rollback {
				// Remix hard on top of the already-drifted counters, with no
				// ramp margin: the new champion must alarm inside its guard
				// window and the manager must revert, not chase a retrain.
				plan := faults.Plan{Seed: 99, Specs: []faults.Spec{
					{Kind: faults.WorkloadDrift, CPU: -1, Start: row.Counters.TargetSeconds - 100, Magnitude: 0.9},
				}}
				second = plan.Injector("")
			}
		}
		for _, ev := range *events {
			if ev.Kind == "rollback" && rollbackObs < 0 {
				rollbackObs = i
			}
		}
		if rollback && rollbackObs >= 0 {
			break
		}
	}
	return nonFinite, swapObs, rollbackObs
}

// corruptChallenger negates the CPU model's activity response — the
// exact pathology the metamorphic shadow gate exists to catch.
func corruptChallenger(c *core.Estimator) *core.Estimator {
	bad := &core.Model{Spec: core.CPUSpec(), Coef: []float64{40, -26, -4}}
	est, err := core.NewEstimator(bad,
		c.Model(power.SubChipset), c.Model(power.SubMemory),
		c.Model(power.SubIO), c.Model(power.SubDisk))
	if err != nil {
		log.Fatal(err)
	}
	est.SetProvenance(c.Provenance())
	return est
}

// tailError scores an estimator's Eq. 6 mean error over the drifted
// tail of the stream (the last n rows, past drift ramp and swap).
func tailError(est *core.Estimator, live *align.Dataset, n int) float64 {
	if n > live.Len() {
		n = live.Len()
	}
	var sum float64
	for i := live.Len() - n; i < live.Len(); i++ {
		row := &live.Rows[i]
		truth := row.Power.Total()
		sum += math.Abs(est.Estimate(&row.Counters).Total()-truth) / truth * 100
	}
	return sum / float64(n)
}

// checkAdaptive is the headline invariant: over the drifted tail the
// frozen estimator breaches the paper bound, the adaptive one holds.
func checkAdaptive(st adapt.Status, mgr *adapt.Manager, frozen *core.Estimator, live *align.Dataset) bool {
	const tail = 120
	frozenErr := tailError(frozen, live, tail)
	adaptiveErr := tailError(mgr.Champion(), live, tail)
	fmt.Printf("drifted tail (%d samples): frozen err %.2f%%, adaptive err %.2f%% (bound %.1f%%)\n",
		tail, frozenErr, adaptiveErr, bound)
	fail := false
	if st.Swaps == 0 {
		fmt.Println("FAIL: drift never produced a swap")
		fail = true
	}
	if frozenErr <= bound {
		fmt.Println("FAIL: frozen estimator did not breach the bound (drill too gentle)")
		fail = true
	} else {
		fmt.Printf("frozen estimator BREACHES the %.1f%% bound\n", bound)
	}
	if adaptiveErr >= bound {
		fmt.Println("FAIL: adaptive estimator breached the bound")
		fail = true
	} else {
		fmt.Printf("adaptive estimator holds under the %.1f%% bound\n", bound)
	}
	p := mgr.Champion().Provenance()
	if p == nil || p.Reason != "drift-refit" || p.Parent != frozen.Provenance().Version {
		fmt.Println("FAIL: promoted champion lacks a drift-refit provenance chain")
		fail = true
	}
	return fail
}

// checkNegativeControl: with every challenger corrupted, the gate must
// reject them all and the frozen champion must keep serving.
func checkNegativeControl(st adapt.Status, mgr *adapt.Manager, frozen *core.Estimator) bool {
	fail := false
	if st.Swaps != 0 {
		fmt.Println("FAIL: a corrupted challenger swapped in")
		fail = true
	}
	if st.Rejected == 0 {
		fmt.Println("FAIL: the shadow gate was never exercised")
		fail = true
	}
	if mgr.Champion() != frozen {
		fmt.Println("FAIL: champion changed despite rejections")
		fail = true
	}
	if !fail {
		fmt.Printf("shadow gate rejected all %d corrupted challengers; champion unchanged\n", st.Rejected)
	}
	return fail
}

// checkRollback: the post-swap alarm must revert to the prior champion
// within one evaluation window of the swap.
func checkRollback(st adapt.Status, swapObs, rollbackObs, window int) bool {
	fail := false
	if st.Swaps == 0 || swapObs < 0 {
		fmt.Println("FAIL: no swap to roll back from")
		fail = true
	}
	if st.Rollbacks == 0 || rollbackObs < 0 {
		fmt.Println("FAIL: violent post-swap drift never rolled back")
		fail = true
	} else if rollbackObs-swapObs > window {
		fmt.Printf("FAIL: rollback took %d observations (> window %d)\n", rollbackObs-swapObs, window)
		fail = true
	} else {
		fmt.Printf("rollback landed %d observations after the swap (window %d)\n", rollbackObs-swapObs, window)
	}
	return fail
}
