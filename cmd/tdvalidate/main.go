// Command tdvalidate runs the paper-conformance validation subsystem:
// leave-one-workload-out cross-validation of the five subsystem power
// models over the fixed-seed workload suite, the metamorphic
// conformance checks, and (with -golden) the corpus gate that fails
// when held-out accuracy regresses past the paper's 9% bound or a
// fixed-seed dataset fingerprint drifts.
//
// Usage:
//
//	tdvalidate                          # CV + checks, print summary
//	tdvalidate -o report.json           # also write the JSON report
//	tdvalidate -golden GOLDEN.json -gate   # CI gate: exit 1 on violation
//	tdvalidate -golden GOLDEN.json -update # re-bless the corpus
//	tdvalidate -mistrain Memory -golden GOLDEN.json -gate  # must fail
//
// A run validates at seed 100 and scale 0.25, or at the corpus's seed
// and scale when -golden names one to gate against; -update blesses at
// seed 100 and scale 0.25. Each trace drops its first 5 rows, and the
// error CIs are 95% bootstrap intervals over 500 resamples.
//
// Exit codes: 0 pass, 1 gate violation (or mistrain requested), 2 run
// incomplete (cancelled, timed out, or a fold failed).
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"trickledown/internal/align"
	"trickledown/internal/core"
	"trickledown/internal/experiments"
	"trickledown/internal/power"
	"trickledown/internal/validate"
)

// The run configuration without a corpus to adopt.
const (
	defaultSeed  = 100
	defaultScale = 0.25
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("tdvalidate: ")
	workers := flag.Int("workers", 0, "fold/simulation parallelism (0 = GOMAXPROCS)")
	golden := flag.String("golden", "", "golden corpus path (GOLDEN.json)")
	gate := flag.Bool("gate", false, "fail (exit 1) on any golden-corpus violation")
	update := flag.Bool("update", false, "re-bless the golden corpus from this run")
	out := flag.String("o", "", "write the JSON report to this path")
	mistrain := flag.String("mistrain", "", "deliberately corrupt this subsystem's model (CI negative test)")
	flag.Parse()

	os.Exit(run(context.Background(), defaultSeed, defaultScale, *workers,
		*golden, *gate, *update, true, *out, *mistrain))
}

// run validates at seed and scale (or the corpus's) and returns the exit
// code. The tests call it at small scales and without the conformance
// checks.
func run(ctx context.Context, seed uint64, scale float64, workers int,
	golden string, gate, update, runChecks bool, out, mistrain string) int {
	// A typo'd -mistrain would corrupt nothing and pass the gate, turning
	// CI's negative control vacuous — reject unknown names outright.
	if mistrain != "" && !knownSubsystem(mistrain) {
		log.Printf("unknown -mistrain subsystem %q (want one of %s)", mistrain, subsystemNames())
		return 2
	}

	// A gate run must reproduce the corpus configuration exactly, or the
	// fingerprints could not possibly match; adopt it up front.
	var corpus *validate.Golden
	if golden != "" && !update {
		g, err := validate.LoadGolden(golden)
		if err != nil {
			log.Print(err)
			return 2
		}
		corpus = g
		if seed != g.Seed || scale != g.Scale {
			log.Printf("adopting golden corpus configuration: seed=%d scale=%g", g.Seed, g.Scale)
			seed, scale = g.Seed, g.Scale
		}
	}

	opt := validate.Options{
		Seed:    seed,
		Scale:   scale,
		Workers: workers,
		Train:   trainFunc(mistrain),
	}
	runner := experiments.NewRunner(experiments.Options{
		Seed: seed, TrainSeed: seed, Scale: scale, Workers: workers,
	})

	report, err := validate.CrossValidate(ctx, runner, opt)
	if err != nil {
		log.Printf("cross-validation incomplete (%d/%d folds): %v",
			report.FoldsDone, report.FoldsTotal, err)
		writeReport(report, out)
		report.Render(os.Stdout)
		return 2
	}
	if runChecks {
		checks, err := validate.Checks(runner, opt)
		if err != nil {
			log.Printf("conformance checks failed to run: %v", err)
			writeReport(report, out)
			return 2
		}
		report.Checks = checks
	}
	writeReport(report, out)
	if err := report.Render(os.Stdout); err != nil {
		log.Print(err)
		return 2
	}

	if golden != "" && update {
		if err := validate.FromReport(report).Save(golden); err != nil {
			log.Print(err)
			return 2
		}
		log.Printf("blessed golden corpus: %s", golden)
		return 0
	}
	if corpus != nil {
		violations := corpus.Check(report)
		for _, v := range violations {
			fmt.Printf("gate: %s\n", v)
		}
		if len(violations) > 0 {
			if gate {
				log.Printf("FAIL: %d golden-corpus violation(s)", len(violations))
				return 1
			}
			log.Printf("%d golden-corpus violation(s) (advisory; pass -gate to enforce)", len(violations))
		} else {
			log.Print("golden corpus gate: PASS")
		}
	}
	return 0
}

func knownSubsystem(name string) bool {
	for _, s := range power.Subsystems() {
		if s.String() == name {
			return true
		}
	}
	return false
}

func subsystemNames() string {
	var names []string
	for _, s := range power.Subsystems() {
		names = append(names, s.String())
	}
	return strings.Join(names, ", ")
}

// trainFunc returns the production trainer, or one that corrupts the
// named subsystem's fitted coefficients — the hook CI uses to prove the
// gate actually fails on a bad model.
func trainFunc(mistrain string) core.TrainFunc {
	if mistrain == "" {
		return core.Train
	}
	return func(spec core.ModelSpec, ds *align.Dataset) (*core.Model, error) {
		m, err := core.Train(spec, ds)
		if err != nil {
			return nil, err
		}
		if spec.Sub.String() == mistrain {
			for i := range m.Coef {
				m.Coef[i] *= 3
			}
		}
		return m, nil
	}
}

func writeReport(r *validate.Report, path string) {
	if path == "" {
		return
	}
	f, err := os.Create(path)
	if err != nil {
		log.Print(err)
		return
	}
	defer f.Close()
	if err := r.WriteJSON(f); err != nil {
		log.Print(err)
		return
	}
	log.Printf("wrote %s", path)
}
