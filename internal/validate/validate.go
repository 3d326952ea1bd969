// Package validate is the paper-conformance subsystem: it continuously
// *proves* the pipeline still meets the paper's headline claim — five
// event-driven regression models estimating per-subsystem power within
// single-digit average error — instead of assuming it.
//
// Three layers build on each other:
//
//  1. CrossValidate runs leave-one-workload-out cross-validation of the
//     five production models over the fixed-seed workload suite. Unlike
//     the paper's tables (train on gcc/mcf/DiskLoad, validate
//     everywhere), every fold here scores a model on a workload that
//     contributed nothing to its coefficients, the generalization test
//     counter-based power models are known to need.
//  2. Checks runs the model-level invariants as metamorphic properties:
//     idle floors, monotonic response to each model's dominant event,
//     finiteness under fault injection, strict-vs-robust merge
//     agreement, and cluster-level accounting consistency.
//  3. Golden pins the whole thing to a checked-in corpus (GOLDEN.json):
//     dataset fingerprints plus the expected held-out error table. The
//     gate fails when accuracy regresses past the paper bound or the
//     fixed-seed data drifts at all.
//
// Everything is seeded and deterministic: two runs with the same
// options produce byte-identical reports.
package validate

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"trickledown/internal/align"
	"trickledown/internal/core"
	"trickledown/internal/pool"
	"trickledown/internal/power"
	"trickledown/internal/stats"
	"trickledown/internal/telemetry"
	"trickledown/internal/workload"
)

var (
	mFolds = telemetry.NewCounterVec("validate_folds_total",
		"cross-validation folds finished, by outcome", "outcome")
	mChecks = telemetry.NewCounterVec("validate_checks_total",
		"conformance checks evaluated, by outcome", "outcome")
)

// PaperBoundPct is the paper's headline accuracy claim: average
// subsystem model error under 9%.
const PaperBoundPct = 9.0

// The fixed run parameters: the rows trimmed from the head of every
// dataset before training or scoring (boot transients), and the
// bootstrap behind each mean error's confidence interval.
const (
	warmup     = 5
	resamples  = 500
	confidence = 0.95
)

// Source supplies per-workload validation traces. experiments.Runner
// implements it, so cross-validation shares the runner's simulation
// cache with table and figure generation.
type Source interface {
	ValidationDataset(name string) (*align.Dataset, error)
}

// Options configures a cross-validation run.
type Options struct {
	// Seed is recorded in the report and salts the bootstrap streams. It
	// must match the Source's dataset seed for the golden fingerprints to
	// mean anything.
	Seed uint64
	// Scale is recorded in the report (the Source owns the actual
	// durations).
	Scale float64
	// Workloads is the fold set; empty means workload.TableOrder().
	Workloads []string
	// Workers bounds fold parallelism (non-positive: GOMAXPROCS).
	Workers int
	// Train is the per-fold training hook (default core.Train). Tests
	// substitute mistrained variants to prove the gate fails.
	Train core.TrainFunc
}

// withDefaults fills zero fields.
func (o Options) withDefaults() Options {
	if len(o.Workloads) == 0 {
		o.Workloads = workload.TableOrder()
	}
	if o.Train == nil {
		o.Train = core.Train
	}
	return o
}

// FoldResult is one held-out evaluation: a model trained on every other
// workload, scored on this one.
type FoldResult struct {
	// Workload is the held-out workload.
	Workload string `json:"workload"`
	// Rows is the number of held-out samples scored.
	Rows int `json:"rows"`
	// ErrPct is the Equation 6 average error, percent.
	ErrPct float64 `json:"err_pct"`
	// WorstErrPct is the largest single-sample error, percent.
	WorstErrPct float64 `json:"worst_err_pct"`
	// R2 is the held-out coefficient of determination (negative:
	// worse than predicting the measured mean).
	R2 float64 `json:"r2"`
	// Residual summary, modeled − measured, Watts.
	ResidMeanW float64 `json:"resid_mean_w"`
	ResidStdW  float64 `json:"resid_std_w"`
	ResidMinW  float64 `json:"resid_min_w"`
	ResidMaxW  float64 `json:"resid_max_w"`
}

// SubsystemReport aggregates one subsystem model's held-out folds.
type SubsystemReport struct {
	// Subsystem is the rail name (power.Subsystem.String()).
	Subsystem string `json:"subsystem"`
	// MeanErrPct is the mean fold error — the number the gate bounds.
	MeanErrPct float64 `json:"mean_err_pct"`
	// WorstFoldErrPct is the worst fold's average error.
	WorstFoldErrPct float64 `json:"worst_fold_err_pct"`
	// IntegerMeanErrPct / FPMeanErrPct mirror the paper's Table 3/4
	// class split.
	IntegerMeanErrPct float64 `json:"integer_mean_err_pct"`
	FPMeanErrPct      float64 `json:"fp_mean_err_pct"`
	// CILoPct/CIHiPct bound MeanErrPct with a seeded percentile
	// bootstrap at the report's confidence.
	CILoPct float64 `json:"ci_lo_pct"`
	CIHiPct float64 `json:"ci_hi_pct"`
	// Folds holds the per-workload results in suite order.
	Folds []FoldResult `json:"folds"`
}

// CheckResult is one conformance check's outcome.
type CheckResult struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail"`
}

// Report is one full validation run. Marshal it with WriteJSON: the
// encoding is deterministic (fixed field order, sorted maps), so two
// runs of the same seed are byte-identical.
type Report struct {
	// Seed and Scale echo the run configuration.
	Seed  uint64  `json:"seed"`
	Scale float64 `json:"scale"`
	// Confidence is the bootstrap CI coverage.
	Confidence float64 `json:"confidence"`
	// Workloads is the fold suite in order.
	Workloads []string `json:"workloads"`
	// FoldsDone/FoldsTotal: a cancelled or partially failed run reports
	// fewer done than total; Coverage() is their ratio.
	FoldsDone  int `json:"folds_done"`
	FoldsTotal int `json:"folds_total"`
	// Subsystems holds per-model aggregates in power.Subsystems() order.
	Subsystems []SubsystemReport `json:"subsystems"`
	// Fingerprints maps workload → dataset fingerprint (hex), the drift
	// half of the golden corpus.
	Fingerprints map[string]string `json:"fingerprints"`
	// Checks holds conformance check outcomes (empty if checks were
	// skipped or the run was cancelled before them).
	Checks []CheckResult `json:"checks,omitempty"`
	// Errors records fold or dataset failures the run tolerated.
	Errors []string `json:"errors,omitempty"`
}

// Coverage is the fraction of planned folds that completed, in [0,1].
// Mirroring cluster.Coverage, a partial run (cancellation, fold
// failures) reports < 1 and must be treated as inconclusive, never as a
// pass.
func (r *Report) Coverage() float64 {
	if r.FoldsTotal == 0 {
		return 0
	}
	return float64(r.FoldsDone) / float64(r.FoldsTotal)
}

// ChecksOK reports whether every conformance check passed (and at least
// one ran).
func (r *Report) ChecksOK() bool {
	if len(r.Checks) == 0 {
		return false
	}
	for _, c := range r.Checks {
		if !c.OK {
			return false
		}
	}
	return true
}

// Subsystem returns the aggregate for one rail, or nil.
func (r *Report) Subsystem(name string) *SubsystemReport {
	for i := range r.Subsystems {
		if r.Subsystems[i].Subsystem == name {
			return &r.Subsystems[i]
		}
	}
	return nil
}

// CrossValidate runs leave-one-workload-out cross-validation of the
// five production subsystem models over opt.Workloads.
//
// For every fold, each model is retrained from scratch on the
// concatenation of every *other* workload's trace (via opt.Train) and
// evaluated on the held-out trace. Folds run in parallel on a bounded
// pool; each fold writes only its own slot, so the report is
// independent of scheduling order.
//
// Cancellation: when ctx expires, no further datasets are simulated and
// no further folds start. The partial report (Coverage() < 1) is
// returned alongside the context error — callers gate on Coverage, so a
// partial run can never masquerade as a pass.
func CrossValidate(ctx context.Context, src Source, opt Options) (*Report, error) {
	opt = opt.withDefaults()
	defer telemetry.StartSpan("validate.cross_validate").End()

	names := opt.Workloads
	report := &Report{
		Seed:         opt.Seed,
		Scale:        opt.Scale,
		Confidence:   confidence,
		Workloads:    names,
		FoldsTotal:   len(names),
		Fingerprints: map[string]string{},
	}
	var errs []error
	fail := func(err error) (*Report, error) {
		errs = append(errs, err)
		for _, e := range errs {
			report.Errors = append(report.Errors, e.Error())
		}
		sort.Strings(report.Errors)
		return report, errors.Join(errs...)
	}

	// Acquire every workload's trace up front (the Source caches, so
	// this is where simulation time is spent). The fetches fan out on
	// the pool; a context expiring here leaves every fold undone.
	p := pool.New(opt.Workers)
	datasets := make([]*align.Dataset, len(names))
	prints := make([]string, len(names))
	err := p.Run(ctx, len(names), func(_ context.Context, i int) error {
		ds, err := src.ValidationDataset(names[i])
		if err != nil {
			return fmt.Errorf("validate: dataset %s: %w", names[i], err)
		}
		prints[i] = align.Fingerprint(ds)
		datasets[i] = ds.Skip(warmup)
		if datasets[i].Len() == 0 {
			return fmt.Errorf("validate: dataset %s: empty after %d warmup rows", names[i], warmup)
		}
		return nil
	})
	for i, fp := range prints {
		if fp != "" {
			report.Fingerprints[names[i]] = fp
		}
	}
	if err != nil {
		return fail(err)
	}

	// Folds. folds[w][s] is workload w held out, subsystem s scored.
	specs := core.ProductionSpecs()
	folds := make([][]FoldResult, len(names))
	done := make([]bool, len(names))
	foldErr := p.Run(ctx, len(names), func(_ context.Context, w int) error {
		trainPool := make([]*align.Dataset, 0, len(names)-1)
		for j := range names {
			if j != w {
				trainPool = append(trainPool, datasets[j])
			}
		}
		training := align.Concat(trainPool...)
		results := make([]FoldResult, len(specs))
		for s, spec := range specs {
			model, err := opt.Train(spec, training)
			if err != nil {
				mFolds.With("error").Inc()
				return fmt.Errorf("validate: fold %s: training %s: %w", names[w], spec.Name, err)
			}
			ev, err := model.Evaluate(datasets[w])
			if err != nil {
				mFolds.With("error").Inc()
				return fmt.Errorf("validate: fold %s: evaluating %s: %w", names[w], spec.Name, err)
			}
			results[s] = FoldResult{
				Workload:    names[w],
				Rows:        ev.N,
				ErrPct:      ev.AvgErrPct,
				WorstErrPct: ev.WorstErrPct,
				R2:          ev.R2,
				ResidMeanW:  ev.Resid.Mean,
				ResidStdW:   ev.Resid.StdDev,
				ResidMinW:   ev.Resid.Min,
				ResidMaxW:   ev.Resid.Max,
			}
		}
		folds[w] = results
		done[w] = true
		mFolds.With("ok").Inc()
		return nil
	})
	for _, ok := range done {
		if ok {
			report.FoldsDone++
		}
	}
	report.Subsystems = aggregate(names, folds, done, opt)
	if foldErr != nil {
		return fail(foldErr)
	}
	return report, nil
}

// aggregate folds per-workload results into per-subsystem reports over
// the folds that completed.
func aggregate(names []string, folds [][]FoldResult, done []bool, opt Options) []SubsystemReport {
	integer := map[string]bool{}
	for _, n := range workload.ByClass(workload.ClassInteger) {
		integer[n] = true
	}
	subs := power.Subsystems()
	out := make([]SubsystemReport, 0, len(subs))
	for s, sub := range subs {
		rep := SubsystemReport{Subsystem: sub.String()}
		var all, intErrs, fpErrs []float64
		for w := range names {
			if !done[w] {
				continue
			}
			f := folds[w][s]
			rep.Folds = append(rep.Folds, f)
			all = append(all, f.ErrPct)
			if integer[f.Workload] {
				intErrs = append(intErrs, f.ErrPct)
			} else {
				fpErrs = append(fpErrs, f.ErrPct)
			}
			if f.ErrPct > rep.WorstFoldErrPct {
				rep.WorstFoldErrPct = f.ErrPct
			}
		}
		rep.MeanErrPct = stats.Mean(all)
		rep.IntegerMeanErrPct = stats.Mean(intErrs)
		rep.FPMeanErrPct = stats.Mean(fpErrs)
		// Bootstrap CI on the mean fold error. The seed mixes the run
		// seed with the subsystem index so the streams are independent
		// yet reproducible.
		if len(all) > 0 {
			ci, err := stats.BootstrapCI(all, stats.Mean,
				resamples, confidence, opt.Seed*0x9e3779b9+uint64(s))
			if err == nil {
				rep.CILoPct, rep.CIHiPct = ci.Lo, ci.Hi
			}
		}
		out = append(out, rep)
	}
	return out
}
