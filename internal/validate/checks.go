package validate

import (
	"fmt"
	"math"
	"sort"

	"trickledown/internal/align"
	"trickledown/internal/cluster"
	"trickledown/internal/core"
	"trickledown/internal/faults"
	"trickledown/internal/machine"
	"trickledown/internal/power"
	"trickledown/internal/workload"
)

// Conformance checks: model-level invariants run as metamorphic
// properties. Cross-validation says "the numbers are small"; these say
// "the models behave like power models" — an estimator can hit a low
// average error while predicting negative idle power or losing
// monotonicity in its dominant event, and only this layer notices.
//
// Every check is seeded and bounded (tens of simulated seconds), so the
// set is cheap enough to run inside the gate and deterministic enough to
// live in the byte-stable report.

// checkDurationSec is the simulated length of each check's private run.
const checkDurationSec = 60

// pooledEstimator trains the five production models on the
// concatenation of every suite workload — the "all data" estimator the
// checks probe.
func pooledEstimator(src Source, opt Options) (*core.Estimator, *align.Dataset, error) {
	var traces []*align.Dataset
	for _, name := range opt.Workloads {
		ds, err := src.ValidationDataset(name)
		if err != nil {
			return nil, nil, fmt.Errorf("validate: checks: dataset %s: %w", name, err)
		}
		traces = append(traces, ds.Skip(warmup))
	}
	training := align.Concat(traces...)
	models := make([]*core.Model, 0, power.NumSubsystems)
	for _, spec := range core.ProductionSpecs() {
		m, err := opt.Train(spec, training)
		if err != nil {
			return nil, nil, fmt.Errorf("validate: checks: training %s: %w", spec.Name, err)
		}
		models = append(models, m)
	}
	est, err := core.NewEstimator(models...)
	if err != nil {
		return nil, nil, err
	}
	return est, training, nil
}

// Checks runs every conformance check against a pooled estimator and
// returns the results in a fixed order. A failure to even build the
// estimator is an error; individual check failures are results with
// OK=false.
func Checks(src Source, opt Options) ([]CheckResult, error) {
	opt = opt.withDefaults()
	est, training, err := pooledEstimator(src, opt)
	if err != nil {
		return nil, err
	}
	idle, err := src.ValidationDataset("idle")
	if err != nil {
		return nil, fmt.Errorf("validate: checks: idle dataset: %w", err)
	}
	results := append([]CheckResult{checkIdleFloor(est, idle.Skip(warmup))},
		monotonicChecks("", est, training)...)
	results = append(results,
		checkChipsetConstant(est.Model(power.SubChipset)),
		checkFaultFinite(est, opt.Seed),
		checkAlignAgreement(opt.Seed),
		checkClusterConsistency(est, opt.Seed),
	)
	for _, r := range results {
		if r.OK {
			mChecks.With("ok").Inc()
		} else {
			mChecks.With("fail").Inc()
		}
	}
	return results, nil
}

// checkIdleFloor: on the idle workload the estimator must predict
// positive power on every rail and land its total within 10% of the
// measured idle total — the "power meter reads sane at rest" floor.
func checkIdleFloor(est *core.Estimator, idle *align.Dataset) CheckResult {
	const name = "idle-floor"
	if idle.Len() == 0 {
		return CheckResult{Name: name, Detail: "no idle samples"}
	}
	var measured, modeled float64
	railMin := [power.NumSubsystems]float64{}
	for i := range railMin {
		railMin[i] = math.Inf(1)
	}
	for i := range idle.Rows {
		row := &idle.Rows[i]
		r := est.Estimate(&row.Counters)
		for s, v := range r {
			if v < railMin[s] {
				railMin[s] = v
			}
		}
		modeled += r.Total()
		measured += row.Power.Total()
	}
	for s, v := range railMin {
		if v <= 0 || math.IsNaN(v) {
			return CheckResult{Name: name, Detail: fmt.Sprintf(
				"rail %s predicts %.3f W at idle (must stay positive)",
				power.Subsystem(s), v)}
		}
	}
	n := float64(idle.Len())
	gap := math.Abs(modeled-measured) / measured * 100
	detail := fmt.Sprintf("idle total modeled %.1f W vs measured %.1f W (gap %.2f%%)",
		modeled/n, measured/n, gap)
	return CheckResult{Name: name, OK: gap < 10, Detail: detail}
}

// sweeps are the monotone sweeps of Checks and ShadowChecks: each
// subsystem's model against its dominant feature.
var sweeps = [...]struct {
	name    string
	sub     power.Subsystem
	feature int
}{
	{"monotonic-cpu", power.SubCPU, core.SumActive},
	{"monotonic-memory", power.SubMemory, core.TotalBus},
	{"monotonic-io", power.SubIO, core.SumInts},
	{"monotonic-disk", power.SubDisk, core.SumDiskInts},
}

// monotonicChecks runs every sweep against est's models over ds, each
// result named with prefix.
func monotonicChecks(prefix string, est *core.Estimator, ds *align.Dataset) []CheckResult {
	out := make([]CheckResult, len(sweeps))
	for i, sw := range sweeps {
		out[i] = checkMonotonic(prefix+sw.name, est.Model(sw.sub), ds, sw.feature)
	}
	return out
}

// checkMonotonic sweeps a model's dominant feature across the middle of
// its observed training range (10th percentile to maximum, holding
// every other feature at its training mean) and requires predictions to
// rise with activity. A fitted quadratic may ripple slightly, so dips up
// to 1% of the sweep's total rise (or 0.05 W, whichever is larger) are
// tolerated; anything beyond means the model charges less power for more
// work.
func checkMonotonic(name string, model *core.Model, training *align.Dataset, feature int) CheckResult {
	n := training.Len()
	if n == 0 {
		return CheckResult{Name: name, Detail: "no training samples"}
	}
	agg := make([]float64, n)
	var base core.Metrics
	for i := range training.Rows {
		m := core.ExtractMetrics(&training.Rows[i].Counters)
		agg[i] = m[feature]
		for f, v := range m {
			base[f] += v
		}
	}
	for f := range base {
		base[f] /= float64(n)
	}
	sort.Float64s(agg)
	lo, hi := agg[n/10], agg[n-1]
	if hi <= lo {
		return CheckResult{Name: name, OK: true, Detail: "degenerate sweep range"}
	}
	const steps = 64
	var first, last, prev, worstDip float64
	for i := 0; i <= steps; i++ {
		base[feature] = lo + (hi-lo)*float64(i)/steps
		p := model.Predict(&base)
		if i == 0 {
			first = p
		} else if p < prev && prev-p > worstDip {
			worstDip = prev - p
		}
		prev = p
		last = p
	}
	rise := last - first
	detail := fmt.Sprintf("sweep [%.3g, %.3g]: %.2f W → %.2f W", lo, hi, first, last)
	if rise <= 0 {
		return CheckResult{Name: name, Detail: detail + " (no rise with activity)"}
	}
	if worstDip > 0.01*rise && worstDip > 0.05 {
		return CheckResult{Name: name, Detail: fmt.Sprintf(
			"%s; dip %.3f W exceeds 1%% of rise %.3f W", detail, worstDip, rise)}
	}
	return CheckResult{Name: name, OK: true, Detail: detail}
}

// checkChipsetConstant: the chipset model is a fitted constant; it must
// land in the plausible hardware envelope (the paper's board draws
// roughly 17–20 W).
func checkChipsetConstant(model *core.Model) CheckResult {
	const name = "chipset-constant"
	if len(model.Coef) != 1 {
		return CheckResult{Name: name, Detail: fmt.Sprintf(
			"expected 1 coefficient, got %d", len(model.Coef))}
	}
	c := model.Coef[0]
	detail := fmt.Sprintf("fitted constant %.2f W", c)
	return CheckResult{Name: name, OK: c > 10 && c < 30, Detail: detail}
}

// checkFaultFinite: run a machine under injected DAQ dropout, counter
// glitches and sync drops, repair the trace through the robust merge,
// and require every estimate over it to stay finite — degraded data may
// cost accuracy, never sanity.
func checkFaultFinite(est *core.Estimator, seed uint64) CheckResult {
	const name = "fault-finiteness"
	spec, err := workload.ByName("gcc")
	if err != nil {
		return CheckResult{Name: name, Detail: err.Error()}
	}
	spec.StaggerSec = 2
	cfg := machine.DefaultConfig()
	cfg.Seed = seed + 7
	srv, err := machine.New(cfg, spec)
	if err != nil {
		return CheckResult{Name: name, Detail: err.Error()}
	}
	plan := &faults.Plan{
		Seed: seed + 7,
		Specs: []faults.Spec{
			{Kind: faults.DAQDropout, Node: "checks", Channel: power.SubMemory,
				Start: 5, Duration: 20},
			{Kind: faults.CounterGlitch, Node: "checks", CPU: -1,
				Start: 10, Duration: 30, Magnitude: 0.1},
			{Kind: faults.SyncDrop, Node: "checks",
				Start: 15, Duration: 20, Magnitude: 0.1},
		},
	}
	if err := plan.Validate(); err != nil {
		return CheckResult{Name: name, Detail: err.Error()}
	}
	faults.Attach(plan, "checks", srv)
	srv.Run(checkDurationSec)
	ds, q, err := srv.DatasetRobust()
	if err != nil {
		return CheckResult{Name: name, Detail: fmt.Sprintf("robust merge failed: %v", err)}
	}
	for i := range ds.Rows {
		r := est.Estimate(&ds.Rows[i].Counters)
		if sub := r.NonFinite(); sub >= 0 {
			return CheckResult{Name: name, Detail: fmt.Sprintf(
				"row %d rail %s estimate non-finite under faults", i, sub)}
		}
	}
	return CheckResult{Name: name, OK: true, Detail: fmt.Sprintf(
		"%d repaired rows all finite (%s)", ds.Len(), q)}
}

// checkAlignAgreement: on a clean run the strict and robust merge paths
// must produce identical datasets — the repair machinery may only ever
// activate on damage.
func checkAlignAgreement(seed uint64) CheckResult {
	const name = "align-agreement"
	spec, err := workload.ByName("mcf")
	if err != nil {
		return CheckResult{Name: name, Detail: err.Error()}
	}
	spec.StaggerSec = 2
	cfg := machine.DefaultConfig()
	cfg.Seed = seed + 11
	srv, err := machine.New(cfg, spec)
	if err != nil {
		return CheckResult{Name: name, Detail: err.Error()}
	}
	srv.Run(checkDurationSec)
	strict, err := srv.Dataset()
	if err != nil {
		return CheckResult{Name: name, Detail: fmt.Sprintf("strict merge: %v", err)}
	}
	robust, q, err := srv.DatasetRobust()
	if err != nil {
		return CheckResult{Name: name, Detail: fmt.Sprintf("robust merge: %v", err)}
	}
	if q.Degraded() {
		return CheckResult{Name: name, Detail: fmt.Sprintf(
			"robust path reports repairs on clean data: %s", q)}
	}
	if fs, fr := align.Fingerprint(strict), align.Fingerprint(robust); fs != fr {
		return CheckResult{Name: name, Detail: fmt.Sprintf(
			"paths disagree on clean data: strict %s vs robust %s", fs, fr)}
	}
	return CheckResult{Name: name, OK: true, Detail: fmt.Sprintf(
		"%d rows identical on both paths", strict.Len())}
}

// checkClusterConsistency: a small cluster driven by the pooled
// estimator must keep full coverage and hold fleet-level estimate error
// within bounds — the accounting the consolidation planner trusts.
func checkClusterConsistency(est *core.Estimator, seed uint64) CheckResult {
	const name = "cluster-consistency"
	cl, err := cluster.New(est)
	if err != nil {
		return CheckResult{Name: name, Detail: err.Error()}
	}
	for i, wl := range []string{"gcc", "mcf", "diskload"} {
		if _, err := cl.AddHomogeneous(fmt.Sprintf("node%02d", i), wl, seed+uint64(i)); err != nil {
			return CheckResult{Name: name, Detail: err.Error()}
		}
	}
	if err := cl.Run(checkDurationSec); err != nil {
		return CheckResult{Name: name, Detail: err.Error()}
	}
	if cov := cl.Coverage(); !cov.Full() {
		return CheckResult{Name: name, Detail: fmt.Sprintf(
			"coverage not full: %d/%d healthy", cov.Healthy, cov.Total)}
	}
	errPct, err := cl.VerifyAccuracy()
	if err != nil {
		return CheckResult{Name: name, Detail: err.Error()}
	}
	detail := fmt.Sprintf("3-node fleet estimate error %.2f%%", errPct)
	return CheckResult{Name: name, OK: errPct < 15, Detail: detail}
}
