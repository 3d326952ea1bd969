package experiments

import (
	"fmt"
	"math"

	"trickledown/internal/align"
	"trickledown/internal/core"
	"trickledown/internal/disk"
	"trickledown/internal/machine"
	"trickledown/internal/workload"
)

// Extension experiments: studies beyond the paper's evaluation that
// probe where the trickle-down approach ends. Extensions returns one
// comparison per study for the report to render; the quantitative
// claims are asserted in tests, not just printed.

// Comparison pairs two models' Equation 6 errors on one evaluation.
type Comparison struct {
	// Name describes the study.
	Name string
	// Baseline and Variant label the two models.
	Baseline, Variant string
	// BaselineErr and VariantErr are their Eq. 6 errors, percent.
	BaselineErr, VariantErr float64
}

func (c Comparison) String() string {
	return fmt.Sprintf("%s: %s %.2f%% vs %s %.2f%%",
		c.Name, c.Baseline, c.BaselineErr, c.Variant, c.VariantErr)
}

// dvfsRun runs gcc stepping through the given operating points. Its
// steps scale without Runner.duration's 30-second floor, which would
// lengthen the 25-second sweep steps at full scale; at small scales the
// study fails and Extensions reports it as n/a.
func (r *Runner) dvfsRun(schedule []float64, secsPer float64, seed uint64) (*align.Dataset, error) {
	spec, err := workload.ByName("gcc")
	if err != nil {
		return nil, err
	}
	spec.StaggerSec = 1
	cfg := machine.DefaultConfig()
	cfg.Seed = seed
	srv, err := machine.New(cfg, spec)
	if err != nil {
		return nil, err
	}
	srv.Run(20)
	for _, f := range schedule {
		srv.SetFreqScaleAll(f)
		srv.Run(secsPer * r.opt.Scale)
	}
	ds, err := srv.Dataset()
	if err != nil {
		return nil, err
	}
	return ds.Skip(20), nil
}

// dvfsStudy compares fixed-frequency Eq. 1 against the
// frequency-aware variant on a machine at a 0.6x operating point.
func (r *Runner) dvfsStudy() (baseline, variant float64, err error) {
	fixedTrain, err := r.dvfsRun([]float64{1.0}, 120, r.opt.TrainSeed)
	if err != nil {
		return 0, 0, err
	}
	eq1, err := core.Train(core.CPUSpec(), fixedTrain)
	if err != nil {
		return 0, 0, err
	}
	sweepTrain, err := r.dvfsRun([]float64{1.0, 0.8, 0.6, 0.5, 0.9, 0.7}, 25, r.opt.TrainSeed)
	if err != nil {
		return 0, 0, err
	}
	aware, err := core.Train(core.CPUDVFSSpec(), sweepTrain)
	if err != nil {
		return 0, 0, err
	}
	eval, err := r.dvfsRun([]float64{0.6}, 60, r.opt.Seed)
	if err != nil {
		return 0, 0, err
	}
	return validatePair(eq1, aware, eval)
}

// spindownRun runs a single DiskLoad instance on mobile-policy disks,
// which cycle between rotation and standby.
func (r *Runner) spindownRun(seed uint64, seconds float64) (*align.Dataset, error) {
	cfg := machine.DefaultConfig()
	cfg.Seed = seed
	cfg.DiskPolicy = disk.MobilePolicy()
	srv, err := machine.NewMixed(cfg, []machine.Placement{{Workload: "diskload", Thread: 0}})
	if err != nil {
		return nil, err
	}
	srv.Run(r.duration(seconds))
	return srv.Dataset()
}

// spindownStudy compares the stateless Eq. 4 against the
// history-aware standby model on disks with power management.
func (r *Runner) spindownStudy() (baseline, variant float64, err error) {
	train, err := r.spindownRun(r.opt.TrainSeed, 260)
	if err != nil {
		return 0, 0, err
	}
	eval, err := r.spindownRun(r.opt.Seed, 200)
	if err != nil {
		return 0, 0, err
	}
	flat, err := core.Train(core.DiskSpec(), train)
	if err != nil {
		return 0, 0, err
	}
	seq, err := core.TrainSeq(core.DiskStandbySpec(0.25), train)
	if err != nil {
		return 0, 0, err
	}
	return validatePair(flat, seq, eval)
}

// osUtilStudy compares the Heath/Kotla-style OS-utilization CPU model
// against Eq. 1 on an IPC-varying evaluation.
func (r *Runner) osUtilStudy() (baseline, variant float64, err error) {
	train, err := r.dataset("gcc", r.duration(240), r.opt.TrainSeed)
	if err != nil {
		return 0, 0, err
	}
	eq1, err := core.Train(core.CPUSpec(), train)
	if err != nil {
		return 0, 0, err
	}
	utilM, err := core.Train(core.CPUOSUtilSpec(), train)
	if err != nil {
		return 0, 0, err
	}
	eval, err := r.dataset("lucas", r.duration(150), r.opt.Seed)
	if err != nil {
		return 0, 0, err
	}
	return validatePair(utilM, eq1, eval)
}

// validator is a fitted model: a plain core.Model or a core.SeqModel.
type validator interface {
	Validate(*align.Dataset) (float64, error)
}

// validatePair returns the Eq. 6 errors of a baseline and a variant
// model on one evaluation trace.
func validatePair(baseline, variant validator, eval *align.Dataset) (float64, float64, error) {
	be, err := baseline.Validate(eval)
	if err != nil {
		return 0, 0, err
	}
	ve, err := variant.Validate(eval)
	if err != nil {
		return 0, 0, err
	}
	return be, ve, nil
}

// Extensions runs every extension study. A study that fails is recorded
// in CellErrors and comes back with NaN errors, which render as n/a, as
// a failed table cell does: one lost study does not lose the report.
func (r *Runner) Extensions() []Comparison {
	out := []Comparison{
		{Name: "CPU model under DVFS (0.6x operating point)",
			Baseline: "fixed-frequency Eq.1", Variant: "frequency-aware Eq.1 (fV²)"},
		{Name: "Disk model on spindown hardware",
			Baseline: "stateless Eq.4", Variant: "Eq.4 + EWMA recent-activity"},
		{Name: "CPU model channel (lucas: high utilization, low IPC)",
			Baseline: "OS-utilization (Heath/Kotla)", Variant: "on-chip counters Eq.1"},
	}
	for i, study := range []func() (float64, float64, error){
		r.dvfsStudy, r.spindownStudy, r.osUtilStudy,
	} {
		c := &out[i]
		var err error
		if c.BaselineErr, c.VariantErr, err = study(); err != nil {
			c.BaselineErr, c.VariantErr = math.NaN(), math.NaN()
			r.recordCellErr(fmt.Errorf("experiments: %s: %w", c.Name, err))
		}
	}
	return out
}
