package core

import (
	"errors"
	"fmt"
	"math"
	"strings"

	"trickledown/internal/align"
	"trickledown/internal/power"
	"trickledown/internal/regress"
	"trickledown/internal/sim"
	"trickledown/internal/stats"
)

// ErrNoData is returned when training or validating on an empty dataset.
var ErrNoData = errors.New("core: empty dataset")

// ErrNonFinite is returned when training data contains NaN or Inf — a
// degraded trace that must go through align.MergeRobust (or be dropped)
// before it can fit coefficients. OLS would otherwise propagate the NaN
// into every coefficient silently.
var ErrNonFinite = errors.New("core: non-finite value in training data")

// TrainFunc is the per-fold training hook of the validation subsystem:
// anything that turns a spec plus a training dataset into a fitted
// model. Train is the production implementation; the conformance gate's
// negative tests substitute deliberately mistrained variants to prove
// the accuracy gate actually fails.
type TrainFunc func(spec ModelSpec, ds *align.Dataset) (*Model, error)

// Model is a fitted subsystem power model.
type Model struct {
	// Spec is the model's definition.
	Spec ModelSpec
	// Coef holds the fitted coefficients, one per design column.
	Coef []float64
	// Fit carries the training diagnostics.
	Fit *regress.Fit
}

// Train fits spec against the measured rail power in ds.
func Train(spec ModelSpec, ds *align.Dataset) (*Model, error) {
	if ds == nil || ds.Len() == 0 {
		return nil, ErrNoData
	}
	x := make([][]float64, ds.Len())
	y := make([]float64, ds.Len())
	for i, row := range ds.Rows {
		m := ExtractMetrics(&row.Counters)
		x[i] = spec.Design(nil, m)
		y[i] = row.Power[spec.Sub]
	}
	fit, err := fitRows(spec.Name, spec.Sub, spec.Terms, x, y)
	if err != nil {
		return nil, err
	}
	return &Model{Spec: spec, Coef: fit.Coef, Fit: fit}, nil
}

// fitRows is the one path from design rows to coefficients shared by
// Train and TrainSeq. It rejects a non-finite rail or design term with
// ErrNonFinite, and names the design term a rank-deficiency error
// points at.
func fitRows(name string, sub power.Subsystem, terms []string, x [][]float64, y []float64) (*regress.Fit, error) {
	for i, row := range x {
		if math.IsNaN(y[i]) || math.IsInf(y[i], 0) {
			return nil, fmt.Errorf("%w: %s rail at row %d", ErrNonFinite, sub, i)
		}
		for j, v := range row {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				term := fmt.Sprintf("column %d", j)
				if j < len(terms) {
					term = terms[j]
				}
				return nil, fmt.Errorf("%w: %s design term %s at row %d",
					ErrNonFinite, name, term, i)
			}
		}
	}
	fit, err := regress.OLS(x, y)
	var rank *regress.RankError
	if errors.As(err, &rank) && rank.Col < len(terms) {
		return nil, fmt.Errorf("core: training %s: %w (%s)", name, err, terms[rank.Col])
	}
	if err != nil {
		return nil, fmt.Errorf("core: training %s: %w", name, err)
	}
	return fit, nil
}

// Predict evaluates the model on one sample's metrics. The design row
// is built in met's scratch buffer, so a Metrics reused across samples
// (ExtractMetricsAtInto) predicts without allocating; the same Metrics
// must not reach two Predict calls concurrently. The buffer is stored
// back only when Design had to grow it.
func (m *Model) Predict(met *Metrics) float64 {
	row := m.Spec.Design(met.row[:0], met)
	if cap(row) > cap(met.row) {
		met.row = row
	}
	return regress.Predict(m.Coef, row)
}

// Trace returns the aligned measured and modeled series over a dataset —
// the two curves of the paper's figures.
func (m *Model) Trace(ds *align.Dataset) (measured, modeled []float64) {
	measured = make([]float64, ds.Len())
	modeled = make([]float64, ds.Len())
	var met Metrics
	for i := range ds.Rows {
		row := &ds.Rows[i]
		measured[i] = row.Power[m.Spec.Sub]
		ExtractMetricsAtInto(&met, &row.Counters, sim.DefaultCoreHz)
		modeled[i] = m.Predict(&met)
	}
	return measured, modeled
}

// Validate computes the paper's Equation 6 average error (percent) of
// the model over a dataset.
func (m *Model) Validate(ds *align.Dataset) (float64, error) {
	if ds == nil || ds.Len() == 0 {
		return 0, ErrNoData
	}
	measured, modeled := m.Trace(ds)
	return stats.AverageError(modeled, measured)
}

// ValidateOffset computes Equation 6 after removing a DC offset, the
// paper's procedure for the disk model ("this error is calculated by
// first subtracting the 21.6W of idle (DC) disk power consumption").
func (m *Model) ValidateOffset(ds *align.Dataset, dc float64) (float64, error) {
	if ds == nil || ds.Len() == 0 {
		return 0, ErrNoData
	}
	measured, modeled := m.Trace(ds)
	return stats.AverageErrorOffset(modeled, measured, dc)
}

// String renders the fitted model with named coefficients.
func (m *Model) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s [%s]:", m.Spec.Name, m.Spec.Sub)
	for i, c := range m.Coef {
		term := fmt.Sprintf("x%d", i)
		if i < len(m.Spec.Terms) {
			term = m.Spec.Terms[i]
		}
		if m.Fit != nil && i < len(m.Fit.StdErr) {
			fmt.Fprintf(&b, " (%+.4g±%.2g)*%s", c, m.Fit.StdErr[i], term)
		} else {
			fmt.Fprintf(&b, " %+.4g*%s", c, term)
		}
	}
	if m.Fit != nil {
		fmt.Fprintf(&b, "  (R²=%.3f, n=%d)", m.Fit.R2, m.Fit.N)
	}
	return b.String()
}
