package core

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"

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
	n, width := ds.Len(), len(spec.Terms)
	flat := make([]float64, n*width)
	x := make([][]float64, n)
	y := make([]float64, n)
	row := new(Metrics)
	for i := range x {
		x[i] = flat[i*width : (i+1)*width : (i+1)*width]
		y[i] = ds.Rows[i].Power[spec.Sub]
		ExtractMetricsAtInto(row, &ds.Rows[i].Counters, sim.DefaultCoreHz)
		spec.Design(x[i], row)
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

// Predict evaluates the model on one sample's row. Its design terms
// live in pooled scratch: a buffer handed to Design, a function value,
// escapes, and the pool keeps a stream of predictions from allocating.
// It is safe for concurrent use.
func (m *Model) Predict(met *Metrics) float64 {
	t := termPool.Get().(*terms)
	v := t.predict(m, met)
	termPool.Put(t)
	return v
}

// terms is reusable storage for one sample's design terms, and for the
// row Trace and EstimateSamples extract. The zero value is ready to
// use; a terms must not be used by two goroutines at once.
type terms struct {
	row Metrics
	d   []float64
}

var termPool = sync.Pool{New: func() any { return new(terms) }}

// predict designs met's terms for m in t and returns their dot product
// with m's coefficients. The sum starts at 0.0 and adds coef[k]*d[k] in
// ascending k, exactly as regress.Predict does over a row. The explicit
// conversion rounds each product before its add, so no target fuses the
// two and the production kernel can reproduce the sum.
func (t *terms) predict(m *Model, met *Metrics) float64 {
	w := len(m.Spec.Terms)
	if cap(t.d) < w {
		t.d = make([]float64, w)
	}
	d := t.d[:w]
	m.Spec.Design(d, met)
	s := 0.0
	for k, c := range m.Coef {
		s += float64(c * d[k])
	}
	return s
}

// Trace returns the aligned measured and modeled series over a dataset —
// the two curves of the paper's figures.
func (m *Model) Trace(ds *align.Dataset) (measured, modeled []float64) {
	n := ds.Len()
	both := make([]float64, 2*n)
	measured, modeled = both[:n:n], both[n:]
	var t terms
	for i := range ds.Rows {
		measured[i] = ds.Rows[i].Power[m.Spec.Sub]
		ExtractMetricsAtInto(&t.row, &ds.Rows[i].Counters, sim.DefaultCoreHz)
		modeled[i] = t.predict(m, &t.row)
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
