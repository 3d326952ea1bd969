package core

import (
	"trickledown/internal/align"
	"trickledown/internal/stats"
)

// Per-fold evaluation hooks for the validation subsystem: Validate gives
// the paper's single Equation 6 number, but a held-out conformance gate
// needs the full picture — worst-case error, an R² that is allowed to go
// negative on unseen data, and the residual distribution in Watts.

// Eval summarizes a model's performance on one (typically held-out)
// dataset.
type Eval struct {
	// AvgErrPct is the paper's Equation 6 average relative error, percent.
	AvgErrPct float64
	// WorstErrPct is the largest single-sample relative error, percent.
	WorstErrPct float64
	// R2 is the held-out coefficient of determination; negative means the
	// model predicts worse than the measured mean, 0 means it was
	// undefined (zero measured variance).
	R2 float64
	// Resid summarizes the residuals (modeled − measured) in Watts.
	Resid stats.Summary
	// N is the number of samples evaluated.
	N int
}

// Evaluate computes the full held-out evaluation of the model on a
// dataset.
func (m *Model) Evaluate(ds *align.Dataset) (Eval, error) {
	if ds == nil || ds.Len() == 0 {
		return Eval{}, ErrNoData
	}
	measured, modeled := m.Trace(ds)
	avg, err := stats.AverageError(modeled, measured)
	if err != nil {
		return Eval{}, err
	}
	worst, err := stats.WorstError(modeled, measured)
	if err != nil {
		return Eval{}, err
	}
	r2, err := stats.R2(modeled, measured)
	if err != nil {
		r2 = 0 // zero measured variance: R² undefined
	}
	resid := make([]float64, len(measured))
	for i := range resid {
		resid[i] = modeled[i] - measured[i]
	}
	sum, err := stats.Summarize(resid)
	if err != nil {
		return Eval{}, err
	}
	return Eval{
		AvgErrPct:   avg,
		WorstErrPct: worst,
		R2:          r2,
		Resid:       sum,
		N:           len(measured),
	}, nil
}
