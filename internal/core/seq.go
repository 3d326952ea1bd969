package core

import (
	"fmt"

	"trickledown/internal/align"
	"trickledown/internal/power"
	"trickledown/internal/regress"
	"trickledown/internal/stats"
)

// Sequence-aware models. The paper's models are memoryless — each
// estimate uses one sampling interval's rates — which is exactly why
// they break on hardware whose power depends on *history*, like a disk
// that spins down after a stretch of idleness (see
// BenchmarkAblationDiskSpindown). A SeqSpec designs its regression row
// from the whole metric history up to the current sample, so features
// like "exponentially weighted recent disk interrupts" become
// expressible while the training/validation machinery stays identical.

// SeqSpec is a ModelSpec whose design function sees the history.
type SeqSpec struct {
	// Name identifies the model in reports.
	Name string
	// Sub is the subsystem whose rail the model predicts.
	Sub power.Subsystem
	// Design maps (history, index) to the regression row for sample i.
	// history[0..i] are valid; later entries must not be touched.
	Design func(history []Metrics, i int) []float64
	// Terms documents the design columns.
	Terms []string
}

// SeqModel is a fitted sequence-aware model.
type SeqModel struct {
	Spec SeqSpec
	Coef []float64
	Fit  *regress.Fit
}

// metricsHistory extracts every row's metrics once.
func metricsHistory(ds *align.Dataset) []Metrics {
	hist := make([]Metrics, ds.Len())
	for i := range ds.Rows {
		hist[i] = ExtractMetrics(&ds.Rows[i].Counters)
	}
	return hist
}

// TrainSeq fits a sequence-aware spec against the measured rail power.
func TrainSeq(spec SeqSpec, ds *align.Dataset) (*SeqModel, error) {
	if ds == nil || ds.Len() == 0 {
		return nil, ErrNoData
	}
	hist := metricsHistory(ds)
	x := make([][]float64, ds.Len())
	y := make([]float64, ds.Len())
	for i := range ds.Rows {
		x[i] = spec.Design(hist, i)
		y[i] = ds.Rows[i].Power[spec.Sub]
	}
	fit, err := fitRows(spec.Name, spec.Sub, spec.Terms, x, y)
	if err != nil {
		return nil, err
	}
	return &SeqModel{Spec: spec, Coef: fit.Coef, Fit: fit}, nil
}

// Trace returns measured and modeled series over a dataset.
func (m *SeqModel) Trace(ds *align.Dataset) (measured, modeled []float64) {
	hist := metricsHistory(ds)
	measured = make([]float64, ds.Len())
	modeled = make([]float64, ds.Len())
	for i := range ds.Rows {
		measured[i] = ds.Rows[i].Power[m.Spec.Sub]
		modeled[i] = regress.Predict(m.Coef, m.Spec.Design(hist, i))
	}
	return measured, modeled
}

// Validate computes the Equation 6 average error over a dataset.
func (m *SeqModel) Validate(ds *align.Dataset) (float64, error) {
	if ds == nil || ds.Len() == 0 {
		return 0, ErrNoData
	}
	measured, modeled := m.Trace(ds)
	return stats.AverageError(modeled, measured)
}

// DiskStandbySpec extends Equation 4 with history: an exponentially
// weighted recent-interrupt level whose decay matches the spindown
// timeout, letting the fit learn "no recent disk work ⇒ the spindle has
// stopped ⇒ shed the rotation floor". alpha ≈ samplePeriod/timeout.
func DiskStandbySpec(alpha float64) SeqSpec {
	return SeqSpec{
		Name: fmt.Sprintf("disk-standby (Eq.4 + EWMA %.2g)", alpha),
		Sub:  power.SubDisk,
		Design: func(hist []Metrics, i int) []float64 {
			// Recompute the EWMA incrementally over the prefix. The
			// closure is called in ascending i by TrainSeq/Trace, so a
			// simple cache keyed on the slice identity would work, but
			// recomputing keeps the function pure; prefixes are short at
			// 1 Hz sampling.
			acc := 0.0
			if len(hist) > 0 {
				acc = hist[0][SumDiskInts]
			}
			for j := 1; j <= i; j++ {
				acc += alpha * (hist[j][SumDiskInts] - acc)
			}
			ints := hist[i][SumDiskInts]
			d := hist[i][MeanDMA]
			// saturate the recency feature so its scale is bounded.
			recency := acc / (acc + 0.01)
			return []float64{1, ints, ints * ints, d, recency}
		},
		Terms: []string{"const", "disk_ints_pmc", "disk_ints_pmc^2", "dma_pmc", "recent_activity"},
	}
}
