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
	for i := range x {
		x[i] = flat[i*width : (i+1)*width : (i+1)*width]
		y[i] = ds.Rows[i].Power[spec.Sub]
	}
	designChunks(&spec, ds, func(lo, _ int, cols [][]float64) {
		for k, col := range cols {
			for j, v := range col {
				x[lo+j][k] = v
			}
		}
	})
	fit, err := fitRows(spec.Name, spec.Sub, spec.Terms, x, y)
	if err != nil {
		return nil, err
	}
	return &Model{Spec: spec, Coef: fit.Coef, Fit: fit}, nil
}

// BatchSize is how many samples Train, Trace and tdserve's workers
// extract and design at once, so their scratch stays bounded at any
// dataset or request size.
const BatchSize = 256

// designChunks extracts ds's counters BatchSize rows at a time and
// hands fn the design columns of each chunk, rows lo to hi. The columns
// are reused for the next chunk.
func designChunks(spec *ModelSpec, ds *align.Dataset, fn func(lo, hi int, cols [][]float64)) {
	if ds.Len() == 0 {
		return
	}
	ms := metricsBatch(min(ds.Len(), BatchSize), len(ds.Rows[0].Counters.CPUs))
	var c Columns
	for lo := 0; lo < ds.Len(); lo += len(ms) {
		chunk := ms[:min(len(ms), ds.Len()-lo)]
		for j := range chunk {
			ExtractMetricsAtInto(&chunk[j], &ds.Rows[lo+j].Counters, sim.DefaultCoreHz)
		}
		fn(lo, lo+len(chunk), c.design(spec, chunk))
	}
}

// Columns is reusable storage for a batch's design columns. It grows to
// the widest design and longest batch it has filled and then fills
// without allocating. The zero value is ready to use; a Columns must
// not be used by two goroutines at once.
type Columns struct {
	slab []float64
	cols [][]float64 // carved at n elements each
	n    int
	rail []float64 // one model's predictions, for Estimator.EstimateBatch
	ms   []Metrics // EstimateSamples' extraction scratch on its general path
}

// design has spec fill len(spec.Terms) columns of len(ms) elements.
// Each column's capacity is its length. The columns are carved again
// only when the batch length changes or the design is wider than any
// before, so the models of one batch, and batches of one length, share
// the carving.
func (c *Columns) design(spec *ModelSpec, ms []Metrics) [][]float64 {
	w, n := len(spec.Terms), len(ms)
	if n != c.n || w > len(c.cols) {
		c.carve(max(w, len(c.cols)), n)
	}
	cols := c.cols[:w]
	spec.Design(cols, ms)
	return cols
}

// carve points w columns at consecutive n-element windows of the slab,
// growing it when it is too small.
func (c *Columns) carve(w, n int) {
	if cap(c.slab) < w*n {
		c.slab = make([]float64, w*n)
	}
	if cap(c.cols) < w {
		c.cols = make([][]float64, w)
	}
	c.cols = c.cols[:w]
	for k := range c.cols {
		c.cols[k] = c.slab[k*n : (k+1)*n : (k+1)*n]
	}
	c.n = n
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

// Predict evaluates the model on one sample's metrics: a batch of one,
// built in pooled scratch, so it allocates nothing in steady state and
// is safe for concurrent use.
func (m *Model) Predict(met *Metrics) float64 {
	one := getSingle(met)
	var out [1]float64
	m.predict(out[:], one.ms[:], &one.cols)
	putSingle(one)
	return out[0]
}

// predict writes the model's estimate of ms[j] to out[j], designing the
// batch in c.
func (m *Model) predict(out []float64, ms []Metrics, c *Columns) {
	dot(out[:len(ms)], m.Coef, c.design(&m.Spec, ms))
}

// dot sets out[j] to the dot product of coef with sample j's design
// terms. Each sum starts at 0.0 and adds coef[k]*cols[k][j] in
// ascending k, exactly as regress.Predict does over a row, so a batch
// prediction is bit-identical to a per-row one. The explicit
// conversion rounds each product before its add, so no target fuses
// the two and the production kernel can reproduce the sum.
func dot(out, coef []float64, cols [][]float64) {
	if len(out) == 1 {
		// A batch of one keeps its running sum in a register, so a term
		// need not wait for the previous one's store to out[0].
		s := 0.0
		for k, c := range coef {
			s += float64(c * cols[k][0])
		}
		out[0] = s
		return
	}
	for j := range out {
		out[j] = 0
	}
	for k, c := range coef {
		col := cols[k][:len(out)]
		for j, v := range col {
			out[j] += float64(c * v)
		}
	}
}

// single is the scratch of a one-sample batch, pooled so Predict and
// Estimator.EstimateMetrics need neither allocation nor a buffer inside
// the caller's Metrics.
type single struct {
	ms   [1]Metrics
	cols Columns
}

var singles = sync.Pool{New: func() any { return new(single) }}

// getSingle returns pooled one-sample scratch holding a shallow copy of
// met; Design only reads it.
func getSingle(met *Metrics) *single {
	one := singles.Get().(*single)
	one.ms[0] = *met
	return one
}

// putSingle drops the scratch's reference to the caller's slices and
// returns it to the pool.
func putSingle(one *single) {
	one.ms[0] = Metrics{}
	singles.Put(one)
}

// Trace returns the aligned measured and modeled series over a dataset —
// the two curves of the paper's figures.
func (m *Model) Trace(ds *align.Dataset) (measured, modeled []float64) {
	n := ds.Len()
	both := make([]float64, 2*n)
	measured, modeled = both[:n:n], both[n:]
	for i := range ds.Rows {
		measured[i] = ds.Rows[i].Power[m.Spec.Sub]
	}
	designChunks(&m.Spec, ds, func(lo, hi int, cols [][]float64) {
		dot(modeled[lo:hi], m.Coef, cols)
	})
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
