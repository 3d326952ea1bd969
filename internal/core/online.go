package core

import (
	"fmt"
	"math"

	"trickledown/internal/regress"
)

// OnlineFitter is the incremental counterpart of Train: a sliding-window
// least-squares accumulator that ingests one (metrics, measured-Watts)
// observation at a time and can produce a fitted Model at any point
// without rescanning history. It exists for the self-healing estimation
// layer (internal/adapt), where challenger models are refit continuously
// from the live stream while the champion keeps serving.
//
// The accumulators XᵀX and Xᵀy are maintained by rank-1 update on
// arrival and downdate on eviction, with element-wise addition in
// exactly the per-row order regress.OLS uses — so on a window that has
// never evicted, Fit reproduces the batch coefficients bit for bit
// (the exact-equivalence contract the adapt layer's tests pin down).
// Downdates accumulate floating-point drift, so after a full window's
// worth of evictions the moments are recomputed from the stored rows,
// bounding the drift to what one window of slides can introduce.
//
// Non-finite inputs (NaN/Inf response or design term) are never folded
// into the accumulators: they increment a quarantine counter and are
// dropped, mirroring Train's ErrNonFinite but without giving a hostile
// stream the power to poison a long-lived fitter.
//
// An OnlineFitter is not safe for concurrent use; the adapt manager
// serializes access.
type OnlineFitter struct {
	spec ModelSpec
	p    int // design width
	size int // window capacity in observations

	// Ring buffer of the live window, oldest at head.
	rows [][]float64
	ys   []float64
	head int
	n    int

	// Upper-triangle Gram matrix and moment vector over the window.
	xtx [][]float64
	xty []float64

	downdates   int
	seen        uint64
	quarantined uint64
}

// NewOnlineFitter returns a fitter for spec over a sliding window of the
// given capacity. The window must hold at least as many observations as
// the spec has design columns, or no fit could ever be produced.
func NewOnlineFitter(spec ModelSpec, window int) (*OnlineFitter, error) {
	p := designWidth(spec)
	if p == 0 {
		return nil, fmt.Errorf("core: online fitter: spec %s has empty design", spec.Name)
	}
	if window < p {
		return nil, fmt.Errorf("core: online fitter: window %d below design width %d of %s",
			window, p, spec.Name)
	}
	f := &OnlineFitter{
		spec: spec,
		p:    p,
		size: window,
		rows: make([][]float64, window),
		ys:   make([]float64, window),
		xtx:  make([][]float64, p),
		xty:  make([]float64, p),
	}
	for i := range f.xtx {
		f.xtx[i] = make([]float64, p)
	}
	return f, nil
}

// Spec returns the model spec the fitter fits.
func (f *OnlineFitter) Spec() ModelSpec { return f.spec }

// Len returns the number of observations currently in the window.
func (f *OnlineFitter) Len() int { return f.n }

// Cap returns the window capacity.
func (f *OnlineFitter) Cap() int { return f.size }

// Seen returns how many observations were accepted over the fitter's
// lifetime (quarantined ones excluded).
func (f *OnlineFitter) Seen() uint64 { return f.seen }

// Quarantined returns how many observations were rejected for carrying a
// non-finite response or design term.
func (f *OnlineFitter) Quarantined() uint64 { return f.quarantined }

// Reset drops the whole window and zeroes the accumulators; lifetime
// counters (Seen, Quarantined) are preserved. The adapt layer resets its
// fitters after a rollback so a challenger is never refit from the same
// window that just produced a rejected model.
func (f *OnlineFitter) Reset() {
	for i := range f.rows {
		f.rows[i] = nil
	}
	f.head = 0
	f.n = 0
	f.downdates = 0
	f.zeroMoments()
}

// Observe folds one observation into the window, evicting the oldest
// when full. It reports false (and counts a quarantine) when y or any
// design term is non-finite; the accumulators are untouched in that
// case.
func (f *OnlineFitter) Observe(m *Metrics, y float64) bool {
	row := f.spec.Design(nil, m) // the window keeps the row
	if len(row) != f.p {
		// A spec whose design width varies per sample would corrupt the
		// moments; treat it as hostile input rather than panicking.
		f.quarantined++
		return false
	}
	if math.IsNaN(y) || math.IsInf(y, 0) {
		f.quarantined++
		return false
	}
	for _, v := range row {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			f.quarantined++
			return false
		}
	}
	if f.n == f.size {
		f.evictOldest()
	}
	slot := (f.head + f.n) % f.size
	f.rows[slot] = row
	f.ys[slot] = y
	f.n++
	f.accumulate(row, y, 1)
	f.seen++
	// A full window of downdates has drifted the moments as far as this
	// policy tolerates; rebuild them from the stored rows.
	if f.downdates >= f.size {
		f.recompute()
	}
	return true
}

// evictOldest downdates the moments by the oldest row and frees its slot.
func (f *OnlineFitter) evictOldest() {
	f.accumulate(f.rows[f.head], f.ys[f.head], -1)
	f.rows[f.head] = nil
	f.head = (f.head + 1) % f.size
	f.n--
	f.downdates++
}

// accumulate applies one row's rank-1 contribution with the given sign,
// in the same element order as regress.OLS's accumulation loop.
func (f *OnlineFitter) accumulate(row []float64, y, sign float64) {
	for a := 0; a < f.p; a++ {
		f.xty[a] += sign * row[a] * y
		for b := a; b < f.p; b++ {
			f.xtx[a][b] += sign * row[a] * row[b]
		}
	}
}

func (f *OnlineFitter) zeroMoments() {
	for a := range f.xtx {
		for b := range f.xtx[a] {
			f.xtx[a][b] = 0
		}
		f.xty[a] = 0
	}
}

// recompute rebuilds the moments from the stored window, oldest to
// newest — the same order a batch accumulation over the window would
// use, so the rebuilt moments match a fresh OLS bit for bit.
func (f *OnlineFitter) recompute() {
	f.zeroMoments()
	for i := 0; i < f.n; i++ {
		slot := (f.head + i) % f.size
		f.accumulate(f.rows[slot], f.ys[slot], 1)
	}
	f.downdates = 0
}

// Fit solves the window's normal equations and returns the fitted model
// with training diagnostics (R², RMSE, N) over the window. Coefficient
// standard errors are not computed — the shadow gate judges challengers
// on held-out residuals, not on in-window inference.
func (f *OnlineFitter) Fit() (*Model, error) {
	if f.n == 0 {
		return nil, ErrNoData
	}
	if f.n < f.p {
		return nil, fmt.Errorf("core: online fitter: %d observations below design width %d of %s",
			f.n, f.p, f.spec.Name)
	}
	// Mirror the upper triangle into the full symmetric matrix the solver
	// pivots over, exactly as OLS does before solving.
	full := make([][]float64, f.p)
	for a := 0; a < f.p; a++ {
		full[a] = append([]float64(nil), f.xtx[a]...)
	}
	for a := 1; a < f.p; a++ {
		for b := 0; b < a; b++ {
			full[a][b] = full[b][a]
		}
	}
	coef, err := regress.SolveNormal(full, f.xty)
	if err != nil {
		return nil, fmt.Errorf("core: online fit %s: %w", f.spec.Name, err)
	}
	// Training diagnostics over the stored window, matching OLS's
	// definitions.
	var ybar float64
	for i := 0; i < f.n; i++ {
		ybar += f.ys[(f.head+i)%f.size]
	}
	ybar /= float64(f.n)
	var ssRes, ssTot float64
	for i := 0; i < f.n; i++ {
		slot := (f.head + i) % f.size
		pred := 0.0
		for j, c := range coef {
			pred += c * f.rows[slot][j]
		}
		d := f.ys[slot] - pred
		ssRes += d * d
		t := f.ys[slot] - ybar
		ssTot += t * t
	}
	r2 := 0.0
	if ssTot > 0 {
		r2 = 1 - ssRes/ssTot
	}
	fit := &regress.Fit{
		Coef: coef,
		R2:   r2,
		RMSE: math.Sqrt(ssRes / float64(f.n)),
		N:    f.n,
	}
	return &Model{Spec: f.spec, Coef: coef, Fit: fit}, nil
}
