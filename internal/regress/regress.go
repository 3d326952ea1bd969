// Package regress implements the small amount of numerical machinery the
// paper's methodology needs: ordinary least squares over a design matrix
// whose rows the caller builds ("we initially attempt regression curve
// fitting using linear models; if it is not possible to obtain high
// accuracy with a linear model, we select single or multiple input
// quadratics"). The fit is a Householder QR of the column-equilibrated
// design, so neither the answer nor the rank decision depends on the
// units the regressors are expressed in.
package regress

import (
	"errors"
	"fmt"
	"math"
)

// ErrSingular is returned when the least-squares problem has no unique
// solution, typically because a regressor is constant or two regressors
// are collinear over the training trace. OLS reports it as a *RankError
// naming the offending column; errors.Is matches either.
var ErrSingular = errors.New("regress: singular design")

// ErrDimension is returned when the design matrix and response vector
// disagree in length, or when there are fewer observations than
// coefficients.
var ErrDimension = errors.New("regress: dimension mismatch")

// RankError reports a rank-deficient design: column Col is, to working
// precision, a linear combination of the columns before it (or zero).
type RankError struct {
	// Col is the zero-based design column found to be dependent.
	Col int
}

func (e *RankError) Error() string {
	return fmt.Sprintf("regress: rank-deficient design at column %d", e.Col)
}

// Is makes errors.Is(err, ErrSingular) hold for a *RankError.
func (e *RankError) Is(target error) bool { return target == ErrSingular }

// Fit holds the result of a least-squares fit.
type Fit struct {
	// Coef holds the fitted coefficients, one per design-matrix column.
	Coef []float64
	// StdErr holds the coefficients' standard errors (nil when the
	// residual degrees of freedom are zero).
	StdErr []float64
	// R2 is the coefficient of determination on the training data.
	R2 float64
	// RMSE is the root-mean-square residual on the training data.
	RMSE float64
	// N is the number of observations used.
	N int
}

func (f *Fit) String() string {
	return fmt.Sprintf("fit{n=%d r2=%.4f rmse=%.4f coef=%v}", f.N, f.R2, f.RMSE, f.Coef)
}

// OLS solves min ||X·b - y||². X is row-major: X[i] is observation i.
// Every row must have the same width. An intercept, if wanted, must be
// an explicit all-ones column.
//
// The columns of X are scaled to unit norm and [X | y] is triangularised
// by Householder reflections. Column k is rejected as dependent, with a
// *RankError, when its part orthogonal to the columns before it has
// norm at most n·ε — a tolerance relative to the column itself.
func OLS(x [][]float64, y []float64) (*Fit, error) {
	n := len(x)
	if n == 0 || n != len(y) {
		return nil, ErrDimension
	}
	p := len(x[0])
	if p == 0 || n < p {
		return nil, ErrDimension
	}
	// Column-major copy of [X | y]: column j is a[j*n : (j+1)*n], y last.
	a := make([]float64, (p+1)*n)
	for i, row := range x {
		if len(row) != p {
			return nil, fmt.Errorf("%w: row %d has %d columns, want %d", ErrDimension, i, len(row), p)
		}
		for j, v := range row {
			a[j*n+i] = v
		}
		a[p*n+i] = y[i]
	}
	work := make([]float64, 3*p)
	scale, diag, coef := work[:p], work[p:2*p], work[2*p:]
	for j := range scale {
		col := a[j*n : (j+1)*n]
		s := norm(col)
		if s == 0 {
			s = 1 // the rank test below rejects it, in column order
		}
		for i := range col {
			col[i] /= s
		}
		scale[j] = s
	}
	// Householder QR. After step k, column k's tail a[k*n+k:] holds the
	// reflector v and diag[k] holds R_kk; R_kj (j > k) sits at a[j*n+k].
	tol := float64(n) * 0x1p-52
	for k := 0; k < p; k++ {
		v := a[k*n+k : (k+1)*n]
		alpha := norm(v)
		if alpha <= tol {
			return nil, &RankError{Col: k}
		}
		if v[0] > 0 {
			alpha = -alpha
		}
		v[0] -= alpha
		beta := -1 / (alpha * v[0]) // 2 / vᵀv
		for j := k + 1; j <= p; j++ {
			c := a[j*n+k : (j+1)*n]
			c = c[:len(v)] // same length: lets the compiler drop bounds checks
			s := 0.0
			for i, vi := range v {
				s += vi * c[i]
			}
			s *= beta
			for i, vi := range v {
				c[i] -= s * vi
			}
		}
		diag[k] = alpha
	}
	// Back-substitute R·b = Qᵀy, then undo the column scaling.
	qty := a[p*n:]
	for k := p - 1; k >= 0; k-- {
		s := qty[k]
		for j := k + 1; j < p; j++ {
			s -= a[j*n+k] * coef[j]
		}
		coef[k] = s / diag[k]
	}
	for j := range coef {
		coef[j] /= scale[j]
	}
	// Training diagnostics.
	var ybar float64
	for _, v := range y {
		ybar += v
	}
	ybar /= float64(n)
	var ssRes, ssTot float64
	for i, row := range x {
		d := y[i] - Predict(coef, row)
		ssRes += d * d
		t := y[i] - ybar
		ssTot += t * t
	}
	r2 := 0.0
	if ssTot > 0 {
		r2 = 1 - ssRes/ssTot
	}
	// A design that spans the constant cannot fit worse than the mean;
	// rounding can still leave R² a few ulps below zero. Report that as
	// zero, and keep genuinely negative R² (no intercept) as it is.
	if r2 < 0 && r2 > -tol {
		r2 = 0
	}
	fit := &Fit{
		Coef: coef,
		R2:   r2,
		RMSE: math.Sqrt(ssRes / float64(n)),
		N:    n,
	}
	if n > p {
		fit.StdErr = stdErr(a, n, p, diag, scale, ssRes/float64(n-p))
	}
	return fit, nil
}

// stdErr returns sqrt(sigma2 · diag((XᵀX)⁻¹)) from the QR factor held in
// a. With X = Q·R·D for the column scaling D, diag((XᵀX)⁻¹)_i is the
// squared norm of row i of R⁻¹ divided by D_i².
func stdErr(a []float64, n, p int, diag, scale []float64, sigma2 float64) []float64 {
	// rinv holds R⁻¹ column-major; it is upper triangular.
	rinv := make([]float64, p*p)
	for j := 0; j < p; j++ {
		c := rinv[j*p : (j+1)*p]
		c[j] = 1 / diag[j]
		for i := j - 1; i >= 0; i-- {
			s := 0.0
			for k := i + 1; k <= j; k++ {
				s += a[k*n+i] * c[k]
			}
			c[i] = -s / diag[i]
		}
	}
	se := make([]float64, p)
	for i := range se {
		ss := 0.0
		for j := i; j < p; j++ {
			r := rinv[j*p+i]
			ss += r * r
		}
		se[i] = math.Sqrt(sigma2*ss) / scale[i]
	}
	return se
}

func norm(v []float64) float64 {
	s := 0.0
	for _, x := range v {
		s += x * x
	}
	return math.Sqrt(s)
}

// Predict evaluates a fitted model on one design row.
func Predict(coef, row []float64) float64 {
	s := 0.0
	for i, c := range coef {
		s += c * row[i]
	}
	return s
}
