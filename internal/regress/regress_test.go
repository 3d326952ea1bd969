package regress

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"trickledown/internal/sim"
)

func approx(t *testing.T, got, want, tol float64, what string) {
	t.Helper()
	if math.Abs(got-want) > tol {
		t.Errorf("%s = %v, want %v (±%v)", what, got, want, tol)
	}
}

func TestOLSExactLine(t *testing.T) {
	// y = 3 + 2x with no noise: fit must be exact.
	x := make([][]float64, 50)
	y := make([]float64, 50)
	for i := range x {
		v := float64(i)
		x[i] = []float64{1, v}
		y[i] = 3 + 2*v
	}
	f, err := OLS(x, y)
	if err != nil {
		t.Fatal(err)
	}
	approx(t, f.Coef[0], 3, 1e-9, "intercept")
	approx(t, f.Coef[1], 2, 1e-9, "slope")
	approx(t, f.R2, 1, 1e-12, "R2")
	approx(t, f.RMSE, 0, 1e-9, "RMSE")
	if f.N != 50 {
		t.Errorf("N = %d", f.N)
	}
}

func TestOLSNoisyLineRecoversCoefficients(t *testing.T) {
	r := sim.NewRNG(1)
	n := 5000
	x := make([][]float64, n)
	y := make([]float64, n)
	for i := range x {
		v := r.Float64() * 10
		x[i] = []float64{1, v}
		y[i] = 5 + 1.5*v + r.Norm(0, 0.2)
	}
	f, err := OLS(x, y)
	if err != nil {
		t.Fatal(err)
	}
	approx(t, f.Coef[0], 5, 0.05, "intercept")
	approx(t, f.Coef[1], 1.5, 0.01, "slope")
	if f.R2 < 0.99 {
		t.Errorf("R2 = %v, want >0.99", f.R2)
	}
}

func TestOLSQuadraticRecovery(t *testing.T) {
	r := sim.NewRNG(2)
	n := 2000
	x := make([][]float64, n)
	y := make([]float64, n)
	for i := range x {
		v := r.Float64() * 4
		x[i] = []float64{1, v, v * v}
		y[i] = 28 + 3.4*v + 7.7*v*v + r.Norm(0, 0.1)
	}
	f, err := OLS(x, y)
	if err != nil {
		t.Fatal(err)
	}
	approx(t, f.Coef[0], 28, 0.1, "c0")
	approx(t, f.Coef[1], 3.4, 0.1, "c1")
	approx(t, f.Coef[2], 7.7, 0.05, "c2")
}

func TestOLSMultiQuadRecovery(t *testing.T) {
	r := sim.NewRNG(3)
	n := 4000
	x := make([][]float64, n)
	y := make([]float64, n)
	for i := range x {
		a := r.Float64() * 2
		b := r.Float64() * 3
		x[i] = []float64{1, a, a * a, b, b * b}
		y[i] = 21.6 + 10*a - 1.1*a*a + 9.2*b - 4.5*b*b + r.Norm(0, 0.05)
	}
	f, err := OLS(x, y)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{21.6, 10, -1.1, 9.2, -4.5}
	for i, w := range want {
		approx(t, f.Coef[i], w, 0.1, "coef")
	}
}

func TestOLSSingular(t *testing.T) {
	// Two identical columns: no unique solution.
	x := [][]float64{{1, 2, 2}, {1, 3, 3}, {1, 4, 4}, {1, 5, 5}}
	y := []float64{1, 2, 3, 4}
	if _, err := OLS(x, y); !errors.Is(err, ErrSingular) {
		t.Fatalf("err = %v, want ErrSingular", err)
	}
}

func TestOLSDimensionErrors(t *testing.T) {
	cases := []struct {
		name string
		x    [][]float64
		y    []float64
		msg  string // the counts the error names
	}{
		{"empty", nil, nil, "0 rows for 0 columns"},
		{"len mismatch", [][]float64{{1}}, []float64{1, 2}, "1 rows for 2 responses"},
		{"fewer rows than cols", [][]float64{{1, 2, 3}, {4, 5, 6}}, []float64{1, 2}, "2 rows for 3 columns"},
		{"zero-width rows", [][]float64{{}, {}}, []float64{1, 2}, "2 rows for 0 columns"},
		{"ragged rows", [][]float64{{1, 2}, {1}}, []float64{1, 2}, "row 1 has 1 columns, want 2"},
	}
	for _, c := range cases {
		_, err := OLS(c.x, c.y)
		if !errors.Is(err, ErrDimension) {
			t.Errorf("%s: err = %v, want ErrDimension", c.name, err)
		} else if !strings.Contains(err.Error(), c.msg) {
			t.Errorf("%s: err = %q, want it to name %q", c.name, err, c.msg)
		}
	}
}

func TestOLSConstantResponse(t *testing.T) {
	// Constant y: intercept model captures it exactly; R2 defined as 0
	// when total variance is zero.
	x := [][]float64{{1}, {1}, {1}, {1}}
	y := []float64{19.9, 19.9, 19.9, 19.9}
	f, err := OLS(x, y)
	if err != nil {
		t.Fatal(err)
	}
	approx(t, f.Coef[0], 19.9, 1e-9, "constant")
	approx(t, f.R2, 0, 1e-12, "R2 of zero-variance response")
}

// An intercept-only fit explains none of the variance: its R² is zero,
// never a rounding-level negative.
func TestOLSInterceptOnlyR2(t *testing.T) {
	r := sim.NewRNG(4)
	for _, n := range []int{38, 179, 1000} {
		for trial := 0; trial < 50; trial++ {
			x := make([][]float64, n)
			y := make([]float64, n)
			for i := range x {
				x[i] = []float64{1}
				y[i] = r.Norm(19.8, 0.2)
			}
			f, err := OLS(x, y)
			if err != nil {
				t.Fatal(err)
			}
			if f.R2 < 0 || f.R2 > 1e-12 {
				t.Fatalf("n=%d: intercept-only R2 = %g, want 0", n, f.R2)
			}
		}
	}
}

// Without an intercept a fit can be worse than the mean; that negative
// R² is real and is reported.
func TestOLSNegativeR2WithoutIntercept(t *testing.T) {
	x := [][]float64{{1}, {2}, {3}, {4}}
	y := []float64{10, 9, 8, 7}
	f, err := OLS(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if f.R2 >= 0 {
		t.Errorf("R2 = %v, want negative", f.R2)
	}
}

func TestPredict(t *testing.T) {
	got := Predict([]float64{1, 2, 3}, []float64{1, 10, 100})
	if got != 1+20+300 {
		t.Errorf("Predict = %v", got)
	}
}

func TestFitString(t *testing.T) {
	f := &Fit{Coef: []float64{1}, N: 5}
	if s := f.String(); !strings.Contains(s, "n=5") {
		t.Errorf("String() = %q", s)
	}
}

// Property: for any data the OLS residual is orthogonal to each regressor
// (the defining property of least squares).
func TestOLSResidualOrthogonality(t *testing.T) {
	f := func(seed uint64) bool {
		rr := sim.NewRNG(seed)
		n := 30 + rr.Intn(50)
		x := make([][]float64, n)
		y := make([]float64, n)
		for i := range x {
			x[i] = []float64{1, rr.Float64() * 5, rr.Float64() * 2}
			y[i] = rr.Float64()*10 + x[i][1]*2
		}
		fit, err := OLS(x, y)
		if err != nil {
			return false // continuous draws are never rank-deficient
		}
		res := make([]float64, n)
		for i := range x {
			res[i] = y[i] - Predict(fit.Coef, x[i])
		}
		for col := 0; col < 3; col++ {
			var dot, xx float64
			for i := range x {
				dot += res[i] * x[i][col]
				xx += x[i][col] * x[i][col]
			}
			if math.Abs(dot) > 1e-12*math.Sqrt(xx)*norm(res) {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 50, Rand: rand.New(rand.NewSource(99))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestStdErrShrinksWithSampleSize(t *testing.T) {
	gen := func(n int, seed uint64) *Fit {
		r := sim.NewRNG(seed)
		x := make([][]float64, n)
		y := make([]float64, n)
		for i := range x {
			v := r.Float64() * 10
			x[i] = []float64{1, v}
			y[i] = 2 + 3*v + r.Norm(0, 1)
		}
		f, err := OLS(x, y)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	small := gen(50, 1)
	big := gen(5000, 2)
	if len(small.StdErr) != 2 || len(big.StdErr) != 2 {
		t.Fatalf("StdErr lengths: %d, %d", len(small.StdErr), len(big.StdErr))
	}
	for i := range small.StdErr {
		if small.StdErr[i] <= 0 {
			t.Errorf("small-sample stderr[%d] = %v", i, small.StdErr[i])
		}
		if big.StdErr[i] >= small.StdErr[i] {
			t.Errorf("stderr[%d] did not shrink: %v -> %v", i, small.StdErr[i], big.StdErr[i])
		}
	}
	// With sigma=1 over x~U(0,10), slope stderr at n=5000 is tiny: the
	// true coefficient must be within a few stderr of the estimate.
	if d := math.Abs(big.Coef[1] - 3); d > 5*big.StdErr[1] {
		t.Errorf("slope %v ± %v too far from 3", big.Coef[1], big.StdErr[1])
	}
}

func TestStdErrZeroNoise(t *testing.T) {
	x := make([][]float64, 20)
	y := make([]float64, 20)
	for i := range x {
		v := float64(i)
		x[i] = []float64{1, v}
		y[i] = 7 + 2*v
	}
	f, err := OLS(x, y)
	if err != nil {
		t.Fatal(err)
	}
	for i, se := range f.StdErr {
		if se > 1e-6 {
			t.Errorf("noise-free stderr[%d] = %v, want ~0", i, se)
		}
	}
}

func TestStdErrNilWithoutDOF(t *testing.T) {
	// n == p: no residual degrees of freedom.
	x := [][]float64{{1, 0}, {1, 1}}
	y := []float64{1, 2}
	f, err := OLS(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if f.StdErr != nil {
		t.Errorf("StdErr = %v with zero DOF", f.StdErr)
	}
}

// TestStdErrMatchesClosedForm checks the R⁻¹ row norms against the
// textbook simple-regression standard errors:
// se(slope) = σ/√Sxx and se(intercept) = σ·√(1/n + x̄²/Sxx).
func TestStdErrMatchesClosedForm(t *testing.T) {
	r := sim.NewRNG(5)
	n := 40
	x := make([][]float64, n)
	y := make([]float64, n)
	var xbar float64
	for i := range x {
		v := r.Float64()*8 + 1
		x[i] = []float64{1, v}
		y[i] = 4 - 0.7*v + r.Norm(0, 0.3)
		xbar += v / float64(n)
	}
	f, err := OLS(x, y)
	if err != nil {
		t.Fatal(err)
	}
	var sxx, ssRes float64
	for i := range x {
		d := x[i][1] - xbar
		sxx += d * d
		e := y[i] - Predict(f.Coef, x[i])
		ssRes += e * e
	}
	sigma := math.Sqrt(ssRes / float64(n-2))
	want := []float64{sigma * math.Sqrt(1/float64(n)+xbar*xbar/sxx), sigma / math.Sqrt(sxx)}
	for i, w := range want {
		if math.Abs(f.StdErr[i]-w) > 1e-12*w {
			t.Errorf("StdErr[%d] = %v, want %v", i, f.StdErr[i], w)
		}
	}
}

// metamorphicDesign is a noisy Eq. 4-shaped design, a quadratic in one
// input plus a linear second input: [1, v, v², w]. Its v and v² columns
// are correlated, as the paper's quadratic models are.
func metamorphicDesign(n int, seed uint64) ([][]float64, []float64) {
	r := sim.NewRNG(seed)
	x := make([][]float64, n)
	y := make([]float64, n)
	for i := range x {
		v, w := 1+r.Float64(), r.Float64()*3
		x[i] = []float64{1, v, v * v, w}
		y[i] = 5 + 1.5*v - 0.5*v*v - 2.5*w + r.Norm(0, 0.4)
	}
	return x, y
}

func relDiff(got, want float64) float64 {
	return math.Abs(got-want) / math.Abs(want)
}

// Metamorphic: re-expressing one regressor in other units (scaling its
// column by 10^k) must leave every prediction unchanged and scale that
// coefficient by 10^-k. Units must never decide whether a fit exists.
func TestOLSColumnScalingInvariance(t *testing.T) {
	x, y := metamorphicDesign(200, 11)
	base, err := OLS(x, y)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{-10, -6, 6, 9} {
		s := math.Pow(10, float64(k))
		xs := make([][]float64, len(x))
		for i, row := range x {
			xs[i] = []float64{row[0], row[1], row[2], row[3] * s}
		}
		f, err := OLS(xs, y)
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		for i := range x {
			want := Predict(base.Coef, x[i])
			if d := relDiff(Predict(f.Coef, xs[i]), want); d > 1e-9 {
				t.Fatalf("k=%d: prediction %d moved by %.3g relative", k, i, d)
			}
		}
		for j, c := range f.Coef {
			want := base.Coef[j]
			if j == 3 {
				want /= s
			}
			if d := relDiff(c, want); d > 1e-9 {
				t.Errorf("k=%d: coef[%d] = %v, want %v (%.3g relative)", k, j, c, want, d)
			}
		}
	}
}

// Metamorphic: least squares does not care about observation order.
func TestOLSRowPermutationInvariance(t *testing.T) {
	x, y := metamorphicDesign(300, 12)
	base, err := OLS(x, y)
	if err != nil {
		t.Fatal(err)
	}
	perm := rand.New(rand.NewSource(12)).Perm(len(x))
	xp := make([][]float64, len(x))
	yp := make([]float64, len(y))
	for i, j := range perm {
		xp[i], yp[i] = x[j], y[j]
	}
	f, err := OLS(xp, yp)
	if err != nil {
		t.Fatal(err)
	}
	for j, c := range f.Coef {
		if d := relDiff(c, base.Coef[j]); d > 1e-12 {
			t.Errorf("coef[%d] = %v, want %v (%.3g relative)", j, c, base.Coef[j], d)
		}
	}
}

// A dependent column is reported by index, and the error still
// satisfies errors.Is(err, ErrSingular): an exact duplicate, and an
// all-zero column, which depends on nothing before it.
func TestOLSDependentColumnNamed(t *testing.T) {
	x, y := metamorphicDesign(50, 13)
	dup := make([][]float64, len(x))
	zero := make([][]float64, len(x))
	for i, row := range x {
		dup[i] = []float64{row[0], row[1], row[1], row[3]}
		zero[i] = []float64{row[0], 0, row[3]}
	}
	for _, c := range []struct {
		name string
		x    [][]float64
		col  int
	}{{"duplicate", dup, 2}, {"zero", zero, 1}} {
		_, err := OLS(c.x, y)
		var re *RankError
		if !errors.As(err, &re) || re.Col != c.col {
			t.Fatalf("%s: err = %v, want RankError{Col: %d}", c.name, err, c.col)
		}
		if !errors.Is(err, ErrSingular) {
			t.Errorf("%s: RankError does not match ErrSingular", c.name)
		}
		if want := fmt.Sprintf("column %d", c.col); !strings.Contains(err.Error(), want) {
			t.Errorf("%s: error %q does not name the column", c.name, err)
		}
	}
}

// Läuchli's matrix: XᵀX = 11ᵀ + ε²I rounds to singular once ε² falls
// below the machine epsilon, so any method that forms the normal
// equations loses about half its digits and then fails outright. QR
// works on X itself and keeps nearly all of them.
func TestOLSLauchli(t *testing.T) {
	want := []float64{1, 2, 3}
	for _, eps := range []float64{1e-4, 1e-7} {
		x := [][]float64{{1, 1, 1}, {eps, 0, 0}, {0, eps, 0}, {0, 0, eps}}
		y := []float64{6, eps, 2 * eps, 3 * eps}
		f, err := OLS(x, y)
		if err != nil {
			t.Fatalf("eps=%g: %v", eps, err)
		}
		for j, w := range want {
			if d := relDiff(f.Coef[j], w); d > 1e-14 {
				t.Errorf("eps=%g: coef[%d] = %.17g, %.1f correct digits, want ≥14",
					eps, j, f.Coef[j], -math.Log10(d))
			}
		}
	}
}
