package regress

import (
	"math"
	"testing"
)

// FuzzOLSRobust checks OLS never panics and never returns non-finite
// coefficients for arbitrary (bounded) inputs, and that the units of a
// regressor alone never make a full-rank design look singular: any
// column scale from 1e-12 to 1e9 in magnitude must fit.
func FuzzOLSRobust(f *testing.F) {
	f.Add(int64(1), 20, 0.5)
	f.Add(int64(7), 5, -3.0)
	f.Add(int64(42), 100, 1e6)
	f.Add(int64(3), 50, 1e-12)
	f.Add(int64(9), 4, -1e-10)
	f.Fuzz(func(t *testing.T, seed int64, n int, scale float64) {
		if n < 1 || n > 500 {
			return
		}
		if math.IsNaN(scale) || math.IsInf(scale, 0) {
			return
		}
		if scale > 1e9 || scale < -1e9 {
			return
		}
		// Cheap deterministic generator.
		state := uint64(seed)
		next := func() float64 {
			state = state*6364136223846793005 + 1442695040888963407
			return float64(state>>11) / (1 << 53)
		}
		x := make([][]float64, n)
		y := make([]float64, n)
		for i := range x {
			x[i] = []float64{1, next() * scale, next()}
			y[i] = next()*10 + scale*x[i][1]*0.001
		}
		fit, err := OLS(x, y)
		if err != nil {
			// Too few rows, or a column scaled to (near) nothing.
			if n >= 3 && math.Abs(scale) >= 1e-12 {
				t.Fatalf("full-rank design rejected: %v (seed %d, n %d, scale %v)", err, seed, n, scale)
			}
			return
		}
		for _, c := range fit.Coef {
			if math.IsNaN(c) || math.IsInf(c, 0) {
				t.Fatalf("non-finite coefficient %v (seed %d, n %d, scale %v)", c, seed, n, scale)
			}
		}
		if math.IsNaN(fit.RMSE) || fit.RMSE < 0 {
			t.Fatalf("bad RMSE %v", fit.RMSE)
		}
	})
}
