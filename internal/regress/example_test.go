package regress_test

import (
	"fmt"

	"trickledown/internal/regress"
)

// OLS fits the paper's model forms; a noise-free quadratic is recovered
// exactly.
func ExampleOLS() {
	xs := []float64{0, 1, 2, 3, 4, 5}
	x := make([][]float64, len(xs))
	y := make([]float64, len(xs))
	for i, v := range xs {
		x[i] = []float64{1, v, v * v} // intercept, linear, quadratic
		y[i] = 28 + 3*v + 0.5*v*v     // memory-power-like curve
	}
	fit, _ := regress.OLS(x, y)
	fmt.Printf("c0=%.1f c1=%.1f c2=%.1f R2=%.3f\n",
		fit.Coef[0], fit.Coef[1], fit.Coef[2], fit.R2)
	// Output: c0=28.0 c1=3.0 c2=0.5 R2=1.000
}
