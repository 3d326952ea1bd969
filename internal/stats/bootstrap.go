package stats

import (
	"math"
	"sort"
)

// Resampling statistics for the validation subsystem: held-out model
// errors are means over a dozen folds, and a point estimate alone cannot
// say whether a 0.5-point shift is drift or noise. The bootstrap puts a
// deterministic, seeded confidence interval around those means so the
// conformance gate can reason about them.

// SplitMix64 advances *state by one SplitMix64 step and returns the
// step's output: add the golden-ratio increment, then mix. It is the
// one copy of the generator in the module. sim.RNG, the bootstrap,
// fault schedules and trace IDs all draw from it, and it lives here
// because stats imports nothing internal, so every one of them can
// import it. It is not math/rand, so every stream is stable across Go
// releases; resampled indices, simulated runs and fault schedules are
// part of the golden record's determinism contract. Called on a copy of
// a value, it is SplitMix64's stateless hash of that value.
func SplitMix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Quantile returns the q-quantile (0 ≤ q ≤ 1) of xs by linear
// interpolation between order statistics. xs need not be sorted.
func Quantile(xs []float64, q float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	return quantileSorted(sorted, q), nil
}

func quantileSorted(sorted []float64, q float64) float64 {
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[len(sorted)-1]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// CI is a two-sided confidence interval.
type CI struct {
	Lo, Hi float64
	// Confidence is the nominal coverage, e.g. 0.95.
	Confidence float64
}

// BootstrapCI computes a percentile-bootstrap confidence interval for
// stat over xs: resamples datasets of len(xs) are drawn with replacement
// from xs (seeded, so two runs with the same inputs produce identical
// intervals), stat is evaluated on each, and the interval is the
// matching pair of quantiles of those evaluations.
func BootstrapCI(xs []float64, stat func([]float64) float64, resamples int, confidence float64, seed uint64) (CI, error) {
	if len(xs) == 0 {
		return CI{}, ErrEmpty
	}
	if resamples < 1 {
		resamples = 1
	}
	if confidence <= 0 || confidence >= 1 {
		confidence = 0.95
	}
	rng := seed
	evals := make([]float64, resamples)
	draw := make([]float64, len(xs))
	for i := range evals {
		for j := range draw {
			draw[j] = xs[SplitMix64(&rng)%uint64(len(xs))]
		}
		evals[i] = stat(draw)
	}
	sort.Float64s(evals)
	alpha := (1 - confidence) / 2
	return CI{
		Lo:         quantileSorted(evals, alpha),
		Hi:         quantileSorted(evals, 1-alpha),
		Confidence: confidence,
	}, nil
}

// R2 returns the coefficient of determination of modeled against
// measured: 1 − SS_res/SS_tot. Unlike a training fit's R², this is
// meaningful on held-out data, where it can be negative (the model
// predicts worse than the measured mean). A measured series with zero
// variance has no defined R²; ErrEmpty is returned.
func R2(modeled, measured []float64) (float64, error) {
	if len(modeled) != len(measured) {
		return 0, ErrLengthMismatch
	}
	if len(modeled) == 0 {
		return 0, ErrEmpty
	}
	m := Mean(measured)
	var ssRes, ssTot float64
	for i := range measured {
		r := measured[i] - modeled[i]
		d := measured[i] - m
		ssRes += r * r
		ssTot += d * d
	}
	if ssTot == 0 {
		return 0, ErrEmpty
	}
	return 1 - ssRes/ssTot, nil
}

// WorstError returns the largest single-sample Equation 6 relative error
// (percent), skipping samples whose measured value is zero like
// AverageError does.
func WorstError(modeled, measured []float64) (float64, error) {
	if len(modeled) != len(measured) {
		return 0, ErrLengthMismatch
	}
	worst, n := 0.0, 0
	for i := range modeled {
		if measured[i] == 0 {
			continue
		}
		if e := math.Abs(modeled[i]-measured[i]) / math.Abs(measured[i]); e > worst {
			worst = e
		}
		n++
	}
	if n == 0 {
		return 0, ErrEmpty
	}
	return worst * 100, nil
}
