// Package sim provides the simulation kernel shared by every substrate in
// the trickle-down reproduction: a deterministic pseudo-random number
// generator, a slice-based simulation clock, and a run loop that steps a
// set of components through simulated time.
//
// Everything in the repository that needs randomness draws it from
// sim.RNG so that a whole-server simulation is reproducible from a single
// seed. The clock advances in fixed slices (1 ms by default); all hardware
// models integrate their behaviour over a slice rather than modeling
// individual cycles, which is sufficient because the paper's power models
// consume event *rates* sampled at 1 Hz.
//
// Poisson memoises its exp(-mean) threshold for the last mean it was
// called with, because the stepper draws the same small means slice
// after slice; the memo changes no deviate.
package sim

import (
	"math"

	"trickledown/internal/stats"
)

// RNG is a deterministic pseudo-random number generator based on
// SplitMix64. It is intentionally not safe for concurrent use: each
// simulated component owns its own stream (created via Split) so that
// adding randomness to one component does not perturb another.
type RNG struct {
	state uint64
	// spare holds the second normal deviate of the last polar-method pair.
	spare    float64
	hasSpare bool
	// poisMean and poisL memoise Knuth's threshold exp(-poisMean) for
	// the last small mean Poisson was called with (poisMean is 0, which
	// Poisson never memoises, until the first call).
	poisMean float64
	poisL    float64
}

// NewRNG returns a generator seeded with seed. Two generators with the
// same seed produce identical streams.
func NewRNG(seed uint64) *RNG {
	return &RNG{state: seed}
}

// Split derives an independent child generator from r. The child stream
// is a deterministic function of r's current state, so call order matters
// and is part of the reproducibility contract.
func (r *RNG) Split() *RNG {
	return &RNG{state: r.Uint64() ^ 0x9e3779b97f4a7c15}
}

// Uint64 returns the next 64 uniformly distributed bits.
func (r *RNG) Uint64() uint64 { return stats.SplitMix64(&r.state) }

// Float64 returns a uniform deviate in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform deviate in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Norm returns a normally distributed deviate with the given mean and
// standard deviation, using Marsaglia's polar method: it rejects points
// outside the unit disc and turns each accepted point into a pair of
// deviates, caching the second for the next call. Returning the cached
// spare is small enough to inline; normPair draws a new pair.
func (r *RNG) Norm(mean, stddev float64) float64 {
	if r.hasSpare {
		r.hasSpare = false
		return mean + stddev*r.spare
	}
	return r.normPair(mean, stddev)
}

// normPair draws a polar-method pair, caches its second deviate and
// returns the first scaled to mean and stddev.
func (r *RNG) normPair(mean, stddev float64) float64 {
	var u, v, s float64
	for {
		u = 2*r.Float64() - 1
		v = 2*r.Float64() - 1
		s = u*u + v*v
		if s > 0 && s < 1 {
			break
		}
	}
	m := math.Sqrt(-2 * math.Log(s) / s)
	r.spare = v * m
	r.hasSpare = true
	return mean + stddev*u*m
}

// Exp returns an exponentially distributed deviate with the given mean.
func (r *RNG) Exp(mean float64) float64 {
	for {
		u := r.Float64()
		if u > 0 {
			return -mean * math.Log(u)
		}
	}
}

// Poisson returns a Poisson-distributed count with the given mean. For
// large means (>30) it uses a normal approximation, which is accurate
// enough for event-count generation and O(1) instead of O(mean).
func (r *RNG) Poisson(mean float64) int64 {
	if mean <= 0 {
		return 0
	}
	if mean > 30 {
		n := r.Norm(mean, math.Sqrt(mean))
		if n < 0 {
			return 0
		}
		return int64(n + 0.5)
	}
	// Knuth's method.
	if mean != r.poisMean {
		r.poisMean = mean
		r.poisL = math.Exp(-mean)
	}
	l := r.poisL
	var k int64
	p := 1.0
	for {
		p *= r.Float64()
		if p <= l {
			return k
		}
		k++
	}
}

// Jitter returns v scaled by a uniform factor in [1-frac, 1+frac]. It is
// the standard way workload generators add slice-to-slice variation.
func (r *RNG) Jitter(v, frac float64) float64 {
	return v * (1 + frac*(2*r.Float64()-1))
}

// Bernoulli reports true with probability p.
func (r *RNG) Bernoulli(p float64) bool {
	return r.Float64() < p
}

// AR1 advances the first-order autoregression x ← x − b·x + s·z, with z
// a fresh standard normal deviate each step, by n steps in one joint
// draw. It returns the mean of the n post-step states and the last one.
// Both are linear in the n deviates, so together they are bivariate
// normal: mean and end come from one correlated pair, not n draws. b is
// the per-step decay in (0, 1) and s the per-step noise scale; n < 1
// leaves x where it is.
func (r *RNG) AR1(x, b, s float64, n int) (mean, end float64) {
	if n < 1 {
		return x, x
	}
	a, fn := 1-b, float64(n)
	// g(m) is 1 − aᵐ, accurate for the small decays of slow drifts.
	l := math.Log1p(-b)
	gn, g2n := -math.Expm1(fn*l), -math.Expm1(2*fn*l)
	// With E the noise part of the end state and S that of the sum of
	// the n states: Var E = s²·Σa²ᵐ, Cov(E, S) = s²·Σaᵐ(1−aᵐ⁺¹)/b and
	// Var S = s²·Σ(1−aᵐ⁺¹)²/b², m = 0..n−1, in closed form.
	det := x * a * gn / b
	if s == 0 {
		return det / fn, (1 - gn) * x
	}
	sq := g2n / (b * (2 - b)) // Σa²ᵐ
	ve := s * s * sq
	cov := s * s / (b * b) * (gn - a*b*sq)
	vs := s * s / (b * b) * (fn - 2*a*gn/b + a*a*sq)
	z1, z2 := r.Norm(0, 1), r.Norm(0, 1)
	e := math.Sqrt(ve) * z1
	k := cov / ve
	sum := k*e + math.Sqrt(math.Max(0, vs-k*cov))*z2
	return (det + sum) / fn, (1-gn)*x + e
}
