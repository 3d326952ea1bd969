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
package sim

import "math"

// RNG is a deterministic pseudo-random number generator based on
// SplitMix64. It is intentionally not safe for concurrent use: each
// simulated component owns its own stream (created via Split) so that
// adding randomness to one component does not perturb another.
type RNG struct {
	state uint64
	// spare holds the second normal deviate of the last polar-method pair.
	spare    float64
	hasSpare bool
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
func (r *RNG) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

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
// deviates, caching the second for the next call.
func (r *RNG) Norm(mean, stddev float64) float64 {
	if r.hasSpare {
		r.hasSpare = false
		return mean + stddev*r.spare
	}
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
	l := math.Exp(-mean)
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
