// Package chipset models the processor-interface chips the paper lumps
// into its chipset subsystem ("processor interface chips not included in
// other subsystems"). Its dynamic activity is the front-side-bus
// interface switching; on top of that sits the paper's measurement
// limitation, reproduced here deliberately: the chipset rail is derived
// from several power domains whose coupling is workload-dependent and
// non-deterministic ("since a non-deterministic relationship exists
// between some of the domains, it is not possible to predict chipset
// power with high accuracy"). The coupling is modeled as a slow
// Ornstein-Uhlenbeck drift plus a per-workload bias, which is exactly
// what defeats the constant chipset model in Tables 3 and 4.
package chipset

import (
	"math"

	"trickledown/internal/sim"
)

// Ornstein-Uhlenbeck parameters for the inter-domain coupling drift.
const (
	driftTau   = 30.0 // seconds; slow wander
	driftSigma = 0.15 // Watts at equilibrium
)

// Stats is the chipset's state for one slice.
type Stats struct {
	// FSBUtil is the front-side-bus utilization seen by the chips.
	FSBUtil float64
	// DomainDrift is the slowly varying multi-domain measurement
	// artifact, in Watts.
	DomainDrift float64
	// DomainBias is the per-workload component of the artifact, in
	// Watts.
	DomainBias float64
}

// Chipset is the processor-interface chip set.
type Chipset struct {
	rng   *sim.RNG
	drift float64
	bias  float64
	// noiseScale is driftSigma·sqrt(2·noiseSlice/driftTau), the drift's
	// noise scale for a slice of noiseSlice seconds, recomputed only
	// when the slice length changes.
	noiseSlice float64
	noiseScale float64
}

// New returns a chipset with a private random stream split from parent.
func New(parent *sim.RNG) *Chipset {
	return &Chipset{rng: parent.Split()}
}

// SetDomainBias installs the workload-dependent domain coupling offset
// (Watts); the machine sets it from the running workload's spec.
func (c *Chipset) SetDomainBias(w float64) { c.bias = w }

// Step advances the chipset by sliceSec given the slice's FSB
// utilization.
func (c *Chipset) Step(sliceSec, fsbUtil float64) Stats {
	// Ornstein-Uhlenbeck mean-reverting drift.
	c.drift += -c.drift / driftTau * sliceSec
	if sliceSec != c.noiseSlice {
		c.noiseSlice = sliceSec
		c.noiseScale = driftSigma * math.Sqrt(2*sliceSec/driftTau)
	}
	c.drift += c.noiseScale * c.rng.Norm(0, 1)
	return Stats{FSBUtil: clamp01(fsbUtil), DomainDrift: c.drift, DomainBias: c.bias}
}

// StepWindow advances the chipset by n slices of sliceSec seconds at the
// same FSB utilization in one step. The drift's n-slice recursion is an
// AR(1); one joint draw gives its end state and its mean over the
// window, which the returned Stats carries as DomainDrift.
func (c *Chipset) StepWindow(sliceSec float64, n int, fsbUtil float64) Stats {
	var mean float64
	mean, c.drift = c.rng.AR1(c.drift, sliceSec/driftTau, driftSigma*math.Sqrt(2*sliceSec/driftTau), n)
	return Stats{FSBUtil: clamp01(fsbUtil), DomainDrift: mean, DomainBias: c.bias}
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}
