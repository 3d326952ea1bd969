// Arrival-pattern combinators: generators that wrap other generators to
// shape *when* and *how hard* a workload runs — the scenario axis
// ROADMAP item 3 names. A Diurnal envelope scales an inner workload
// through multi-period sinusoidal cycles; a Cohort places N tenant
// generators on one node and models their interference on the shared L3
// and memory bus, feeding the per-tenant usage accounting that core's
// attribution splits node power with.
//
// Both are deterministic given the machine seed: randomness comes
// only from the per-thread RNG the machine passes to Demand, so wrapped
// runs keep the repo's byte-identical fixed-seed guarantee.
package workload

import (
	"fmt"
	"math"

	"trickledown/internal/sim"
)

// DiurnalPeriod is one sinusoidal component of a diurnal envelope.
type DiurnalPeriod struct {
	// PeriodSec is the cycle length in seconds (a simulated "day").
	PeriodSec float64
	// Amp is the amplitude added to the base load at the cycle peak.
	Amp float64
	// PhaseRad shifts the cycle; phase 0 starts at mid-ramp ascending,
	// +pi/2 starts at the peak.
	PhaseRad float64
}

// DiurnalConfig shapes a Diurnal envelope.
type DiurnalConfig struct {
	// Base is the mean load level in [0,1].
	Base float64
	// Periods are summed sinusoidal components (e.g. a day cycle plus a
	// shorter lunch-hour harmonic).
	Periods []DiurnalPeriod
}

// Diurnal scales an inner generator's demand by a multi-period
// sinusoidal envelope. The envelope multiplies the inner demand's Active fraction and its I/O
// byte rates; per-uop intensity rates (cache misses, TLB misses) are a
// property of the code, not of the arrival rate, and pass through.
type Diurnal struct {
	inner Generator
	cfg   DiurnalConfig
}

// NewDiurnal validates the config and wraps inner.
func NewDiurnal(inner Generator, cfg DiurnalConfig) (*Diurnal, error) {
	if inner == nil {
		return nil, fmt.Errorf("workload: diurnal needs an inner generator")
	}
	if cfg.Base < 0 || math.IsNaN(cfg.Base) || math.IsInf(cfg.Base, 0) {
		return nil, fmt.Errorf("workload: diurnal base %v invalid", cfg.Base)
	}
	for i, p := range cfg.Periods {
		if !(p.PeriodSec > 0) || math.IsInf(p.PeriodSec, 0) {
			return nil, fmt.Errorf("workload: diurnal period %d has invalid length %v", i, p.PeriodSec)
		}
	}
	return &Diurnal{inner: inner, cfg: cfg}, nil
}

// Name implements Generator.
func (g *Diurnal) Name() string { return "diurnal:" + g.inner.Name() }

// Envelope returns the load factor at t, clamped to [0,1]. Periods shorter than the sample interval alias like
// any undersampled sinusoid but remain finite and clamped.
func (g *Diurnal) Envelope(t float64) float64 {
	load := g.cfg.Base
	for _, p := range g.cfg.Periods {
		load += p.Amp * math.Sin(2*math.Pi*t/p.PeriodSec+p.PhaseRad)
	}
	return clamp01(load)
}

// Demand implements Generator.
func (g *Diurnal) Demand(t float64, env Env, rng *sim.RNG) Demand {
	load := g.Envelope(t)
	d := g.inner.Demand(t, env, rng)
	d.Active = clamp01(d.Active * load)
	d.DiskReadBytes *= load
	d.DiskWriteBytes *= load
	d.NetRxBytes *= load
	d.NetTxBytes *= load
	return d
}

// DiurnalSpec wraps a registered spec so every instance runs under its
// own copy of the diurnal envelope.
func DiurnalSpec(inner Spec, cfg DiurnalConfig) (Spec, error) {
	if _, err := NewDiurnal(idleGen{}, cfg); err != nil {
		return Spec{}, err
	}
	out := inner
	out.Name = "diurnal:" + inner.Name
	out.Steady = nil // the envelope varies the demand
	innerMake := inner.Make
	out.Make = func(instance int, rng *sim.RNG) Generator {
		g, err := NewDiurnal(innerMake(instance, rng), cfg)
		if err != nil {
			return innerMake(instance, rng)
		}
		return g
	}
	return out, nil
}
