package chipset_test

import (
	"math"
	"testing"
	"time"

	"trickledown/internal/chipset"
	"trickledown/internal/power"
	"trickledown/internal/sim"
)

// paper prices the chipset rail on the paper's machine.
var paper = power.ServerProfile()

// The chipset power-response curve: base floor at an idle bus, linear
// growth with front-side-bus utilization, and the multi-domain
// measurement artifact (drift + workload bias) passing straight through
// to the rail. The table pins the curve's shape, not its private
// constants.
func TestChipsetPowerResponseCurve(t *testing.T) {
	cases := []struct {
		name  string
		stats chipset.Stats
	}{
		{"idle-bus", chipset.Stats{FSBUtil: 0}},
		{"light", chipset.Stats{FSBUtil: 0.1}},
		{"quarter", chipset.Stats{FSBUtil: 0.25}},
		{"half", chipset.Stats{FSBUtil: 0.5}},
		{"busy", chipset.Stats{FSBUtil: 0.75}},
		{"saturated", chipset.Stats{FSBUtil: 1.0}},
	}
	base := paper.Chipset(chipset.Stats{})
	if base != power.ChipsetBasePower {
		t.Fatalf("idle chipset power = %v, want the %v W floor", base, power.ChipsetBasePower)
	}
	prev := math.Inf(-1)
	for _, tc := range cases {
		p := paper.Chipset(tc.stats)
		if p < base {
			t.Errorf("%s: power %v W below the %v W floor", tc.name, p, base)
		}
		if p <= prev && tc.stats.FSBUtil > 0 {
			t.Errorf("%s: power %v W did not rise past %v W with bus utilization", tc.name, p, prev)
		}
		prev = p
	}
	// Linearity in FSB utilization: equal utilization steps cost equal
	// Watts (the chipset has no superlinear term; that belongs to DRAM).
	d1 := paper.Chipset(chipset.Stats{FSBUtil: 0.50}) - paper.Chipset(chipset.Stats{FSBUtil: 0.25})
	d2 := paper.Chipset(chipset.Stats{FSBUtil: 0.75}) - paper.Chipset(chipset.Stats{FSBUtil: 0.50})
	if math.Abs(d1-d2) > 1e-9 {
		t.Errorf("chipset response not linear: steps %v vs %v W", d1, d2)
	}
}

// The measurement artifact is additive: drift and workload bias move
// the measured rail Watt for Watt, which is exactly why a constant
// model cannot track them.
func TestChipsetArtifactAdditive(t *testing.T) {
	cases := []struct {
		name  string
		drift float64
		bias  float64
	}{
		{"drift-up", 0.4, 0},
		{"drift-down", -0.3, 0},
		{"bias", 0, 1.2},
		{"both", 0.25, -0.8},
	}
	clean := paper.Chipset(chipset.Stats{FSBUtil: 0.5})
	for _, tc := range cases {
		p := paper.Chipset(chipset.Stats{FSBUtil: 0.5, DomainDrift: tc.drift, DomainBias: tc.bias})
		if got, want := p-clean, tc.drift+tc.bias; math.Abs(got-want) > 1e-9 {
			t.Errorf("%s: artifact shifted rail by %v W, want %v W", tc.name, got, want)
		}
	}
}

// Step clamps out-of-range bus utilization and keeps the OU drift
// bounded near its equilibrium scale over a long run.
func TestChipsetStepClampsAndDriftBounded(t *testing.T) {
	c := chipset.New(sim.NewRNG(42))
	slice := time.Millisecond.Seconds()
	if st := c.Step(slice, -0.5); st.FSBUtil != 0 {
		t.Errorf("negative utilization not clamped: %v", st.FSBUtil)
	}
	if st := c.Step(slice, 1.5); st.FSBUtil != 1 {
		t.Errorf("overload utilization not clamped: %v", st.FSBUtil)
	}
	var worst float64
	for i := 0; i < 200_000; i++ {
		st := c.Step(slice, 0.5)
		if a := math.Abs(st.DomainDrift); a > worst {
			worst = a
		}
	}
	// Equilibrium sigma is 0.15 W; 2 W would mean the mean reversion is
	// broken and the artifact swamps the signal.
	if worst > 2 {
		t.Errorf("drift excursion %v W, want mean-reverting around 0", worst)
	}
	if worst == 0 {
		t.Error("drift never moved; OU noise not applied")
	}
}
