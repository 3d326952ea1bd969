package workload

import (
	"math"
	"strings"
	"testing"

	"trickledown/internal/sim"
)

// fixedGen returns a constant demand, optionally over capacity.
type fixedGen struct {
	name string
	d    Demand
}

func (g fixedGen) Name() string                                   { return g.name }
func (g fixedGen) Demand(t float64, env Env, rng *sim.RNG) Demand { return g.d }

func busyDemand() Demand {
	return Demand{
		Active: 0.9, UopsPerCycle: 1.4, L3MissPerKuop: 1.2,
		DirtyEvictFrac: 0.3, Prefetchability: 0.7, MemLocality: 0.8,
		DiskReadBytes: 1024, NetRxBytes: 2048,
	}
}

func TestPatternEdgeCases(t *testing.T) {
	cases := []struct {
		name  string
		check func(t *testing.T)
	}{
		{"zero tenants rejected", func(t *testing.T) {
			c := NewCohort()
			if _, err := c.Generator(0); err == nil || !strings.Contains(err.Error(), "zero tenants") {
				t.Fatalf("Generator on empty cohort: %v", err)
			}
			if _, err := c.Spec("empty"); err == nil {
				t.Fatal("Spec on empty cohort accepted")
			}
		}},
		{"single tenant equals plain generator", func(t *testing.T) {
			c := NewCohort()
			if _, err := c.Add("solo", fixedGen{name: "solo", d: busyDemand()}); err != nil {
				t.Fatal(err)
			}
			g, err := c.Generator(0)
			if err != nil {
				t.Fatal(err)
			}
			plain := fixedGen{name: "solo", d: busyDemand()}
			rng := sim.NewRNG(1)
			for i := 0; i < 100; i++ {
				tt := float64(i) * 0.001
				if got, want := g.Demand(tt, Env{}, rng), plain.Demand(tt, Env{}, rng); got != want {
					t.Fatalf("interval %d: cohort %+v != plain %+v", i, got, want)
				}
			}
		}},
		{"diurnal period shorter than sample interval", func(t *testing.T) {
			g, err := NewDiurnal(fixedGen{name: "x", d: busyDemand()}, DiurnalConfig{
				Base:    0.5,
				Periods: []DiurnalPeriod{{PeriodSec: 1e-4, Amp: 10}},
			})
			if err != nil {
				t.Fatal(err)
			}
			rng := sim.NewRNG(1)
			for i := 0; i < 1000; i++ {
				d := g.Demand(float64(i)*0.001, Env{}, rng)
				if d.Active < 0 || d.Active > 1 || math.IsNaN(d.Active) {
					t.Fatalf("interval %d: Active %v out of [0,1]", i, d.Active)
				}
			}
		}},
		{"saturation clamping at demand 1.0", func(t *testing.T) {
			over := busyDemand()
			over.Active = 1.0
			c := NewCohort()
			for _, name := range []string{"a", "b", "c", "d"} {
				if _, err := c.Add(name, fixedGen{name: name, d: over}); err != nil {
					t.Fatal(err)
				}
			}
			gens := make([]Generator, 4)
			for i := range gens {
				g, err := c.Generator(i)
				if err != nil {
					t.Fatal(err)
				}
				gens[i] = g
			}
			rng := sim.NewRNG(1)
			for i := 0; i < 50; i++ {
				tt := float64(i) * 0.001
				for ti, g := range gens {
					d := g.Demand(tt, Env{}, rng)
					if d.Active > 1 || d.Active < 0 {
						t.Fatalf("tenant %d interval %d: Active %v escaped clamp", ti, i, d.Active)
					}
					if i > 1 && d.L3MissPerKuop <= over.L3MissPerKuop {
						t.Fatalf("tenant %d interval %d: no L3 interference (%v)", ti, i, d.L3MissPerKuop)
					}
				}
			}
			// Diurnal over an over-capacity inner stays clamped too.
			dg, err := NewDiurnal(fixedGen{name: "x", d: over}, DiurnalConfig{
				Base: 2.0, Periods: []DiurnalPeriod{{PeriodSec: 10, Amp: 5}},
			})
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 100; i++ {
				if d := dg.Demand(float64(i)*0.1, Env{}, rng); d.Active > 1 {
					t.Fatalf("diurnal Active %v > 1", d.Active)
				}
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, tc.check)
	}
}

func TestDiurnalEnvelopeShape(t *testing.T) {
	g, err := NewDiurnal(fixedGen{name: "x", d: busyDemand()}, DiurnalConfig{
		Base:    0.5,
		Periods: []DiurnalPeriod{{PeriodSec: 100, Amp: 0.4, PhaseRad: math.Pi / 2}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if peak := g.Envelope(0); math.Abs(peak-0.9) > 1e-12 {
		t.Fatalf("peak envelope %v, want 0.9", peak)
	}
	if trough := g.Envelope(50); math.Abs(trough-0.1) > 1e-12 {
		t.Fatalf("trough envelope %v, want 0.1", trough)
	}
	if full := g.Envelope(100); math.Abs(full-0.9) > 1e-12 {
		t.Fatalf("full-cycle envelope %v, want 0.9", full)
	}
	// The envelope scales Active and I/O but not per-uop intensity.
	d := g.Demand(50, Env{}, sim.NewRNG(1))
	want := busyDemand()
	if math.Abs(d.Active-want.Active*0.1) > 1e-12 {
		t.Fatalf("trough Active %v", d.Active)
	}
	if d.L3MissPerKuop != want.L3MissPerKuop || d.UopsPerCycle != want.UopsPerCycle {
		t.Fatal("per-uop rates must pass through the envelope")
	}
	if math.Abs(d.DiskReadBytes-want.DiskReadBytes*0.1) > 1e-9 {
		t.Fatalf("trough disk bytes %v", d.DiskReadBytes)
	}
}

func TestCohortInterferenceMonotoneInPressure(t *testing.T) {
	// The same probe tenant sees strictly more L3 misses as heavier
	// co-tenants are added alongside it.
	probeMiss := func(coTenants int) float64 {
		c := NewCohort()
		if _, err := c.Add("probe", fixedGen{name: "probe", d: busyDemand()}); err != nil {
			t.Fatal(err)
		}
		heavy := busyDemand()
		heavy.L3MissPerKuop = 4
		for i := 0; i < coTenants; i++ {
			if _, err := c.Add("co", fixedGen{name: "co", d: heavy}); err != nil {
				t.Fatal(err)
			}
		}
		gens := make([]Generator, len(c.gens))
		for i := range gens {
			g, err := c.Generator(i)
			if err != nil {
				t.Fatal(err)
			}
			gens[i] = g
		}
		rng := sim.NewRNG(1)
		var last float64
		for i := 0; i < 10; i++ {
			tt := float64(i) * 0.001
			for ti, g := range gens {
				d := g.Demand(tt, Env{}, rng)
				if ti == 0 {
					last = d.L3MissPerKuop
				}
			}
		}
		return last
	}
	alone := probeMiss(0)
	one := probeMiss(1)
	three := probeMiss(3)
	if alone != busyDemand().L3MissPerKuop {
		t.Fatalf("solo probe inflated: %v", alone)
	}
	if !(one > alone) || !(three > one) {
		t.Fatalf("interference not monotone: alone=%v one=%v three=%v", alone, one, three)
	}
}

func TestCohortUsageAccounting(t *testing.T) {
	c := NewCohort()
	if _, err := c.Add("a", fixedGen{name: "a", d: busyDemand()}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Add("b", fixedGen{name: "b", d: Demand{}}); err != nil {
		t.Fatal(err)
	}
	ga, _ := c.Generator(0)
	gb, _ := c.Generator(1)
	rng := sim.NewRNG(1)
	for i := 0; i < 100; i++ {
		tt := float64(i) * 0.001
		ga.Demand(tt, Env{}, rng)
		gb.Demand(tt, Env{}, rng)
	}
	u := c.Usage()
	if u[0].Name != "a" || u[1].Name != "b" {
		t.Fatalf("usage names %q %q", u[0].Name, u[1].Name)
	}
	if u[0].Intervals != 100 || u[1].Intervals != 100 {
		t.Fatalf("intervals %d %d", u[0].Intervals, u[1].Intervals)
	}
	if u[0].ActiveSum <= 0 || u[0].BusSum <= 0 || u[0].DiskBytes <= 0 {
		t.Fatalf("tenant a usage empty: %+v", u[0])
	}
	if u[1].ActiveSum != 0 || u[1].BusSum != 0 {
		t.Fatalf("idle tenant accrued usage: %+v", u[1])
	}
	if _, err := c.Add("late", fixedGen{}); err == nil {
		t.Fatal("Add after seal accepted")
	}
}

func TestPatternConstructorValidation(t *testing.T) {
	if _, err := NewDiurnal(nil, DiurnalConfig{}); err == nil {
		t.Fatal("nil inner accepted")
	}
	if _, err := NewDiurnal(fixedGen{}, DiurnalConfig{Periods: []DiurnalPeriod{{PeriodSec: 0}}}); err == nil {
		t.Fatal("zero period accepted")
	}
	if _, err := NewDiurnal(fixedGen{}, DiurnalConfig{Base: math.NaN()}); err == nil {
		t.Fatal("NaN base accepted")
	}
	c := NewCohort()
	if _, err := c.Add("", fixedGen{}); err == nil {
		t.Fatal("empty tenant name accepted")
	}
}
