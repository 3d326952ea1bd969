package thermal

import (
	"math"
	"testing"
	"testing/quick"

	"trickledown/internal/power"
)

func constantPower() power.Reading {
	return power.Reading{160, 20, 40, 33, 22}
}

func TestStartsAtAmbient(t *testing.T) {
	m := New(DefaultParams())
	for _, s := range power.Subsystems() {
		if m.Temps()[s] != 25 {
			t.Errorf("%s starts at %v", s, m.Temps()[s])
		}
	}
}

func TestConvergesToSteadyState(t *testing.T) {
	m := New(DefaultParams())
	pw := constantPower()
	want := m.SteadyState(pw)
	for i := 0; i < 3000; i++ { // 50 minutes at 1s steps
		m.Step(1, pw)
	}
	for _, s := range power.Subsystems() {
		if math.Abs(m.Temps()[s]-want[s]) > 0.1 {
			t.Errorf("%s converged to %v, want %v", s, m.Temps()[s], want[s])
		}
	}
	// CPU equilibrium in a plausible server range.
	if cpuT := want[power.SubCPU]; cpuT < 55 || cpuT > 85 {
		t.Errorf("CPU steady state = %v °C, implausible", cpuT)
	}
}

func TestTimeConstant(t *testing.T) {
	p := DefaultParams()
	m := New(p)
	pw := constantPower()
	target := m.SteadyState(pw)[power.SubCPU]
	tau := p.TimeConstantSec[power.SubCPU]
	for i := 0.0; i < tau; i++ {
		m.Step(1, pw)
	}
	frac := (m.Temps()[power.SubCPU] - p.AmbientC) / (target - p.AmbientC)
	if math.Abs(frac-0.632) > 0.03 {
		t.Errorf("after one tau, covered %.3f of the step, want ~0.632", frac)
	}
}

func TestStabilityWithHugeStep(t *testing.T) {
	m := New(DefaultParams())
	pw := constantPower()
	m.Step(1e6, pw) // one giant step must not overshoot
	want := m.SteadyState(pw)
	for _, s := range power.Subsystems() {
		if m.Temps()[s] > want[s]+1e-6 {
			t.Errorf("%s overshot: %v > %v", s, m.Temps()[s], want[s])
		}
	}
	m.Step(-5, pw) // ignored
	m.Step(0, pw)  // ignored
}

func TestSensorLagsDie(t *testing.T) {
	m := New(DefaultParams())
	pw := constantPower()
	lagSeen := false
	for i := 0; i < 120; i++ {
		m.Step(1, pw)
		die := m.Temps()[power.SubCPU]
		sensor := m.SensorTemps()[power.SubCPU]
		if sensor > die+1e-6 {
			t.Fatalf("sensor %v ahead of die %v at t=%d", sensor, die, i)
		}
		if die-sensor > 2 {
			lagSeen = true
		}
	}
	if !lagSeen {
		t.Error("sensor never lagged the die meaningfully during the transient")
	}
}

func TestSensorQuantization(t *testing.T) {
	p := DefaultParams()
	p.SensorQuantC = 1.0
	m := New(p)
	for i := 0; i < 200; i++ {
		m.Step(1, constantPower())
	}
	v := m.SensorTemps()[power.SubCPU]
	if v != math.Trunc(v) {
		t.Errorf("quantized sensor reading %v not on 1 °C grid", v)
	}
}

func TestReset(t *testing.T) {
	m := New(DefaultParams())
	for i := 0; i < 100; i++ {
		m.Step(1, constantPower())
	}
	m.Reset()
	if m.Temps()[power.SubCPU] != 25 || m.SensorTemps()[power.SubCPU] != 25 {
		t.Error("Reset did not return to ambient")
	}
}

func TestNewPanicsOnBadParams(t *testing.T) {
	for name, mutate := range map[string]func(*Params){
		"zero resistance":     func(p *Params) { p.ResistanceCPerW[power.SubDisk] = 0 },
		"negative time const": func(p *Params) { p.TimeConstantSec[power.SubCPU] = -1 },
	} {
		p := DefaultParams()
		mutate(&p)
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			New(p)
		}()
	}
}

func TestZeroSensorLagAllowed(t *testing.T) {
	p := DefaultParams()
	p.SensorLagSec = 0
	m := New(p) // must not panic; becomes effectively instant
	m.Step(1, constantPower())
	die := m.Temps()[power.SubCPU]
	sensor := m.SensorTemps()[power.SubCPU]
	if math.Abs(die-sensor) > p.SensorQuantC+1e-9 {
		t.Errorf("instant sensor should track die: %v vs %v", sensor, die)
	}
}

// Property: temperatures stay within [ambient, ambient + Pmax*R] for any
// bounded power sequence.
func TestTemperatureBounds(t *testing.T) {
	p := DefaultParams()
	f := func(seeds []uint8) bool {
		m := New(p)
		maxP := 0.0
		for _, b := range seeds {
			pw := power.Reading{}
			for i := range pw {
				pw[i] = float64(b%200) + float64(i)
				if pw[i] > maxP {
					maxP = pw[i]
				}
			}
			m.Step(float64(b%10)+0.1, pw)
		}
		for _, s := range power.Subsystems() {
			v := m.Temps()[s]
			if v < p.AmbientC-1e-9 || v > p.AmbientC+maxP*p.ResistanceCPerW[s]+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: steady state is linear in power.
func TestSteadyStateLinear(t *testing.T) {
	m := New(DefaultParams())
	a := m.SteadyState(power.Reading{100, 10, 20, 30, 20})
	b := m.SteadyState(power.Reading{200, 20, 40, 60, 40})
	for _, s := range power.Subsystems() {
		gotRise := b[s] - 25
		wantRise := 2 * (a[s] - 25)
		if math.Abs(gotRise-wantRise) > 1e-9 {
			t.Errorf("%s: steady state not linear", s)
		}
	}
}
