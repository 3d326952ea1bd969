// Package thermal extends the reproduction along the paper's motivating
// axis: thermal management. The paper argues that performance-counter
// power estimates beat temperature sensors for driving adaptation
// because "due to the thermal inertia in microprocessor packaging,
// detection of temperature changes may occur significantly later than
// the power events which caused them" — sensors lag, counters do not.
//
// Each subsystem is modeled as a first-order RC thermal network (the
// standard compact model, after Lee & Skadron's counter-based
// temperature work the paper cites): die temperature relaxes toward
// ambient plus P·R with time constant R·C. A separate sensor model adds
// the readout lag and quantization of real on-board sensors, so the
// package can quantify exactly how much earlier a counter-based power
// estimate sees a thermal event than the sensor that is supposed to
// protect against it.
package thermal

import (
	"fmt"
	"math"

	"trickledown/internal/power"
)

// Temps holds one temperature per subsystem, in degrees Celsius.
type Temps [power.NumSubsystems]float64

// Params configures the thermal network.
type Params struct {
	// AmbientC is the inlet air temperature.
	AmbientC float64
	// ResistanceCPerW is each subsystem's junction-to-ambient thermal
	// resistance (°C per Watt).
	ResistanceCPerW Temps
	// TimeConstantSec is each subsystem's R·C product: how long the
	// package takes to cover ~63% of a temperature step.
	TimeConstantSec Temps
	// SensorLagSec is the first-order readout lag of the on-board
	// temperature sensors.
	SensorLagSec float64
	// SensorQuantC is the sensor readout quantization step.
	SensorQuantC float64
}

// DefaultParams models a 2006-era 4U server: CPU heatsinks with tens of
// seconds of inertia, DIMMs and bridges with less airflow, disks with
// large mechanical mass.
func DefaultParams() Params {
	return Params{
		AmbientC: 25,
		ResistanceCPerW: Temps{
			power.SubCPU:     0.27, // 165 W -> ~70 °C
			power.SubChipset: 1.25,
			power.SubMemory:  0.65,
			power.SubIO:      0.57,
			power.SubDisk:    0.77,
		},
		TimeConstantSec: Temps{
			power.SubCPU:     35,
			power.SubChipset: 50,
			power.SubMemory:  60,
			power.SubIO:      80,
			power.SubDisk:    300,
		},
		SensorLagSec: 12,
		SensorQuantC: 0.5,
	}
}

// Model integrates subsystem temperatures from power readings.
type Model struct {
	p      Params
	temps  Temps
	sensor Temps
}

// New returns a model at thermal equilibrium with ambient. It panics on
// non-positive resistances or time constants, which would make the
// integration meaningless.
func New(p Params) *Model {
	for _, s := range power.Subsystems() {
		if p.ResistanceCPerW[s] <= 0 {
			panic(fmt.Sprintf("thermal: non-positive resistance for %s", s))
		}
		if p.TimeConstantSec[s] <= 0 {
			panic(fmt.Sprintf("thermal: non-positive time constant for %s", s))
		}
	}
	if p.SensorLagSec <= 0 {
		p.SensorLagSec = 1e-9 // effectively instant
	}
	m := &Model{p: p}
	m.Reset()
	return m
}

// Reset returns every temperature to ambient.
func (m *Model) Reset() {
	for i := range m.temps {
		m.temps[i] = m.p.AmbientC
		m.sensor[i] = m.p.AmbientC
	}
}

// Step advances the network by dt seconds under the given rail power.
func (m *Model) Step(dt float64, pw power.Reading) {
	if dt <= 0 {
		return
	}
	for _, s := range power.Subsystems() {
		target := m.p.AmbientC + pw[s]*m.p.ResistanceCPerW[s]
		tau := m.p.TimeConstantSec[s]
		// Exact first-order update is stable for any dt; the linear form
		// would overshoot when dt > tau.
		alpha := 1 - expNeg(dt/tau)
		m.temps[s] += (target - m.temps[s]) * alpha
		// Sensor readout lags the die.
		sAlpha := 1 - expNeg(dt/m.p.SensorLagSec)
		m.sensor[s] += (m.temps[s] - m.sensor[s]) * sAlpha
	}
}

// Temps returns the actual subsystem temperatures.
func (m *Model) Temps() Temps { return m.temps }

// SensorTemps returns the lagged, quantized sensor readouts — what a
// thermal-management loop polling the board would see.
func (m *Model) SensorTemps() Temps {
	var out Temps
	q := m.p.SensorQuantC
	for i, v := range m.sensor {
		if q > 0 {
			steps := int(v / q)
			v = float64(steps) * q
		}
		out[i] = v
	}
	return out
}

// SteadyState returns the equilibrium temperatures for constant power —
// the instant prediction a counter-based power estimate enables without
// waiting for any thermal mass ("by using performance counters as a
// proxy for power consumption, it is possible to see the cause of
// thermal emergencies in a timelier manner").
func (m *Model) SteadyState(pw power.Reading) Temps {
	var out Temps
	for _, s := range power.Subsystems() {
		out[s] = m.p.AmbientC + pw[s]*m.p.ResistanceCPerW[s]
	}
	return out
}

// expNeg computes e^-x.
func expNeg(x float64) float64 {
	return math.Exp(-x)
}
