package core

import (
	"math"
	"testing"

	"trickledown/internal/perfctr"
	"trickledown/internal/power"
	"trickledown/internal/sim"
)

// opV is the voltage scale ExtractMetrics infers for a one-processor
// sample: its SumV feature.
func opV(s perfctr.Sample, nominalHz float64) float64 {
	var m Metrics
	ExtractMetricsAtInto(&m, &s, nominalHz)
	return m[SumV]
}

func TestFrequencyInference(t *testing.T) {
	// A sample whose cycle count corresponds to 70% of nominal clock.
	s := perfctr.Sample{
		TargetSeconds: 1,
		IntervalSec:   1,
		CPUs: []perfctr.CPUCounts{{
			Cycles:      uint64(0.7 * sim.DefaultCoreHz),
			FetchedUops: uint64(0.7 * sim.DefaultCoreHz),
		}},
	}
	if v, want := opV(s, sim.DefaultCoreHz), power.VoltageScale(0.7); math.Abs(v-want) > 1e-6 {
		t.Errorf("inferred voltage = %v, want V(0.7) = %v", v, want)
	}
	// Per-cycle rates are frequency-independent.
	if m := ExtractMetrics(&s); math.Abs(m[SumUPC]-1.0) > 0.001 {
		t.Errorf("upc = %v, want 1.0", m[SumUPC])
	}
}

func TestFrequencyInferenceClamps(t *testing.T) {
	mk := func(cyc float64, interval float64) perfctr.Sample {
		return perfctr.Sample{
			IntervalSec: interval,
			CPUs:        []perfctr.CPUCounts{{Cycles: uint64(cyc)}},
		}
	}
	if v := opV(mk(10*sim.DefaultCoreHz, 1), sim.DefaultCoreHz); v != power.VoltageScale(1) {
		t.Errorf("overrange voltage = %v, want V(1): frequency clamped at 1", v)
	}
	if v := opV(mk(0.01*sim.DefaultCoreHz, 1), sim.DefaultCoreHz); v != power.VoltageScale(0.1) {
		t.Errorf("underrange voltage = %v, want V(0.1): frequency clamped at 0.1", v)
	}
	// No interval: defaults to nominal.
	if v := opV(mk(1e9, 0), sim.DefaultCoreHz); v != power.VoltageScale(1) {
		t.Errorf("no-interval voltage = %v, want V(1)", v)
	}
}

func TestExtractMetricsAtCustomClock(t *testing.T) {
	s := perfctr.Sample{
		IntervalSec: 1,
		CPUs:        []perfctr.CPUCounts{{Cycles: 1e9}},
	}
	if v, want := opV(s, 2e9), power.VoltageScale(0.5); math.Abs(v-want) > 1e-9 {
		t.Errorf("voltage at 2GHz nominal = %v, want V(0.5) = %v", v, want)
	}
}

// TestCPUDVFSSpecDesign: the DVFS sums weight each processor's active
// fraction and fetch rate by its own f·V(f)², and a processor without
// cycles counts at nominal voltage.
func TestCPUDVFSSpecDesign(t *testing.T) {
	const hz = sim.DefaultCoreHz
	s := perfctr.Sample{
		IntervalSec: 1,
		CPUs: []perfctr.CPUCounts{
			{Cycles: uint64(hz), FetchedUops: uint64(2 * hz)},                                   // f=1, active 1, upc 2
			{Cycles: uint64(hz / 2), HaltedCycles: uint64(hz / 4), FetchedUops: uint64(hz / 2)}, // f=0.5, active 0.5, upc 1
		},
	}
	m := ExtractMetrics(&s)
	row := designRow(CPUDVFSSpec(), &m)
	if len(row) != 3 {
		t.Fatalf("row len = %d", len(row))
	}
	v1 := power.VoltageScale(1)
	v2 := power.VoltageScale(0.5)
	wantV := v1 + v2
	if math.Abs(row[0]-wantV) > 1e-12 {
		t.Errorf("voltage term = %v, want %v", row[0], wantV)
	}
	wantAct := 1*1*v1*v1 + 0.5*0.5*v2*v2
	if math.Abs(row[1]-wantAct) > 1e-12 {
		t.Errorf("active term = %v, want %v", row[1], wantAct)
	}
	wantUPC := 2*1*v1*v1 + 1*0.5*v2*v2
	if math.Abs(row[2]-wantUPC) > 1e-12 {
		t.Errorf("upc term = %v, want %v", row[2], wantUPC)
	}
	// Processors without cycles are treated as nominal.
	s.CPUs = make([]perfctr.CPUCounts, 2)
	m = ExtractMetrics(&s)
	row = designRow(CPUDVFSSpec(), &m)
	if row[0] != 2*v1 || row[1] != 0 || row[2] != 0 {
		t.Errorf("zero-cycle fallback row = %v, want [%v 0 0]", row, 2*v1)
	}
}

func TestVoltageScale(t *testing.T) {
	if v := power.VoltageScale(1); v != 1 {
		t.Errorf("V(1) = %v", v)
	}
	if v := power.VoltageScale(0); v != 0.75 {
		t.Errorf("V(0) = %v", v)
	}
	if v := power.VoltageScale(-3); v != 0.75 {
		t.Errorf("V(-3) = %v", v)
	}
	if v := power.VoltageScale(9); v != 1 {
		t.Errorf("V(9) = %v", v)
	}
	if power.VoltageScale(0.5) >= power.VoltageScale(0.9) {
		t.Error("voltage must rise with frequency")
	}
}
