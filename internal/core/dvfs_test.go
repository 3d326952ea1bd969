package core

import (
	"math"
	"testing"

	"trickledown/internal/perfctr"
	"trickledown/internal/power"
	"trickledown/internal/sim"
)

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
	m := ExtractMetrics(&s)
	if math.Abs(m.FreqScale[0]-0.7) > 0.001 {
		t.Errorf("inferred frequency = %v, want 0.7", m.FreqScale[0])
	}
	// Per-cycle rates are frequency-independent.
	if math.Abs(m.UopsPerCycle[0]-1.0) > 0.001 {
		t.Errorf("upc = %v, want 1.0", m.UopsPerCycle[0])
	}
}

func TestFrequencyInferenceClamps(t *testing.T) {
	mk := func(cyc float64, interval float64) *Metrics {
		s := perfctr.Sample{
			IntervalSec: interval,
			CPUs:        []perfctr.CPUCounts{{Cycles: uint64(cyc)}},
		}
		return ExtractMetrics(&s)
	}
	if f := mk(10*sim.DefaultCoreHz, 1).FreqScale[0]; f != 1 {
		t.Errorf("overrange frequency = %v, want clamp at 1", f)
	}
	if f := mk(0.01*sim.DefaultCoreHz, 1).FreqScale[0]; f != 0.1 {
		t.Errorf("underrange frequency = %v, want clamp at 0.1", f)
	}
	// No interval: defaults to nominal.
	if f := mk(1e9, 0).FreqScale[0]; f != 1 {
		t.Errorf("no-interval frequency = %v, want 1", f)
	}
}

func TestExtractMetricsAtCustomClock(t *testing.T) {
	s := perfctr.Sample{
		IntervalSec: 1,
		CPUs:        []perfctr.CPUCounts{{Cycles: 1e9}},
	}
	m := ExtractMetricsAt(&s, 2e9)
	if math.Abs(m.FreqScale[0]-0.5) > 1e-9 {
		t.Errorf("freq at 2GHz nominal = %v, want 0.5", m.FreqScale[0])
	}
}

func TestCPUDVFSSpecDesign(t *testing.T) {
	m := &Metrics{
		NumCPUs:       2,
		PercentActive: []float64{1, 0.5},
		UopsPerCycle:  []float64{2, 1},
		FreqScale:     []float64{1, 0.5},
	}
	row := designRow(CPUDVFSSpec(), m)
	if len(row) != 3 {
		t.Fatalf("row len = %d", len(row))
	}
	v1 := power.VoltageScale(1)
	v2 := power.VoltageScale(0.5)
	wantV := v1 + v2
	if math.Abs(row[0]-wantV) > 1e-12 {
		t.Errorf("voltage column = %v, want %v", row[0], wantV)
	}
	wantAct := 1*1*v1*v1 + 0.5*0.5*v2*v2
	if math.Abs(row[1]-wantAct) > 1e-12 {
		t.Errorf("active column = %v, want %v", row[1], wantAct)
	}
	// Zero FreqScale entries are treated as nominal.
	m.FreqScale = []float64{0, 0}
	row = designRow(CPUDVFSSpec(), m)
	if math.Abs(row[0]-2*v1) > 1e-12 {
		t.Errorf("zero-freq fallback voltage column = %v", row[0])
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
