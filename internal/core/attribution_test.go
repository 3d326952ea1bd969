package core

import (
	"math"
	"testing"
)

func TestPerThreadPowerSplitsByBusyShare(t *testing.T) {
	est := trainedEstimator(t)
	s := mkSample(0.8, 1.5, 150, 800, 60, 1.2)
	// Two CPUs x two threads: cpu0 split 3:1, cpu1 all on thread 0.
	s.OSThreadBusySec = []float64{0.6, 0.2, 0.8, 0}
	per := est.PerThreadPower(&s, 2)
	if len(per) != 4 {
		t.Fatalf("per-thread len = %d", len(per))
	}
	perCPU := est.PerCPUPower(&s)
	if got := per[0] + per[1]; math.Abs(got-perCPU[0]) > 1e-9 {
		t.Errorf("cpu0 threads sum %v != per-CPU %v", got, perCPU[0])
	}
	if got := per[2] + per[3]; math.Abs(got-perCPU[1]) > 1e-9 {
		t.Errorf("cpu1 threads sum %v != per-CPU %v", got, perCPU[1])
	}
	// Busy shares order the split; the idle thread still owes part of
	// the infrastructure floor.
	if per[0] <= per[1] {
		t.Errorf("thread0 (%v) should exceed thread1 (%v)", per[0], per[1])
	}
	floor := est.Model(0).Coef[0]
	if per[3] <= 0 || per[3] > floor {
		t.Errorf("idle thread charge = %v, want (0, %v]", per[3], floor)
	}
}

func TestPerThreadPowerEqualSplitWhenAllIdle(t *testing.T) {
	est := trainedEstimator(t)
	s := mkSample(0.01, 0.1, 5, 20, 0, 0.1)
	s.OSThreadBusySec = []float64{0, 0, 0, 0}
	per := est.PerThreadPower(&s, 2)
	if per == nil {
		t.Fatal("nil attribution")
	}
	if math.Abs(per[0]-per[1]) > 1e-9 {
		t.Errorf("idle split uneven: %v vs %v", per[0], per[1])
	}
}

func TestPerThreadPowerRequiresAccounting(t *testing.T) {
	est := trainedEstimator(t)
	s := mkSample(0.5, 1, 100, 500, 10, 1)
	if est.PerThreadPower(&s, 2) != nil {
		t.Error("attribution without OS thread accounting")
	}
	s.OSThreadBusySec = []float64{0.5} // too short
	if est.PerThreadPower(&s, 2) != nil {
		t.Error("attribution with short accounting")
	}
	s.OSThreadBusySec = []float64{-0.5, 1.0, 0.8, 0}
	if per := est.PerThreadPower(&s, 2); per != nil {
		t.Errorf("attribution with negative busy time = %v", per)
	}
	s.OSThreadBusySec = []float64{0.5, 0.5, 0.5, 0.5}
	if est.PerThreadPower(&s, 0) != nil {
		t.Error("attribution with zero threadsPerCPU")
	}
	s.IntervalSec = 0
	if est.PerThreadPower(&s, 2) != nil {
		t.Error("attribution with zero interval")
	}
}
