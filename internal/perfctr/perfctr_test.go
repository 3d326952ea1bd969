package perfctr

import (
	"math"
	"testing"
	"time"

	"trickledown/internal/pmu"
	"trickledown/internal/sim"
)

type fakeInts struct {
	m [][]uint64
}

func (f *fakeInts) Matrix() [][]uint64 {
	out := make([][]uint64, len(f.m))
	for i := range f.m {
		out[i] = append([]uint64(nil), f.m[i]...)
	}
	return out
}

func newSampler(t *testing.T, n int, ints InterruptSource) (*Sampler, []*pmu.PMU) {
	t.Helper()
	pmus := make([]*pmu.PMU, n)
	for i := range pmus {
		pmus[i] = pmu.New()
	}
	s, err := NewSampler(1.0, pmus, ints, sim.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	return s, pmus
}

func TestSamplerProgramsPMUs(t *testing.T) {
	_, pmus := newSampler(t, 2, nil)
	for _, p := range pmus {
		for slot, e := range sampledEvents {
			if _, err := p.Read(slot); err != nil {
				t.Errorf("%v not programmed: %v", e, err)
			}
		}
	}
}

func TestSamplerFiresAtPeriod(t *testing.T) {
	s, pmus := newSampler(t, 1, nil)
	clock := sim.NewClock(time.Millisecond, 2.8e9)
	for i := 0; i < 10000; i++ { // 10 s
		pmus[0].Observe(pmu.EventCycles, 2800000)
		s.Step(clock)
		clock.Tick()
	}
	got := len(s.Samples())
	if got < 9 || got > 11 {
		t.Fatalf("samples in 10s = %d, want ~10", got)
	}
	// Intervals hover around 1 s with small jitter.
	for i, smp := range s.Samples() {
		if i == 0 {
			continue
		}
		if math.Abs(smp.IntervalSec-1) > 0.05 {
			t.Errorf("sample %d interval = %v", i, smp.IntervalSec)
		}
	}
}

func TestSampleReadsAndClears(t *testing.T) {
	s, pmus := newSampler(t, 2, nil)
	clock := sim.NewClock(time.Millisecond, 2.8e9)
	for i := 0; i < 2500; i++ {
		pmus[0].Observe(pmu.EventFetchedUops, 1000)
		pmus[1].Observe(pmu.EventFetchedUops, 500)
		s.Step(clock)
		clock.Tick()
	}
	samples := s.Samples()
	if len(samples) < 2 {
		t.Fatalf("samples = %d", len(samples))
	}
	// Each interval's uops must be ~interval * rate, not cumulative.
	s1 := samples[1]
	want0 := s1.IntervalSec * 1000 * 1000 // 1000 uops/ms
	if math.Abs(float64(s1.CPUs[0].FetchedUops)-want0)/want0 > 0.02 {
		t.Errorf("cpu0 uops = %d, want ~%v (cleared between samples)", s1.CPUs[0].FetchedUops, want0)
	}
	if s1.CPUs[1].FetchedUops >= s1.CPUs[0].FetchedUops {
		t.Error("per-CPU counts not separated")
	}
}

func TestInterruptDeltas(t *testing.T) {
	ints := &fakeInts{m: [][]uint64{{0, 0}, {0, 0}}}
	s, _ := newSampler(t, 2, ints)
	clock := sim.NewClock(time.Millisecond, 2.8e9)
	for i := 0; i < 2500; i++ {
		ints.m[0][0] += 2 // vector 0, cpu 0: 2 per ms
		ints.m[1][1]++    // vector 1, cpu 1: 1 per ms
		s.Step(clock)
		clock.Tick()
	}
	samples := s.Samples()
	if len(samples) < 2 {
		t.Fatalf("samples = %d", len(samples))
	}
	smp := samples[1]
	iv := smp.IntervalSec
	if got, want := float64(smp.Ints[0][0]+smp.Ints[0][1]), 2000*iv; math.Abs(got-want)/want > 0.02 {
		t.Errorf("vector 0 delta = %v, want ~%v", got, want)
	}
	if got, want := float64(smp.IntsForCPU(1)), 1000*iv; math.Abs(got-want)/want > 0.02 {
		t.Errorf("cpu 1 delta = %v, want ~%v", got, want)
	}
	if got := smp.IntsTotal(); got != smp.IntsForCPU(0)+smp.IntsForCPU(1) {
		t.Errorf("total %d != per-cpu sum", got)
	}
	if smp.IntsForCPU(-1) != 0 || smp.IntsForCPU(99) != 0 {
		t.Error("out-of-range cpu nonzero")
	}
}

func TestOnSampleHook(t *testing.T) {
	s, _ := newSampler(t, 1, nil)
	var pulses int
	s.OnSample(func() { pulses++ })
	s.OnSample(nil) // ignored
	clock := sim.NewClock(time.Millisecond, 2.8e9)
	for i := 0; i < 3500; i++ {
		s.Step(clock)
		clock.Tick()
	}
	if pulses != len(s.Samples()) {
		t.Errorf("pulses = %d, samples = %d", pulses, len(s.Samples()))
	}
	if pulses < 3 {
		t.Errorf("pulses = %d", pulses)
	}
}

func TestNewSamplerErrors(t *testing.T) {
	if _, err := NewSampler(0, []*pmu.PMU{pmu.New()}, nil, sim.NewRNG(1)); err == nil {
		t.Error("zero period accepted")
	}
	if _, err := NewSampler(1, nil, nil, sim.NewRNG(1)); err == nil {
		t.Error("no PMUs accepted")
	}
}

func TestPeriod(t *testing.T) {
	s, _ := newSampler(t, 1, nil)
	if s.period != 1.0 {
		t.Errorf("period = %v", s.period)
	}
}

type fakeUtil struct{ busy []float64 }

func (f *fakeUtil) BusySeconds() []float64 {
	return append([]float64(nil), f.busy...)
}

func TestAttachUtilSource(t *testing.T) {
	util := &fakeUtil{busy: []float64{0, 0}}
	s, _ := newSampler(t, 2, nil)
	s.AttachUtilSource(util)
	clock := sim.NewClock(time.Millisecond, 2.8e9)
	for i := 0; i < 2500; i++ {
		util.busy[0] += 0.0005 // 50% utilization
		util.busy[1] += 0.001  // 100%
		s.Step(clock)
		clock.Tick()
	}
	samples := s.Samples()
	if len(samples) < 2 {
		t.Fatalf("samples = %d", len(samples))
	}
	smp := samples[1]
	if len(smp.OSBusySec) != 2 {
		t.Fatalf("OSBusySec len = %d", len(smp.OSBusySec))
	}
	if r := smp.OSBusySec[0] / smp.IntervalSec; math.Abs(r-0.5) > 0.02 {
		t.Errorf("cpu0 utilization = %v, want ~0.5", r)
	}
	if r := smp.OSBusySec[1] / smp.IntervalSec; math.Abs(r-1.0) > 0.02 {
		t.Errorf("cpu1 utilization = %v, want ~1.0", r)
	}
	// Detaching is allowed.
	s.AttachUtilSource(nil)
}

func TestSamplerWithoutUtilSourceHasNilBusy(t *testing.T) {
	s, _ := newSampler(t, 1, nil)
	clock := sim.NewClock(time.Millisecond, 2.8e9)
	for i := 0; i < 1500; i++ {
		s.Step(clock)
		clock.Tick()
	}
	if len(s.Samples()) == 0 {
		t.Fatal("no samples")
	}
	if s.Samples()[0].OSBusySec != nil {
		t.Error("OSBusySec appeared without a source")
	}
}

// glitchFault zeroes cpu 1's cycle count on every sample — the stuck
// counter slot CheckDataset is meant to catch downstream.
type glitchFault struct{ calls int }

func (g *glitchFault) PerturbCounts(_ float64, cpu int, c *CPUCounts) {
	g.calls++
	if cpu == 1 {
		c.Cycles = 0
	}
}

func TestFaultInjectorCorruptsCounts(t *testing.T) {
	s, pmus := newSampler(t, 2, nil)
	g := &glitchFault{}
	s.SetFaultInjector(g)
	clock := sim.NewClock(time.Millisecond, 2.8e9)
	for i := 0; i < 3000; i++ {
		for _, p := range pmus {
			p.Observe(pmu.EventCycles, 2800000)
		}
		s.Step(clock)
		clock.Tick()
	}
	samples := s.Samples()
	if len(samples) == 0 {
		t.Fatal("no samples fired")
	}
	if g.calls != len(samples)*2 {
		t.Errorf("injector consulted %d times, want %d (per cpu per sample)", g.calls, len(samples)*2)
	}
	for i, smp := range samples {
		if smp.CPUs[0].Cycles == 0 {
			t.Errorf("sample %d cpu0 corrupted, injector should only touch cpu1", i)
		}
		if smp.CPUs[1].Cycles != 0 {
			t.Errorf("sample %d cpu1 cycles = %d, want glitched to 0", i, smp.CPUs[1].Cycles)
		}
	}
}
