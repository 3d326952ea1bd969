package daq

import (
	"math"
	"testing"

	"trickledown/internal/power"
	"trickledown/internal/sim"
)

func TestAcquireAndSync(t *testing.T) {
	d := New(DefaultConfig(), sim.NewRNG(1))
	truth := power.Reading{40, 20, 30, 33, 21.6}
	for i := 0; i < 1000; i++ { // one second of 1 ms slices
		d.Acquire(0.001, truth)
	}
	d.SyncPulse()
	recs := d.Records()
	if len(recs) != 1 {
		t.Fatalf("records = %d", len(recs))
	}
	r := recs[0]
	if r.Samples != 10000 {
		t.Errorf("Samples = %d, want 10000", r.Samples)
	}
	for i, w := range truth {
		if math.Abs(r.Mean[i]-w) > 0.15 {
			t.Errorf("channel %d mean = %v, want ~%v", i, r.Mean[i], w)
		}
	}
}

func TestSyncWithoutSamplesDropped(t *testing.T) {
	d := New(DefaultConfig(), sim.NewRNG(2))
	d.SyncPulse()
	d.SyncPulse()
	if len(d.Records()) != 0 {
		t.Error("empty windows recorded")
	}
}

func TestWindowsIndependent(t *testing.T) {
	d := New(DefaultConfig(), sim.NewRNG(3))
	for i := 0; i < 500; i++ {
		d.Acquire(0.001, power.Reading{10, 10, 10, 10, 10})
	}
	d.SyncPulse()
	for i := 0; i < 500; i++ {
		d.Acquire(0.001, power.Reading{50, 50, 50, 50, 50})
	}
	d.SyncPulse()
	recs := d.Records()
	if len(recs) != 2 {
		t.Fatalf("records = %d", len(recs))
	}
	if math.Abs(recs[0].Mean[0]-10) > 0.2 || math.Abs(recs[1].Mean[0]-50) > 0.2 {
		t.Errorf("window leakage: %v then %v", recs[0].Mean[0], recs[1].Mean[0])
	}
}

func TestQuantization(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NoiseStd = 0 // expose the grid
	d := New(cfg, sim.NewRNG(4))
	step := cfg.FullScaleWatts / 4096
	d.Acquire(0.001, power.Reading{step * 10.4, 0, 0, 0, 0})
	d.SyncPulse()
	got := d.Records()[0].Mean[0]
	if math.Abs(got-step*10) > 1e-9 {
		t.Errorf("quantized = %v, want %v", got, step*10)
	}
}

func TestClamping(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NoiseStd = 0
	d := New(cfg, sim.NewRNG(5))
	d.Acquire(0.001, power.Reading{-50, 999, 0, 0, 0})
	d.SyncPulse()
	r := d.Records()[0]
	if r.Mean[0] != 0 {
		t.Errorf("negative reading = %v", r.Mean[0])
	}
	if r.Mean[1] != cfg.FullScaleWatts {
		t.Errorf("overscale reading = %v", r.Mean[1])
	}
}

func TestClockSkew(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ClockSkewPPM = 1000 // exaggerate
	d := New(cfg, sim.NewRNG(6))
	for i := 0; i < 1000; i++ {
		d.Acquire(0.001, power.Reading{})
	}
	d.SyncPulse()
	got := d.Records()[0].DAQSeconds
	if math.Abs(got-1.001) > 1e-6 {
		t.Errorf("DAQ time = %v, want 1.001 (1s + 1000ppm)", got)
	}
}

func TestAcquireIgnoresBadSlice(t *testing.T) {
	d := New(DefaultConfig(), sim.NewRNG(7))
	d.Acquire(0, power.Reading{10, 10, 10, 10, 10})
	d.Acquire(-1, power.Reading{10, 10, 10, 10, 10})
	d.SyncPulse()
	if len(d.Records()) != 0 {
		t.Error("bad slices produced samples")
	}
}

func TestNewPanicsOnBadConfig(t *testing.T) {
	for name, cfg := range map[string]Config{
		"zero rate":  {SampleHz: 0, FullScaleWatts: 400, Bits: 12},
		"zero scale": {SampleHz: 1000, FullScaleWatts: 0, Bits: 12},
		"one bit":    {SampleHz: 1000, FullScaleWatts: 400, Bits: 1},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			New(cfg, sim.NewRNG(1))
		}()
	}
}

func TestNoiseAveragesOut(t *testing.T) {
	// With 10k samples/s the per-second mean must be far tighter than the
	// per-sample noise.
	cfg := DefaultConfig()
	cfg.NoiseStd = 2.0
	d := New(cfg, sim.NewRNG(8))
	truth := power.Reading{33, 33, 33, 33, 33}
	for w := 0; w < 20; w++ {
		for i := 0; i < 1000; i++ {
			d.Acquire(0.001, truth)
		}
		d.SyncPulse()
	}
	var maxErr float64
	for _, r := range d.Records() {
		for i := range truth {
			if e := math.Abs(r.Mean[i] - truth[i]); e > maxErr {
				maxErr = e
			}
		}
	}
	if maxErr > 0.3 {
		t.Errorf("worst window error = %v, averaging not effective", maxErr)
	}
}

// stubFault sticks the CPU channel at a fixed value and eats every
// second sync edge.
type stubFault struct {
	stuckAt float64
	syncs   int
}

func (f *stubFault) PerturbReading(_ float64, r power.Reading) power.Reading {
	r[power.SubCPU] = f.stuckAt
	return r
}

func (f *stubFault) DropSync(float64) bool {
	f.syncs++
	return f.syncs%2 == 0
}

func TestFaultInjectorPerturbsAndDropsSyncs(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NoiseStd = 0
	d := New(cfg, sim.NewRNG(3))
	d.SetFaultInjector(&stubFault{stuckAt: 123})
	truth := power.Reading{40, 20, 30, 33, 21.6}
	for w := 0; w < 4; w++ {
		for i := 0; i < 1000; i++ {
			d.Acquire(0.001, truth)
		}
		d.SyncPulse()
	}
	recs := d.Records()
	// Edges 2 and 4 were eaten: edge 1 closes interval 1, edge 3 closes
	// intervals 2+3 in one double-length window, interval 4 stays open.
	if len(recs) != 2 {
		t.Fatalf("records = %d, want 2 (every second sync eaten)", len(recs))
	}
	for i, r := range recs {
		if math.Abs(r.Mean[power.SubCPU]-123) > 0.1 {
			t.Errorf("window %d CPU channel = %v, want stuck-at 123", i, r.Mean[power.SubCPU])
		}
		if math.Abs(r.Mean[power.SubMemory]-30) > 0.1 {
			t.Errorf("window %d Memory channel = %v, want untouched 30", i, r.Mean[power.SubMemory])
		}
	}
	if recs[1].Samples != 2*recs[0].Samples {
		t.Errorf("window after a dropped sync has %d samples, want %d (two intervals)",
			recs[1].Samples, 2*recs[0].Samples)
	}
}

// TestFractionalSampleRates feeds a constant, noise-free rail at rates
// that do not divide into 1 ms slices. Every slice must be weighted by
// the samples it counted, so the mean stays the rail's value and a
// second holds SampleHz samples give or take the carried fraction.
// Below one sample per slice each slice still takes one sample.
func TestFractionalSampleRates(t *testing.T) {
	cases := []struct {
		hz          float64
		wantSamples int64
	}{
		{hz: 1500, wantSamples: 1500},
		{hz: 2500, wantSamples: 2500},
		{hz: 10000, wantSamples: 10000},
		{hz: 400, wantSamples: 1000},
	}
	for _, tc := range cases {
		cfg := DefaultConfig()
		cfg.SampleHz = tc.hz
		cfg.NoiseStd = 0
		d := New(cfg, sim.NewRNG(9))
		for i := 0; i < 1000; i++ {
			d.Acquire(0.001, power.Reading{100, 100, 100, 100, 100})
		}
		d.SyncPulse()
		r := d.Records()[0]
		if diff := r.Samples - tc.wantSamples; diff < -1 || diff > 1 {
			t.Errorf("%g Hz: Samples = %d, want %d ± 1", tc.hz, r.Samples, tc.wantSamples)
		}
		for i, w := range r.Mean {
			if math.Abs(w-100) > 1e-9 {
				t.Errorf("%g Hz: channel %d mean = %v, want 100", tc.hz, i, w)
			}
		}
	}
}
