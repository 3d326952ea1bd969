package daq

import (
	"math"
	"testing"

	"trickledown/internal/power"
	"trickledown/internal/sim"
)

// FuzzAcquire mixes one-slice acquisitions with a fuzzed n-slice
// AcquireWindow inside one window, at a sample rate whose per-slice
// count is whole, fractional or below one. Every window mean must be
// finite and inside the ADC range for arbitrary bounded power inputs,
// and the window must hold exactly the samples the carried fraction
// adds up to.
func FuzzAcquire(f *testing.F) {
	f.Add(uint64(1), 40.0, 100, 0, uint8(0))
	f.Add(uint64(2), -5.0, 3, 7, uint8(1))
	f.Add(uint64(3), 1e5, 50, 900, uint8(2))
	f.Add(uint64(4), 399.9, 1, 1, uint8(4))
	f.Fuzz(func(t *testing.T, seed uint64, watts float64, slices, n int, rate uint8) {
		if slices < 1 || slices > 2000 || n < 0 || n > 2000 {
			return
		}
		if math.IsNaN(watts) || math.IsInf(watts, 0) {
			return
		}
		// Per 1 ms slice: 10, 7.5, 1.5 and 2.5 samples, all exact in
		// binary, and 0.4, which takes one sample per slice.
		hz := []float64{10000, 7500, 1500, 2500, 400}[int(rate)%5]
		cfg := DefaultConfig()
		cfg.SampleHz = hz
		d := New(cfg, sim.NewRNG(seed))
		truth := power.Reading{watts, watts / 2, watts / 3, watts / 4, watts / 5}
		for i := 0; i < slices; i++ {
			d.Acquire(0.001, truth)
			if i == slices/2 {
				d.AcquireWindow(0.001, n, truth)
			}
		}
		d.SyncPulse()
		recs := d.Records()
		if len(recs) != 1 {
			t.Fatalf("records = %d", len(recs))
		}
		total := float64(slices + n)
		want := int64(total)
		if per := hz * 0.001; per >= 1 {
			want = int64(math.Floor(per * total))
		}
		if recs[0].Samples != want {
			t.Fatalf("%g Hz, %d slices + window of %d: Samples = %d, want %d",
				hz, slices, n, recs[0].Samples, want)
		}
		for ch, v := range recs[0].Mean {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("channel %d mean %v", ch, v)
			}
			if v < 0 || v > cfg.FullScaleWatts {
				t.Fatalf("channel %d mean %v outside ADC range", ch, v)
			}
		}
	})
}
