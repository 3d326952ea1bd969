package daq

import (
	"math"
	"testing"

	"trickledown/internal/power"
	"trickledown/internal/sim"
)

// perSliceDAQ is the former acquisition model, kept as the reference
// the window-noise DAQ is held to: every slice drew one normal per rail
// with the noise of the mean of its k samples, snapped the noisy reading
// to a 12-bit grid over the full scale, and added it to the window sum
// weighted by k.
type perSliceDAQ struct {
	cfg       Config
	rng       *sim.RNG
	step      float64
	sum       power.Reading
	n         int64
	daqTime   float64
	sampleAcc float64
	records   []Record
}

func newPerSliceDAQ(cfg Config, rng *sim.RNG) *perSliceDAQ {
	return &perSliceDAQ{cfg: cfg, rng: rng, step: cfg.FullScaleWatts / 4096}
}

func (d *perSliceDAQ) acquire(sliceSec float64, truth power.Reading) {
	k := d.cfg.SampleHz * sliceSec
	if k < 1 {
		k = 1
	} else {
		d.sampleAcc += k
		k = math.Floor(d.sampleAcc)
		d.sampleAcc -= k
	}
	sigma := d.cfg.NoiseStd / math.Sqrt(k)
	for i, w := range truth {
		v := math.Min(math.Max(w+d.rng.Norm(0, sigma), 0), d.cfg.FullScaleWatts)
		d.sum[i] += math.Round(v/d.step) * d.step * k
	}
	d.n += int64(k)
	d.daqTime += sliceSec * (1 + d.cfg.ClockSkewPPM*1e-6)
}

func (d *perSliceDAQ) syncPulse() {
	var mean power.Reading
	for i, s := range d.sum {
		mean[i] = s / float64(d.n)
	}
	d.records = append(d.records, Record{DAQSeconds: d.daqTime, Mean: mean, Samples: d.n})
	d.sum, d.n = power.Reading{}, 0
}

// TestAcquireMatchesPerSliceDAQ feeds the window-noise DAQ and the
// per-slice reference the same rails, 1-300 W and changing every slice,
// over 200 seeds at 10 kHz and at 7.5 kHz (whose per-slice count
// alternates 7, 8). Sample counts and DAQ timestamps must agree record
// by record. Each window's error against the exact sample-weighted
// truth is standardised by the noise of the window's mean, and per rail
// the two models' error means and spreads must agree within 4.5
// standard errors. The per-slice model's grid rounding widens its
// spread by ~5-7%, well inside that; noise left unshrunk, or shrunk by
// one slice's count only, is 30-100x too wide.
func TestAcquireMatchesPerSliceDAQ(t *testing.T) {
	const (
		seeds   = 200
		windows = 2
		slices  = 1000
		slice   = 0.001
	)
	for _, hz := range []float64{10000, 7500} {
		cfg := DefaultConfig()
		cfg.SampleHz = hz
		// Per rail: the standardised errors' sums and sums of squares,
		// [0] for the window-noise DAQ and [1] for the reference.
		var sum, sq [2][power.NumSubsystems]float64
		for seed := uint64(1); seed <= seeds; seed++ {
			d := New(cfg, sim.NewRNG(seed))
			ref := newPerSliceDAQ(cfg, sim.NewRNG(seed+1e6))
			rails := sim.NewRNG(seed + 2e6)
			var truths [windows]power.Reading
			acc := 0.0
			for w := 0; w < windows; w++ {
				var weighted power.Reading
				var n float64
				for s := 0; s < slices; s++ {
					var truth power.Reading
					for i := range truth {
						truth[i] = 1 + 299*rails.Float64()
					}
					// The slice's sample count, as both DAQs carry it.
					acc += hz * slice
					k := math.Floor(acc)
					acc -= k
					for i, v := range truth {
						weighted[i] += v * k
					}
					n += k
					d.Acquire(slice, truth)
					ref.acquire(slice, truth)
				}
				for i := range weighted {
					truths[w][i] = weighted[i] / n
				}
				d.SyncPulse()
				ref.syncPulse()
			}
			for m, recs := range [2][]Record{d.Records(), ref.records} {
				if len(recs) != windows {
					t.Fatalf("%g Hz seed %d: model %d closed %d windows, want %d", hz, seed, m, len(recs), windows)
				}
				for w, r := range recs {
					if m == 0 {
						want := ref.records[w]
						if r.Samples != want.Samples || r.DAQSeconds != want.DAQSeconds {
							t.Fatalf("%g Hz seed %d window %d: samples %d at %v, per-slice %d at %v",
								hz, seed, w, r.Samples, r.DAQSeconds, want.Samples, want.DAQSeconds)
						}
					}
					sigma := cfg.NoiseStd / math.Sqrt(float64(r.Samples))
					for i, v := range r.Mean {
						z := (v - truths[w][i]) / sigma
						sum[m][i] += z
						sq[m][i] += z * z
					}
				}
			}
		}
		const count = seeds * windows
		for i := 0; i < power.NumSubsystems; i++ {
			var mean, variance [2]float64
			for m := range mean {
				mean[m] = sum[m][i] / count
				variance[m] = (sq[m][i] - count*mean[m]*mean[m]) / (count - 1)
			}
			zMean := (mean[0] - mean[1]) / math.Sqrt((variance[0]+variance[1])/count)
			zSpread := (variance[0] - variance[1]) /
				math.Sqrt(2*(variance[0]*variance[0]+variance[1]*variance[1])/count)
			if math.Abs(zMean) > 4.5 || math.Abs(zSpread) > 4.5 {
				t.Errorf("%g Hz rail %d: error mean %.3f vs per-slice %.3f (z %.2f), variance %.3f vs %.3f (z %.2f)",
					hz, i, mean[0], mean[1], zMean, variance[0], variance[1], zSpread)
			}
		}
	}
}
