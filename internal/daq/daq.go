// Package daq models the paper's power-measurement apparatus: sense
// resistors in series with each subsystem's regulated supply, sampled by
// data-acquisition hardware in a separate workstation at ten thousand
// samples per second, then averaged for correlation with the 1 Hz
// performance-counter samples. Synchronization between the two machines
// follows the paper exactly: at each counter sample the target emits a
// byte on a serial port whose transmit line the DAQ records alongside
// the power channels, and the merge happens offline (internal/align).
//
// Because the DAQ is a separate instrument, it runs on its own clock
// with a parts-per-million rate error relative to the target — which is
// why the paper needs the sync pulse at all.
package daq

import (
	"math"

	"trickledown/internal/power"
	"trickledown/internal/sim"
	"trickledown/internal/telemetry"
)

// DAQ telemetry, summed across every instrument in the process. The
// sample and clip counters sit on the per-slice acquisition path, so
// each instrument accumulates them in plain locals and flushes one
// atomic add per closed window (and on Records) instead of per slice.
var (
	mSamples = telemetry.NewCounter("daq_samples_total",
		"per-channel ADC samples captured (aggregated per slice)")
	mClips = telemetry.NewCounter("daq_clips_total",
		"readings clamped to the ADC full-scale range (either rail)")
	mWindows = telemetry.NewCounter("daq_windows_total",
		"sync-to-sync averaging windows closed")
	mSyncsDropped = telemetry.NewCounter("daq_syncs_dropped_total",
		"sync edges lost to an injected serial-line fault")
)

// FaultInjector perturbs the instrument the way real measurement chains
// fail: a sense channel sticks, drifts or goes dead, and the serial sync
// line drops edges. Implementations (internal/faults) must be pure
// functions of their own pre-seeded state and the DAQ-clock timestamp,
// so a faulty run stays exactly as reproducible as a healthy one.
type FaultInjector interface {
	// PerturbReading returns the rail power as the (possibly faulty)
	// sensor chain delivers it to the ADC. A healthy chain returns r
	// unchanged.
	PerturbReading(daqSeconds float64, r power.Reading) power.Reading
	// DropSync reports whether the sync edge arriving at daqSeconds is
	// lost (the averaging window then stays open into the next interval).
	DropSync(daqSeconds float64) bool
}

// Config describes the acquisition hardware.
type Config struct {
	// SampleHz is the per-channel sampling rate (the paper's 10 kHz).
	SampleHz float64
	// NoiseStd is per-sample sensor noise in Watts.
	NoiseStd float64
	// FullScaleWatts and Bits define the ADC quantization grid.
	FullScaleWatts float64
	Bits           int
	// ClockSkewPPM is the DAQ clock's rate error relative to the target
	// system's clock, in parts per million.
	ClockSkewPPM float64
}

// DefaultConfig matches the paper's setup: 10 kHz, 12-bit converter with
// a 400 W full scale, modest sensor noise, and a realistic crystal skew.
func DefaultConfig() Config {
	return Config{
		SampleHz:       10000,
		NoiseStd:       0.35,
		FullScaleWatts: 400,
		Bits:           12,
		ClockSkewPPM:   40,
	}
}

// Record is the averaged power for one sync-to-sync window.
type Record struct {
	// DAQSeconds is the window-closing sync edge's timestamp on the
	// DAQ's own clock.
	DAQSeconds float64
	// Mean is the per-rail average over the window.
	Mean power.Reading
	// Samples is how many ADC samples the window averaged.
	Samples int64
}

// DAQ is the acquisition workstation.
type DAQ struct {
	cfg  Config
	rng  *sim.RNG
	step float64 // quantization step in Watts

	sum     power.Reading
	n       int64
	daqTime float64
	// sampleAcc carries the fractional ADC sample a slice leaves over
	// into the next one.
	sampleAcc float64
	records   []Record
	fault     FaultInjector

	// Pending telemetry, flushed per window rather than per slice.
	pendingSamples uint64
	pendingClips   uint64
}

// flushTelemetry publishes the batched per-slice counters.
func (d *DAQ) flushTelemetry() {
	if d.pendingSamples > 0 {
		mSamples.Add(d.pendingSamples)
		d.pendingSamples = 0
	}
	if d.pendingClips > 0 {
		mClips.Add(d.pendingClips)
		d.pendingClips = 0
	}
}

// SetFaultInjector installs a fault injector between the sense resistors
// and the ADC (nil restores the healthy instrument). Call it before the
// run; the injection points sit on the acquisition path itself.
func (d *DAQ) SetFaultInjector(f FaultInjector) { d.fault = f }

// New returns a DAQ with the given configuration and a private random
// stream split from parent. It panics on a non-positive sample rate or
// full scale, or fewer than 2 bits.
func New(cfg Config, parent *sim.RNG) *DAQ {
	if cfg.SampleHz <= 0 {
		panic("daq: non-positive sample rate")
	}
	if cfg.FullScaleWatts <= 0 || cfg.Bits < 2 {
		panic("daq: invalid ADC configuration")
	}
	return &DAQ{
		cfg:  cfg,
		rng:  parent.Split(),
		step: cfg.FullScaleWatts / float64(uint64(1)<<cfg.Bits),
	}
}

// Acquire integrates one target-clock slice of true rail power. The
// slice's ADC samples are statistically aggregated: the mean of k noisy
// samples is the truth plus noise shrunk by sqrt(k), quantized on the
// ADC grid. k is a whole number that weights the slice in the window sum
// and counts toward the window's Samples alike; when the rate does not
// divide into slices the fraction is carried to the next slice, so the
// count stays exact over a window. Rates below one sample per slice take
// one sample every slice.
func (d *DAQ) Acquire(sliceSec float64, truth power.Reading) {
	if sliceSec <= 0 {
		return
	}
	if d.fault != nil {
		truth = d.fault.PerturbReading(d.daqTime, truth)
	}
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
		v := w + d.rng.Norm(0, sigma)
		d.sum[i] += d.quantize(v) * k
	}
	d.n += int64(k)
	d.pendingSamples += uint64(k)
	d.daqTime += sliceSec * (1 + d.cfg.ClockSkewPPM*1e-6)
}

// quantize snaps a reading onto the ADC grid, clamped to full scale.
func (d *DAQ) quantize(w float64) float64 {
	if w < 0 {
		w = 0
		d.pendingClips++
	} else if w > d.cfg.FullScaleWatts {
		w = d.cfg.FullScaleWatts
		d.pendingClips++
	}
	return math.Round(w/d.step) * d.step
}

// SyncPulse records a serial-port sync edge: the current averaging
// window closes and a Record is appended. Windows with no samples are
// dropped (back-to-back pulses). An injected serial fault can eat the
// edge, in which case the open window keeps accumulating into the next
// interval — exactly what a flaky sync line does to the real apparatus.
func (d *DAQ) SyncPulse() {
	d.flushTelemetry()
	if d.fault != nil && d.fault.DropSync(d.daqTime) {
		mSyncsDropped.Inc()
		return
	}
	if d.n == 0 {
		return
	}
	var mean power.Reading
	for i, s := range d.sum {
		mean[i] = s / float64(d.n)
	}
	d.records = append(d.records, Record{
		DAQSeconds: d.daqTime,
		Mean:       mean,
		Samples:    d.n,
	})
	mWindows.Inc()
	d.sum = power.Reading{}
	d.n = 0
}

// Records returns the closed windows in arrival order. It also flushes
// any telemetry batched since the last sync pulse, so a run that stops
// mid-window still reports every sample it acquired.
func (d *DAQ) Records() []Record {
	d.flushTelemetry()
	return d.records
}
