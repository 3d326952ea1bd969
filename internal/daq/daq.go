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
//
// Each sample's sensor noise is independent, so the mean of a window's
// N samples carries N(0, σ²/N) however the samples group into slices.
// The open window therefore sums each slice's noiseless reading,
// clamped to the ADC range and weighted by its sample count, and the
// sync pulse that closes it draws one normal per rail. The converter's
// rounding is not modelled: 12 bits over 400 W is a 0.098 W step
// against 0.35 W of per-sample noise, which averages the rounding out
// to a zero-mean error under 1% of the noise variance.
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
		"noiseless slice readings and noisy window means clamped to the ADC's [0, full-scale] range")
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
	// FullScaleWatts is the ADC's range: readings clamp to [0, FullScaleWatts].
	FullScaleWatts float64
	// ClockSkewPPM is the DAQ clock's rate error relative to the target
	// system's clock, in parts per million.
	ClockSkewPPM float64
}

// DefaultConfig matches the paper's setup: 10 kHz, a 400 W full scale,
// modest sensor noise, and a realistic crystal skew.
func DefaultConfig() Config {
	return Config{
		SampleHz:       10000,
		NoiseStd:       0.35,
		FullScaleWatts: 400,
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
	cfg Config
	rng *sim.RNG

	// sum holds the open window's clamped noiseless readings, each
	// weighted by its slice's sample count; n is that count's total.
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
// full scale.
func New(cfg Config, parent *sim.RNG) *DAQ {
	if cfg.SampleHz <= 0 {
		panic("daq: non-positive sample rate")
	}
	if cfg.FullScaleWatts <= 0 {
		panic("daq: non-positive full scale")
	}
	return &DAQ{cfg: cfg, rng: parent.Split()}
}

// Acquire integrates one target-clock slice of true rail power, as the
// installed fault injector (if any) delivers it at the slice's DAQ time.
func (d *DAQ) Acquire(sliceSec float64, truth power.Reading) {
	if d.fault != nil && sliceSec > 0 {
		truth = d.fault.PerturbReading(d.daqTime, truth)
	}
	d.AcquireWindow(sliceSec, 1, truth)
}

// AcquireWindow integrates n target-clock slices whose mean rail power
// is mean. The slices' ADC sample count k is a whole number that weights
// the clamped reading in the window sum and counts toward the window's
// Samples alike; when the rate does not divide into slices the fraction
// is carried to the next call, so the count stays exact over a window.
// Rates below one sample per slice take one sample every slice. The
// noise is drawn when SyncPulse closes the window. The machine
// fast-forwards only a healthy instrument; see Faulted.
func (d *DAQ) AcquireWindow(sliceSec float64, n int, mean power.Reading) {
	if sliceSec <= 0 || n < 1 {
		return
	}
	k := float64(n)
	if per := d.cfg.SampleHz * sliceSec; per >= 1 {
		d.sampleAcc += k * per
		k = math.Floor(d.sampleAcc)
		d.sampleAcc -= k
	}
	for i, w := range mean {
		d.sum[i] += d.clamp(w) * k
	}
	d.n += int64(k)
	d.pendingSamples += uint64(k)
	d.daqTime += float64(n) * sliceSec * (1 + d.cfg.ClockSkewPPM*1e-6)
}

// Faulted reports whether a fault injector is installed.
func (d *DAQ) Faulted() bool { return d.fault != nil }

// clamp limits a reading to the ADC's full-scale range.
func (d *DAQ) clamp(w float64) float64 {
	if w < 0 {
		w = 0
		d.pendingClips++
	} else if w > d.cfg.FullScaleWatts {
		w = d.cfg.FullScaleWatts
		d.pendingClips++
	}
	return w
}

// SyncPulse records a serial-port sync edge: the current averaging
// window closes and a Record is appended, each rail's mean carrying the
// noise of the mean of the window's samples and clamped to the ADC
// range. Windows with no samples are dropped (back-to-back pulses). An
// injected serial fault can eat the edge, in which case the open window
// keeps accumulating into the next interval — exactly what a flaky sync
// line does to the real apparatus.
func (d *DAQ) SyncPulse() {
	defer d.flushTelemetry()
	if d.fault != nil && d.fault.DropSync(d.daqTime) {
		mSyncsDropped.Inc()
		return
	}
	if d.n == 0 {
		return
	}
	n := float64(d.n)
	sigma := d.cfg.NoiseStd / math.Sqrt(n)
	var mean power.Reading
	for i, s := range d.sum {
		mean[i] = d.clamp(s/n + d.rng.Norm(0, sigma))
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
