// Package perfctr is the software side of the paper's counter
// methodology: a driver in the spirit of Mikael Pettersson's Linux
// perfctr patch that programs each processor's PMU once, then samples
// all processors at a nominal 1 Hz — reading the totals, clearing the
// counters, reading /proc/interrupts for the interrupt sources the PMU
// cannot provide, and emitting the serial sync byte the DAQ records.
//
// As the paper notes, "though sampling is periodic, the actual sampling
// rate varies slightly due to cache effects and interrupt latency"; the
// sampler reproduces that jitter, and the per-cycle normalization in the
// models is what corrects for it.
package perfctr

import (
	"fmt"

	"trickledown/internal/pmu"
	"trickledown/internal/sim"
)

// CPUCounts is one processor's counter deltas for one sampling interval.
type CPUCounts struct {
	Cycles        uint64
	HaltedCycles  uint64
	FetchedUops   uint64
	L3LoadMisses  uint64
	L3Misses      uint64
	TLBMisses     uint64
	BusTx         uint64
	BusPrefetchTx uint64
	DMAOther      uint64
	Uncacheable   uint64
}

// sampledEvents maps PMU slots to events, in CPUCounts field order.
var sampledEvents = []pmu.Event{
	pmu.EventCycles,
	pmu.EventHaltedCycles,
	pmu.EventFetchedUops,
	pmu.EventL3LoadMisses,
	pmu.EventL3Misses,
	pmu.EventTLBMisses,
	pmu.EventBusTransactions,
	pmu.EventBusTransactionsPrefetch,
	pmu.EventDMAOther,
	pmu.EventUncacheableAccesses,
}

// Sample is one synchronized observation of the whole machine.
type Sample struct {
	// TargetSeconds is the target system's clock at sampling time.
	TargetSeconds float64
	// IntervalSec is the time since the previous sample on the target
	// clock (jittered around the nominal period).
	IntervalSec float64
	// CPUs holds per-processor counter deltas.
	CPUs []CPUCounts
	// Ints holds interrupt-delivery deltas indexed [vector][cpu], read
	// from the OS's /proc/interrupts accounting.
	Ints [][]uint64
	// OSBusySec holds per-CPU busy-time deltas from the OS scheduler
	// accounting, when a UtilSource is attached (nil otherwise).
	OSBusySec []float64
	// OSThreadBusySec holds per-hardware-thread busy-time deltas (the
	// per-process accounting view), when a thread source is attached.
	OSThreadBusySec []float64
}

// IntsTotal returns all interrupts delivered during the interval.
func (s *Sample) IntsTotal() uint64 {
	var t uint64
	for _, row := range s.Ints {
		for _, n := range row {
			t += n
		}
	}
	return t
}

// IntsForCPU returns the interval's deliveries to one CPU across all
// vectors.
func (s *Sample) IntsForCPU(cpu int) uint64 {
	var t uint64
	for _, row := range s.Ints {
		if cpu >= 0 && cpu < len(row) {
			t += row[cpu]
		}
	}
	return t
}

// InterruptSource exposes the OS's cumulative interrupt matrix
// ([vector][cpu]); satisfied by the APIC via the OS layer.
type InterruptSource interface {
	Matrix() [][]uint64
}

// UtilSource exposes the OS's cumulative per-CPU busy time — the
// OS-counter channel the paper contrasts with on-chip events.
type UtilSource interface {
	BusySeconds() []float64
}

// FaultInjector corrupts raw counter reads the way real PMUs glitch: a
// slot returns garbage, saturates, or wraps mid-interval. The driver
// applies it to each processor's freshly read deltas before the sample
// is stored. Implementations must be pure functions of their pre-seeded
// state and the sample time, keeping faulty runs reproducible.
type FaultInjector interface {
	// PerturbCounts mutates one processor's interval deltas in place at
	// sample time t (target clock). A healthy PMU leaves c untouched.
	PerturbCounts(t float64, cpu int, c *CPUCounts)
}

// Sampler drives periodic sampling of a set of PMUs.
type Sampler struct {
	period     float64
	jitterStd  float64
	pmus       []*pmu.PMU
	ints       InterruptSource
	util       UtilSource
	lastBusy   []float64
	threadUtil UtilSource
	lastThread []float64
	rng        *sim.RNG
	nextAt     float64
	lastAt     float64
	lastMatrix [][]uint64
	samples    []Sample
	onSample   []func()
	fault      FaultInjector
}

// SetFaultInjector installs a counter fault injector (nil restores
// healthy PMUs). Call it before the run.
func (s *Sampler) SetFaultInjector(f FaultInjector) { s.fault = f }

// NewSampler programs every PMU with the paper's event set and returns a
// sampler firing at the given nominal period in seconds.
func NewSampler(period float64, pmus []*pmu.PMU, ints InterruptSource, parent *sim.RNG) (*Sampler, error) {
	if period <= 0 {
		return nil, fmt.Errorf("perfctr: non-positive period %v", period)
	}
	if len(pmus) == 0 {
		return nil, fmt.Errorf("perfctr: no PMUs")
	}
	for cpuID, p := range pmus {
		for slot, e := range sampledEvents {
			if err := p.Program(slot, e); err != nil {
				return nil, fmt.Errorf("perfctr: cpu %d: %w", cpuID, err)
			}
		}
	}
	s := &Sampler{
		period:    period,
		jitterStd: period * 0.002,
		pmus:      pmus,
		ints:      ints,
		rng:       parent.Split(),
	}
	s.nextAt = s.schedule(0)
	if ints != nil {
		s.lastMatrix = ints.Matrix()
	}
	return s, nil
}

// AttachUtilSource adds OS busy-time sampling (optional; call before the
// first sample fires).
func (s *Sampler) AttachUtilSource(u UtilSource) {
	s.util = u
	if u != nil {
		s.lastBusy = u.BusySeconds()
	}
}

// AttachThreadUtilSource adds per-hardware-thread busy-time sampling
// (optional; call before the first sample fires).
func (s *Sampler) AttachThreadUtilSource(u UtilSource) {
	s.threadUtil = u
	if u != nil {
		s.lastThread = u.BusySeconds()
	}
}

// OnSample registers a hook invoked at every sampling instant — the
// serial sync byte to the DAQ.
func (s *Sampler) OnSample(fn func()) {
	if fn != nil {
		s.onSample = append(s.onSample, fn)
	}
}

// schedule returns the next firing time after now, with OS-induced
// jitter.
func (s *Sampler) schedule(now float64) float64 {
	j := s.rng.Norm(0, s.jitterStd)
	if j < -s.period/2 {
		j = -s.period / 2
	}
	return now + s.period + j
}

// NextAt returns the next sampling instant: Step fires in the first
// slice starting at or after it.
func (s *Sampler) NextAt() float64 { return s.nextAt }

// Step is called once per simulation slice and fires when a sampling
// instant has been reached.
func (s *Sampler) Step(c *sim.Clock) {
	now := c.Seconds()
	if now < s.nextAt {
		return
	}
	s.fire(now)
	s.nextAt = s.schedule(now)
}

// fire reads and clears every PMU, diffs /proc/interrupts, stores the
// sample and emits the sync pulse.
func (s *Sampler) fire(now float64) {
	sample := Sample{
		TargetSeconds: now,
		IntervalSec:   now - s.lastAt,
		CPUs:          make([]CPUCounts, len(s.pmus)),
	}
	for i, p := range s.pmus {
		c := &sample.CPUs[i]
		// A fixed-size array keeps the per-sample slot table off the heap.
		dst := [...]*uint64{
			&c.Cycles, &c.HaltedCycles, &c.FetchedUops, &c.L3LoadMisses,
			&c.L3Misses, &c.TLBMisses, &c.BusTx, &c.BusPrefetchTx,
			&c.DMAOther, &c.Uncacheable,
		}
		for slot := range sampledEvents {
			v, err := p.Read(slot)
			if err == nil {
				*dst[slot] = v
			}
		}
		p.ClearAll()
		if s.fault != nil {
			s.fault.PerturbCounts(now, i, c)
		}
	}
	if s.ints != nil {
		cur := s.ints.Matrix()
		sample.Ints = diffMatrix(cur, s.lastMatrix)
		s.lastMatrix = cur
	}
	if s.util != nil {
		cur := s.util.BusySeconds()
		sample.OSBusySec = diffBusy(cur, s.lastBusy)
		s.lastBusy = cur
	}
	if s.threadUtil != nil {
		cur := s.threadUtil.BusySeconds()
		sample.OSThreadBusySec = diffBusy(cur, s.lastThread)
		s.lastThread = cur
	}
	s.lastAt = now
	s.samples = append(s.samples, sample)
	for _, fn := range s.onSample {
		fn()
	}
}

// diffBusy returns cur - prev elementwise, tolerating shape growth.
func diffBusy(cur, prev []float64) []float64 {
	out := make([]float64, len(cur))
	for i := range cur {
		d := cur[i]
		if i < len(prev) {
			d -= prev[i]
		}
		out[i] = d
	}
	return out
}

// diffMatrix returns cur - prev elementwise, tolerating shape growth.
func diffMatrix(cur, prev [][]uint64) [][]uint64 {
	out := make([][]uint64, len(cur))
	for v := range cur {
		out[v] = make([]uint64, len(cur[v]))
		for c := range cur[v] {
			d := cur[v][c]
			if v < len(prev) && c < len(prev[v]) {
				d -= prev[v][c]
			}
			out[v][c] = d
		}
	}
	return out
}

// Samples returns the collected samples in firing order.
func (s *Sampler) Samples() []Sample { return s.samples }
