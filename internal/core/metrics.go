// Package core implements the paper's contribution: trickle-down power
// models that estimate the power of five server subsystems — CPU,
// chipset, memory, I/O and disk — from performance events observable at
// the microprocessor alone.
//
// The flow mirrors the paper's methodology end to end:
//
//  1. ExtractMetrics normalizes raw 1 Hz counter samples into per-cycle
//     rates ("the cycles metric is combined with most other metrics to
//     create per cycle metrics; this corrects for slight differences in
//     sampling rate").
//  2. A ModelSpec picks the event inputs and functional form for one
//     subsystem (linear for CPU, single- or multi-input quadratics for
//     the rest, constant for chipset).
//  3. Train fits the coefficients by least squares against measured rail
//     power from one high-variation training workload.
//  4. Validate computes the paper's Equation 6 average error on any
//     workload, and Estimator bundles the five fitted models into a
//     sensorless whole-system power meter.
package core

import (
	"trickledown/internal/iobus"
	"trickledown/internal/perfctr"
	"trickledown/internal/sim"
)

// Metrics are the per-cycle normalized model inputs derived from one
// counter sample. Slices are indexed by processor.
type Metrics struct {
	// NumCPUs is the processor count.
	NumCPUs int
	// PercentActive is 1 - HaltedCycles/Cycles: the unhalted fraction
	// Equation 1 scales the clock-gating recovery by.
	PercentActive []float64
	// UopsPerCycle is fetched uops per cycle.
	UopsPerCycle []float64
	// L3LoadPMC is L3 load misses per million cycles.
	L3LoadPMC []float64
	// L3AllPMC is all L3 miss traffic (loads, stores, writebacks) per
	// million cycles; the gap between it and L3LoadPMC is the
	// CPU-visible write/writeback proxy the extended memory model uses.
	L3AllPMC []float64
	// BusTxPMC is this processor's own bus transactions (demand +
	// prefetch) per million cycles.
	BusTxPMC []float64
	// PrefetchPMC is the prefetch subset of BusTxPMC.
	PrefetchPMC []float64
	// DMAPMC is non-self (DMA/other) bus transactions per million cycles
	// as counted at each processor.
	DMAPMC []float64
	// UncacheablePMC is uncacheable accesses per million cycles.
	UncacheablePMC []float64
	// TLBPMC is TLB misses per million cycles.
	TLBPMC []float64
	// IntsPMC is all interrupts serviced by each CPU per million cycles
	// (from the OS's /proc/interrupts, not the PMU).
	IntsPMC []float64
	// DiskIntsPMC is the disk-controller-vector subset of IntsPMC.
	DiskIntsPMC []float64
	// OSUtil is each processor's OS-reported utilization over the
	// interval (busy seconds / wall seconds), when available.
	OSUtil []float64
	// FreqScale is each processor's observed DVFS operating point,
	// inferred from cycles elapsed per wall-clock interval — no extra
	// event needed, the cycles counter already reveals the clock.
	FreqScale []float64

	// slab backs the thirteen per-CPU slices above, NumCPUs elements
	// each; ExtractMetricsAtInto re-carves it only when NumCPUs changes.
	// One Metrics (or a struct copy, which shares the slab) must not
	// reach two concurrent ExtractMetricsAtInto calls; each goroutine
	// extracts into its own.
	slab []float64
}

// perCPUMetrics is the number of per-CPU slices in Metrics.
const perCPUMetrics = 13

// ExtractMetrics normalizes a counter sample, assuming the default
// nominal clock for frequency inference.
func ExtractMetrics(s *perfctr.Sample) *Metrics {
	return ExtractMetricsAt(s, sim.DefaultCoreHz)
}

// ExtractMetricsAt normalizes a counter sample for a machine with the
// given nominal core clock. Processors that report zero cycles (which
// cannot happen on real hardware but may in truncated logs) yield zero
// rates.
func ExtractMetricsAt(s *perfctr.Sample, nominalHz float64) *Metrics {
	m := &Metrics{}
	ExtractMetricsAtInto(m, s, nominalHz)
	return m
}

// metricsBatch returns n Metrics whose slabs are cut from one
// allocation sized for ncpu processors, so extracting samples of that
// width into them allocates nothing more.
func metricsBatch(n, ncpu int) []Metrics {
	ms := make([]Metrics, n)
	w := perCPUMetrics * ncpu
	slab := make([]float64, n*w)
	for j := range ms {
		ms[j].slab = slab[j*w : (j+1)*w : (j+1)*w]
	}
	return ms
}

// carve points m's per-CPU slices at consecutive n-element windows of
// its slab, growing the slab when it is too small. Each window's
// capacity is its length, so an append to one slice cannot overwrite
// the next.
func (m *Metrics) carve(n int) {
	if cap(m.slab) < perCPUMetrics*n {
		m.slab = make([]float64, perCPUMetrics*n)
	}
	m.slab = m.slab[:perCPUMetrics*n]
	for k, field := range [perCPUMetrics]*[]float64{
		&m.PercentActive, &m.UopsPerCycle, &m.L3LoadPMC, &m.L3AllPMC,
		&m.BusTxPMC, &m.PrefetchPMC, &m.DMAPMC, &m.UncacheablePMC,
		&m.TLBPMC, &m.IntsPMC, &m.DiskIntsPMC, &m.OSUtil, &m.FreqScale,
	} {
		*field = m.slab[k*n : (k+1)*n : (k+1)*n]
	}
	m.NumCPUs = n
}

// ExtractMetricsAtInto is ExtractMetricsAt writing into a caller-owned
// Metrics, for hot paths that keep one scratch Metrics per goroutine
// and extract every sample into it. The per-CPU slices are carved from
// one slab that is re-carved only when the processor count changes,
// and every element is written on every call, so a steady stream of
// same-sized samples extracts without allocating or re-slicing.
// Estimator.EstimateSamples evaluates the production models from the
// same per-CPU expressions without extracting at all.
func ExtractMetricsAtInto(m *Metrics, s *perfctr.Sample, nominalHz float64) {
	n := len(s.CPUs)
	if n != m.NumCPUs || len(m.slab) != perCPUMetrics*n {
		m.carve(n)
	}
	for i := range m.OSUtil {
		u := 0.0
		if s.IntervalSec > 0 && i < len(s.OSBusySec) {
			u = s.OSBusySec[i] / s.IntervalSec
			if u < 0 {
				u = 0
			}
			if u > 1 {
				u = 1
			}
		}
		m.OSUtil[i] = u
	}
	// Loop invariants, hoisted: the same bits as computing them per CPU.
	clocked := s.IntervalSec > 0 && nominalHz > 0
	nominal := s.IntervalSec * nominalHz
	diskInts := diskIntsRow(s)
	for i := range s.CPUs {
		c := &s.CPUs[i]
		cyc := float64(c.Cycles)
		if cyc <= 0 {
			m.PercentActive[i], m.UopsPerCycle[i], m.FreqScale[i] = 0, 0, 0
			m.L3LoadPMC[i], m.L3AllPMC[i], m.BusTxPMC[i], m.PrefetchPMC[i] = 0, 0, 0, 0
			m.DMAPMC[i], m.UncacheablePMC[i], m.TLBPMC[i] = 0, 0, 0
			m.IntsPMC[i], m.DiskIntsPMC[i] = 0, 0
			continue
		}
		mcyc := megacycles(cyc)
		f := 1.0
		if clocked {
			f = cyc / nominal
			// Sampling jitter wobbles the estimate slightly; clamp to
			// the hardware's actual operating range.
			if f < 0.1 {
				f = 0.1
			}
			if f > 1 {
				f = 1
			}
		}
		m.FreqScale[i] = f
		m.PercentActive[i] = activeFraction(c, cyc)
		m.UopsPerCycle[i] = float64(c.FetchedUops) / cyc
		m.L3LoadPMC[i] = float64(c.L3LoadMisses) / mcyc
		m.L3AllPMC[i] = float64(c.L3Misses) / mcyc
		m.BusTxPMC[i] = float64(c.BusTx) / mcyc
		m.PrefetchPMC[i] = float64(c.BusPrefetchTx) / mcyc
		m.DMAPMC[i] = float64(c.DMAOther) / mcyc
		m.UncacheablePMC[i] = float64(c.Uncacheable) / mcyc
		m.TLBPMC[i] = float64(c.TLBMisses) / mcyc
		m.IntsPMC[i] = float64(s.IntsForCPU(i)) / mcyc
		m.DiskIntsPMC[i] = diskIntsPMC(diskInts, i, mcyc)
	}
}

// The per-CPU expressions below are shared by ExtractMetricsAtInto and
// the production kernel, so both compute every rate the same way.

// megacycles is the denominator of the per-million-cycle rates.
func megacycles(cyc float64) float64 { return cyc / 1e6 }

// activeFraction is 1 - HaltedCycles/Cycles for a processor that ran
// cyc > 0 cycles, clamped at 0.
func activeFraction(c *perfctr.CPUCounts, cyc float64) float64 {
	active := 1 - float64(c.HaltedCycles)/cyc
	if active < 0 {
		active = 0
	}
	return active
}

// diskIntsRow returns the disk controller's per-CPU row of the
// interrupt matrix, or nil when the matrix has no such vector.
func diskIntsRow(s *perfctr.Sample) []uint64 {
	if int(iobus.VecDisk) < len(s.Ints) {
		return s.Ints[iobus.VecDisk]
	}
	return nil
}

// diskIntsPMC is processor i's disk interrupts per million cycles: 0
// when the disk row has no column for it.
func diskIntsPMC(row []uint64, i int, mcyc float64) float64 {
	if i < len(row) {
		return float64(row[i]) / mcyc
	}
	return 0
}

// sum adds a per-CPU metric across processors.
func sum(v []float64) float64 {
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s
}

// mean averages a per-CPU metric across processors.
func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	return sum(v) / float64(len(v))
}

// TotalBusPMC returns the paper's "all transactions that enter/exit the
// processor" aggregate: every processor's own transactions plus the
// DMA/other stream counted once. (The P4 counts the same DMA traffic at
// every processor; summing it four times would quadruple-count, so the
// mean across processors stands in for the single shared stream.)
func (m *Metrics) TotalBusPMC() float64 {
	return sum(m.BusTxPMC) + mean(m.DMAPMC)
}

// WritebackShare estimates the write fraction of memory traffic from
// CPU-visible events: the gap between all L3 miss traffic and demand
// load misses, relative to the processors' own bus transactions. This is
// the input behind the paper's suggested extension ("accounting for the
// mix of reads versus writes would be a simple addition to the model").
func (m *Metrics) WritebackShare() float64 {
	bus := sum(m.BusTxPMC)
	if bus <= 0 {
		return 0
	}
	wb := sum(m.L3AllPMC) - sum(m.L3LoadPMC)
	if wb < 0 {
		wb = 0
	}
	share := wb / bus
	if share > 1 {
		share = 1
	}
	return share
}
