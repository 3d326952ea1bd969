// Package core implements the paper's contribution: trickle-down power
// models that estimate the power of five server subsystems — CPU,
// chipset, memory, I/O and disk — from performance events observable at
// the microprocessor alone.
//
// The flow mirrors the paper's methodology end to end:
//
//  1. ExtractMetrics normalizes a raw 1 Hz counter sample into one flat
//     row of per-cycle rates aggregated over the processors ("the cycles
//     metric is combined with most other metrics to create per cycle
//     metrics; this corrects for slight differences in sampling rate").
//     Every model reads the same declared row: processor sums, one mean,
//     the processor count and the constant 1.
//  2. A ModelSpec picks the features and functional form for one
//     subsystem (linear for CPU, single- or multi-input quadratics for
//     the rest, constant for chipset), designing one sample's terms from
//     its row.
//  3. Train fits the coefficients by least squares against measured rail
//     power from one high-variation training workload.
//  4. Validate computes the paper's Equation 6 average error on any
//     workload, and Estimator bundles the five fitted models into a
//     sensorless whole-system power meter. An estimator of the five
//     production models evaluates them straight from the counts, without
//     a row (see EstimateSamples).
package core

import (
	"trickledown/internal/iobus"
	"trickledown/internal/perfctr"
	"trickledown/internal/power"
	"trickledown/internal/sim"
)

// Metrics is one counter sample's row of model features, indexed by
// the feature constants below. Rates are per cycle (uops, active
// fraction) or per million cycles (events); a processor that reports
// zero cycles contributes zero rates. Every sum runs over the
// processors in order from 0.0.
type Metrics [NumFeatures]float64

// The features of a Metrics row. SumActive through MeanDMA are the six
// Rates, in the same order.
const (
	// NumCPUs is the processor count.
	NumCPUs = iota
	// SumActive is Σ (1 - HaltedCycles/Cycles): the unhalted fractions
	// Equation 1 scales the clock-gating recovery by.
	SumActive
	// SumUPC is Σ fetched uops per cycle.
	SumUPC
	// TotalBus is the paper's "all transactions that enter/exit the
	// processor": SumBusTx plus the DMA/other stream counted once. (The
	// P4 counts the same DMA traffic at every processor; summing it
	// would multiply-count it, so the mean across processors stands in
	// for the single shared stream.)
	TotalBus
	// SumInts is Σ interrupts serviced per million cycles (from the OS's
	// /proc/interrupts, not the PMU).
	SumInts
	// SumDiskInts is the disk-controller-vector subset of SumInts.
	SumDiskInts
	// MeanDMA is the mean over processors of non-self (DMA/other) bus
	// transactions per million cycles.
	MeanDMA
	// SumBusTx is Σ each processor's own bus transactions (demand +
	// prefetch) per million cycles.
	SumBusTx
	// SumL3Load is Σ L3 load misses per million cycles.
	SumL3Load
	// SumL3All is Σ all L3 miss traffic (loads, stores, writebacks) per
	// million cycles.
	SumL3All
	// SumPrefetch is the prefetch subset of SumBusTx.
	SumPrefetch
	// SumUncacheable is Σ uncacheable accesses per million cycles.
	SumUncacheable
	// SumOSUtil is Σ each processor's OS-reported utilization over the
	// interval (busy seconds / wall seconds, clamped to [0,1]), counted
	// for every processor, cycles or not.
	SumOSUtil
	// SumV, SumActiveFV2 and SumUPCFV2 are the DVFS sums: Σ V(f), Σ
	// active·f·V(f)² and Σ upc·f·V(f)², where f is each processor's
	// operating point inferred from cycles per wall-clock interval (no
	// extra event needed: the cycles counter already reveals the
	// clock). A processor without cycles counts at nominal.
	SumV
	SumActiveFV2
	SumUPCFV2
	// WBShare estimates the write fraction of memory traffic from
	// CPU-visible events: SumL3All - SumL3Load relative to SumBusTx,
	// clamped to [0,1] and 0 without bus traffic. It is the input behind
	// the paper's suggested extension ("accounting for the mix of reads
	// versus writes would be a simple addition to the model").
	WBShare
	// NumFeatures is the row width.
	NumFeatures
)

// ExtractMetrics normalizes a counter sample, assuming the default
// nominal clock for frequency inference.
func ExtractMetrics(s *perfctr.Sample) Metrics {
	var m Metrics
	ExtractMetricsAtInto(&m, s, sim.DefaultCoreHz)
	return m
}

// ExtractMetricsAtInto fills every feature of m from a counter sample
// of a machine with the given nominal core clock: the rate pass the
// production kernel runs, then one more pass for the other sums. It
// allocates nothing.
func ExtractMetricsAtInto(m *Metrics, s *perfctr.Sample, nominalHz float64) {
	act, upc, bus, ints, disk, dma := rates(s)
	m[NumCPUs] = float64(len(s.CPUs))
	m[SumActive], m[SumUPC], m[TotalBus] = act, upc, bus
	m[SumInts], m[SumDiskInts], m[MeanDMA] = ints, disk, dma
	// Loop invariants, hoisted: the same bits as computing them per CPU.
	clocked := s.IntervalSec > 0 && nominalHz > 0
	nominal := s.IntervalSec * nominalHz
	var own, l3load, l3all, prefetch, uc, osUtil, vSum, actFV, upcFV float64
	for i := range s.CPUs {
		if s.IntervalSec > 0 && i < len(s.OSBusySec) {
			u := s.OSBusySec[i] / s.IntervalSec
			if u < 0 {
				u = 0
			}
			if u > 1 {
				u = 1
			}
			osUtil += u
		}
		c := &s.CPUs[i]
		cyc := float64(c.Cycles)
		if cyc <= 0 {
			// Zero rates add nothing to a sum of non-negative terms, but
			// the processor still counts at nominal voltage.
			vSum += power.VoltageScale(1)
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
		v := power.VoltageScale(f)
		fv2 := f * v * v
		vSum += v
		actFV += activeFraction(c, cyc) * fv2
		upcFV += float64(c.FetchedUops) / cyc * fv2
		own += float64(c.BusTx) / mcyc
		l3load += float64(c.L3LoadMisses) / mcyc
		l3all += float64(c.L3Misses) / mcyc
		prefetch += float64(c.BusPrefetchTx) / mcyc
		uc += float64(c.Uncacheable) / mcyc
	}
	m[SumBusTx], m[SumL3Load], m[SumL3All] = own, l3load, l3all
	m[SumPrefetch], m[SumUncacheable], m[SumOSUtil] = prefetch, uc, osUtil
	m[SumV], m[SumActiveFV2], m[SumUPCFV2] = vSum, actFV, upcFV
	m[WBShare] = 0
	if own > 0 {
		wb := l3all - l3load
		if wb < 0 {
			wb = 0
		}
		m[WBShare] = min(wb/own, 1)
	}
}

// The per-CPU expressions below are shared by ExtractMetricsAtInto, the
// production kernel and PerCPUPower, so all compute every rate the same
// way.

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
