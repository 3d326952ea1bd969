// Package mem models the shared front-side bus and the DRAM array behind
// the memory controller. The FSB carries three tagged transaction
// classes — CPU demand, hardware prefetch, and DMA — because the paper's
// key memory-model insight is that all three consume DRAM power while
// only the first is visible to an L3-miss counter ("it is also necessary
// to account for memory utilization caused by agents other than the
// microprocessor, namely I/O devices performing DMA accesses").
//
// DRAM activity follows Janzen's DDR power methodology: power is driven
// by row activations, read/write bursts, and the time banks spend in the
// active, precharge and idle states. Activation probability grows with
// utilization (bank conflicts erode page hits), which is the physical
// source of the superlinear power-vs-transactions curvature the paper
// captures with quadratic regression models.
package mem

import "math"

// BusCapacity is the sustainable aggregate FSB transaction rate
// (transactions/second); at 64 bytes per line this is a 3.2 GB/s bus,
// matching the 400 MT/s shared P4 Xeon front-side bus.
const BusCapacity = 50e6

// Timing and geometry constants for the DRAM array.
const (
	// tRP is the precharge time charged per activation.
	tRP = 15e-9
	// numBanks is the number of independent DRAM banks across the DIMMs.
	numBanks = 16
	// pageHitFloor and pageHitLocality set the row-buffer hit rate at
	// low utilization: floor + locality-span * stream locality.
	pageHitFloor    = 0.40
	pageHitLocality = 0.45
	// conflictSlope is how fast bank conflicts erode page hits as
	// utilization rises.
	conflictSlope = 0.45
)

// Traffic is the per-slice offered load on the memory bus.
type Traffic struct {
	// CPUTx is demand transactions from the processors (misses,
	// writebacks, uncacheable).
	CPUTx float64
	// PrefetchTx is hardware-prefetch transactions.
	PrefetchTx float64
	// DMATx is transactions from the memory controller on behalf of I/O
	// devices.
	DMATx float64
	// WriteFrac is the write fraction of the CPU+prefetch traffic.
	WriteFrac float64
	// DMAWriteFrac is the write (to-memory) fraction of DMA traffic.
	DMAWriteFrac float64
	// Locality is the transaction-weighted DRAM row-buffer locality of
	// the CPU+prefetch traffic, in [0,1]. DMA traffic is treated as
	// fully sequential.
	Locality float64
}

// Offered returns total offered transactions.
func (t Traffic) Offered() float64 { return t.CPUTx + t.PrefetchTx + t.DMATx }

// Stats is the memory subsystem's activity during one slice.
type Stats struct {
	// ServedTx is transactions actually carried after bus saturation;
	// the class fields are the served split.
	ServedTx   float64
	CPUTx      float64
	PrefetchTx float64
	DMATx      float64
	// Util is ServedTx relative to bus capacity for the slice, in [0,1).
	Util float64
	// Activations is DRAM row activations.
	Activations float64
	// ReadBursts and WriteBursts split the served transactions.
	ReadBursts  float64
	WriteBursts float64
	// ActiveFrac, PrechargeFrac and IdleFrac are average bank-state
	// residencies; they sum to 1.
	ActiveFrac    float64
	PrechargeFrac float64
	IdleFrac      float64
}

// Memory is the FSB plus DRAM array.
type Memory struct{}

// New returns a memory subsystem with the default bus capacity.
func New() *Memory { return &Memory{} }

// saturate applies the FSB's soft saturation curve: linear at low load,
// asymptotic to capacity at overload: offered/(1+r⁴)^¼ with r the load
// over capacity. For an exponent with no integer part, math.Pow(x, ¼)
// returns 1 for x == 1 and otherwise exactly math.Exp(¼·math.Log(x));
// taking those two steps here skips Pow's special cases and Frexp/Ldexp.
func saturate(offered, cap float64) float64 {
	if offered <= 0 {
		return 0
	}
	r := offered / cap
	x := 1 + r*r*r*r
	if x == 1 {
		return offered
	}
	return offered / math.Exp(0.25*math.Log(x))
}

// PageHitRate returns the row-buffer hit probability for a stream of
// the given locality at the given bus utilization.
func PageHitRate(util, locality float64) float64 {
	ph := pageHitFloor + pageHitLocality*clamp01(locality) - conflictSlope*util
	if ph < 0.10 {
		ph = 0.10
	}
	if ph > 0.95 {
		ph = 0.95
	}
	return ph
}

// Step serves one slice of traffic and returns its Stats. It is
// StepInto on a fresh struct.
func (m *Memory) Step(sliceSec float64, t Traffic) Stats {
	var st Stats
	m.StepInto(&st, sliceSec, &t)
	return st
}

// StepInto serves one slice of traffic *t and writes the slice's
// activity into *st, overwriting every field. sliceSec is the slice
// duration. Both structs are passed by pointer so the machine's hot path
// copies neither per slice.
func (m *Memory) StepInto(st *Stats, sliceSec float64, t *Traffic) {
	*st = Stats{}
	offered := t.Offered()
	if offered < 0 || sliceSec <= 0 {
		return
	}
	capTx := BusCapacity * sliceSec
	served := saturate(offered, capTx)
	scale := 1.0
	if offered > 0 {
		scale = served / offered
	}
	st.ServedTx = served
	st.CPUTx = t.CPUTx * scale
	st.PrefetchTx = t.PrefetchTx * scale
	st.DMATx = t.DMATx * scale
	st.Util = served / capTx

	// Row activations: every row-buffer miss opens a row. CPU traffic
	// uses the workload's locality; DMA streams are sequential.
	cpuPart := st.CPUTx + st.PrefetchTx
	phCPU := PageHitRate(st.Util, t.Locality)
	phDMA := PageHitRate(st.Util, 0.9)
	st.Activations = cpuPart*(1-phCPU) + st.DMATx*(1-phDMA)

	// Burst split. DMA "write" means device-to-memory.
	cpuPf := st.CPUTx + st.PrefetchTx
	writes := cpuPf*clamp01(t.WriteFrac) + st.DMATx*clamp01(t.DMAWriteFrac)
	st.WriteBursts = writes
	st.ReadBursts = served - writes

	// Bank-state residency.
	st.ActiveFrac = st.Util
	pre := st.Activations * tRP / (numBanks * sliceSec)
	if pre > 1-st.ActiveFrac {
		pre = 1 - st.ActiveFrac
	}
	st.PrechargeFrac = pre
	st.IdleFrac = 1 - st.ActiveFrac - st.PrechargeFrac
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}
