package core

import "trickledown/internal/power"

// ModelSpec describes one subsystem model: which subsystem's rail it
// predicts, and how a sample's feature row becomes its regression
// design terms. The first design term is the intercept carrier (the
// constant 1, or NumCPUs for models whose constant term is
// per-processor).
type ModelSpec struct {
	// Name identifies the model in reports, e.g. "mem-bus (Eq.3)".
	Name string
	// Sub is the subsystem whose rail power the model predicts.
	Sub power.Subsystem
	// Design writes the len(Terms) design terms of one sample to d,
	// which is exactly that long, from the sample's row m. It must not
	// retain d or m, which the caller reuses, and must not modify m.
	Design func(d []float64, m *Metrics)
	// Terms names the design columns, one per term, for coefficient
	// printing; len(Terms) is the design width.
	Terms []string

	// eq is set by the constructors of the production specs alone and
	// names the equation Design evaluates. It is what lets an Estimator
	// built from the five evaluate them without Design (see
	// EstimateSamples); a hand-built spec has none, whatever its Name. A
	// copy keeps it, so a copy's Design must still be that equation.
	eq equation
}

// equation identifies a production spec's functional form.
type equation uint8

// The zero equation is every spec that is not a production one.
const (
	eqCPU     equation = iota + 1 // Equation 1
	eqChipset                     // the chipset constant
	eqMemBus                      // Equation 3
	eqIO                          // Equation 5
	eqDisk                        // Equation 4
)

// productionEq is each subsystem's production equation, as
// ProductionSpecs lists them.
var productionEq = [power.NumSubsystems]equation{
	power.SubCPU:     eqCPU,
	power.SubChipset: eqChipset,
	power.SubMemory:  eqMemBus,
	power.SubIO:      eqIO,
	power.SubDisk:    eqDisk,
}

// CPUSpec is the paper's Equation 1: per-processor power is a halted
// floor plus a recovery proportional to the unhalted fraction plus a
// fetch term. Only total CPU power is measurable ("we are only able to
// measure the sum of processor power"), so the fit regresses the total
// against per-processor sums; the coefficients stay per-processor and
// enable the SMP attribution of Section 4.2.1.
func CPUSpec() ModelSpec {
	return ModelSpec{
		Name: "cpu (Eq.1)",
		Sub:  power.SubCPU,
		Design: func(d []float64, m *Metrics) {
			d[0], d[1], d[2] = m[NumCPUs], m[SumActive], m[SumUPC]
		},
		Terms: []string{"perCPU", "percent_active", "uops_per_cycle"},
		eq:    eqCPU,
	}
}

// CPUDVFSSpec extends Equation 1 to frequency-scaled processors — the
// paper's dynamic-adaptation context (Section 2.3) applies DVFS, and a
// fixed-frequency Eq. 1 misattributes power there. No new event is
// needed: the cycles counter itself reveals each processor's operating
// point (cycles per wall-clock interval), and the classic f·V(f)²
// scaling turns Eq. 1's terms into frequency-aware regressors.
func CPUDVFSSpec() ModelSpec {
	return ModelSpec{
		Name: "cpu-dvfs (Eq.1 + fV^2)",
		Sub:  power.SubCPU,
		Design: func(d []float64, m *Metrics) {
			d[0], d[1], d[2] = m[SumV], m[SumActiveFV2], m[SumUPCFV2]
		},
		Terms: []string{"perCPU*V", "active*fV^2", "upc*fV^2"},
	}
}

// CPUOSUtilSpec is the comparison model of the paper's Section 2.2.2:
// CPU power from OS-level utilization alone (after Heath's OS-event
// models and Kotla's "utilization-based power model"). It sees how busy
// each processor was, but not what the busy cycles did — no fetch rate,
// no per-cycle normalization — so it misses IPC-driven power variation.
// The paper prefers on-chip counters partly for cost ("reading operating
// system counters requires relatively slow access") and this spec
// quantifies the accuracy side of that trade.
func CPUOSUtilSpec() ModelSpec {
	return ModelSpec{
		Name: "cpu-osutil (Heath/Kotla comparison)",
		Sub:  power.SubCPU,
		Design: func(d []float64, m *Metrics) {
			d[0], d[1] = m[NumCPUs], m[SumOSUtil]
		},
		Terms: []string{"perCPU", "os_util"},
	}
}

// MemL3Spec is the paper's Equation 2: memory power as a quadratic in L3
// load misses per cycle, summed over processors. It is the model the
// paper shows failing under high memory utilization (mcf), motivating
// Equation 3.
func MemL3Spec() ModelSpec {
	return ModelSpec{
		Name:   "mem-l3 (Eq.2)",
		Sub:    power.SubMemory,
		Design: quadratic(SumL3Load),
		Terms:  []string{"const", "l3_load_pmc", "l3_load_pmc^2"},
	}
}

// MemBusSpec is the paper's Equation 3: memory power as a quadratic in
// *all* memory bus transactions — processor demand, hardware prefetch
// and DMA — which "remains valid for all observed bus utilization
// rates".
func MemBusSpec() ModelSpec {
	return ModelSpec{
		Name:   "mem-bus (Eq.3)",
		Sub:    power.SubMemory,
		Design: quadratic(TotalBus),
		Terms:  []string{"const", "bus_tx_pmc", "bus_tx_pmc^2"},
		eq:     eqMemBus,
	}
}

// MemBusRWSpec is the read/write-mix extension the paper proposes in
// Section 4.3 ("our model does not account for differences in the power
// for read versus write access... a simple addition"): Equation 3 plus
// an interaction term between traffic volume and the CPU-visible
// writeback share, letting the fit charge write-heavy traffic more.
func MemBusRWSpec() ModelSpec {
	return ModelSpec{
		Name: "mem-bus-rw (Eq.3 + write mix)",
		Sub:  power.SubMemory,
		Design: func(d []float64, m *Metrics) {
			x := m[TotalBus]
			d[0], d[1], d[2], d[3] = 1, x, x*x, x*m[WBShare]
		},
		Terms: []string{"const", "bus_tx_pmc", "bus_tx_pmc^2", "bus_tx_pmc*wb_share"},
	}
}

// DiskSpec is the paper's Equation 4: disk power from disk-controller
// interrupts and DMA accesses, both per cycle, each with an independent
// quadratic. Interrupts carry the fine-grain variation ("the events are
// specific to the subsystem of interest"); DMA supplies transfer-volume
// context.
func DiskSpec() ModelSpec {
	return ModelSpec{
		Name: "disk (Eq.4)",
		Sub:  power.SubDisk,
		Design: func(d []float64, m *Metrics) {
			i, dma := m[SumDiskInts], m[MeanDMA]
			d[0], d[1], d[2], d[3], d[4] = 1, i, i*i, dma, dma*dma
		},
		Terms: []string{"const", "disk_ints_pmc", "disk_ints_pmc^2", "dma_pmc", "dma_pmc^2"},
		eq:    eqDisk,
	}
}

// IOSpec is the paper's Equation 5: I/O subsystem power as a quadratic
// in interrupts per cycle. The constant timer-tick stream folds into the
// intercept; device interrupts supply the variation.
func IOSpec() ModelSpec {
	return ModelSpec{
		Name:   "io (Eq.5)",
		Sub:    power.SubIO,
		Design: quadratic(SumInts),
		Terms:  []string{"const", "ints_pmc", "ints_pmc^2"},
		eq:     eqIO,
	}
}

// ChipsetSpec is the paper's chipset model: a constant ("we assume
// chipset power to be a constant 19.9 Watts"), fitted as the training
// trace's mean.
func ChipsetSpec() ModelSpec {
	return ModelSpec{
		Name: "chipset (const)",
		Sub:  power.SubChipset,
		Design: func(d []float64, m *Metrics) {
			d[0] = 1
		},
		Terms: []string{"const"},
		eq:    eqChipset,
	}
}

// The specs below are the alternatives the paper evaluated and rejected;
// they exist so the model-selection narrative (Sections 4.2.3 and 4.2.4)
// can be reproduced quantitatively in the ablation benchmarks.

// DiskDMASpec models disk power from DMA accesses alone. The paper found
// it misses fine-grain variation ("DMA events failed to capture the
// fine-grain power variations ... almost as if the DMA events had a
// low-pass filter applied to them").
func DiskDMASpec() ModelSpec {
	return ModelSpec{
		Name:   "disk-dma (rejected)",
		Sub:    power.SubDisk,
		Design: quadratic(MeanDMA),
		Terms:  []string{"const", "dma_pmc", "dma_pmc^2"},
	}
}

// DiskUncacheableSpec models disk power from uncacheable accesses alone,
// the paper's other rejected candidate.
func DiskUncacheableSpec() ModelSpec {
	return ModelSpec{
		Name:   "disk-uc (rejected)",
		Sub:    power.SubDisk,
		Design: quadratic(SumUncacheable),
		Terms:  []string{"const", "uc_pmc", "uc_pmc^2"},
	}
}

// IODMASpec models I/O power from DMA accesses, rejected because
// write-combining and sub-line transfers break the DMA-count-to-switching
// proportionality.
func IODMASpec() ModelSpec {
	return ModelSpec{
		Name:   "io-dma (rejected)",
		Sub:    power.SubIO,
		Design: quadratic(MeanDMA),
		Terms:  []string{"const", "dma_pmc", "dma_pmc^2"},
	}
}

// IOUncacheableSpec models I/O power from uncacheable accesses, also
// considered and rejected by the paper.
func IOUncacheableSpec() ModelSpec {
	return ModelSpec{
		Name:   "io-uc (rejected)",
		Sub:    power.SubIO,
		Design: quadratic(SumUncacheable),
		Terms:  []string{"const", "uc_pmc", "uc_pmc^2"},
	}
}

// quadratic designs 1, x and x² from feature x: the single-input
// quadratics of Equations 2–5.
func quadratic(x int) func(d []float64, m *Metrics) {
	return func(d []float64, m *Metrics) {
		v := m[x]
		d[0], d[1], d[2] = 1, v, v*v
	}
}
