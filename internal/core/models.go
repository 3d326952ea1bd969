package core

import "trickledown/internal/power"

// ModelSpec describes one subsystem model: which subsystem's rail it
// predicts, and how counter metrics become a regression design row. The
// first design element is the intercept carrier (1, or NumCPUs for
// models whose constant term is per-processor).
type ModelSpec struct {
	// Name identifies the model in reports, e.g. "mem-bus (Eq.3)".
	Name string
	// Sub is the subsystem whose rail power the model predicts.
	Sub power.Subsystem
	// Design appends the regression row for m to dst and returns the
	// extended slice, the same convention as perfctr.EncodeBatch(buf, …):
	// callers pass a reused buffer (dst[:0]) to build rows without
	// allocating. It must append exactly the row — nothing else — and
	// must not retain dst or the result past the call, since the caller
	// overwrites the buffer with the next row.
	Design func(dst []float64, m *Metrics) []float64
	// Terms documents the design columns for coefficient printing.
	Terms []string
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
		Design: func(dst []float64, m *Metrics) []float64 {
			return append(dst,
				float64(m.NumCPUs),
				sum(m.PercentActive),
				sum(m.UopsPerCycle),
			)
		},
		Terms: []string{"perCPU", "percent_active", "uops_per_cycle"},
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
		Design: func(dst []float64, m *Metrics) []float64 {
			var vSum, actFV, upcFV float64
			for i := 0; i < m.NumCPUs; i++ {
				f := 1.0
				if i < len(m.FreqScale) && m.FreqScale[i] > 0 {
					f = m.FreqScale[i]
				}
				v := power.VoltageScale(f)
				fv2 := f * v * v
				vSum += v
				actFV += m.PercentActive[i] * fv2
				upcFV += m.UopsPerCycle[i] * fv2
			}
			return append(dst, vSum, actFV, upcFV)
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
		Design: func(dst []float64, m *Metrics) []float64 {
			return append(dst, float64(m.NumCPUs), sum(m.OSUtil))
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
		Name: "mem-l3 (Eq.2)",
		Sub:  power.SubMemory,
		Design: func(dst []float64, m *Metrics) []float64 {
			x := sum(m.L3LoadPMC)
			return append(dst, 1, x, x*x)
		},
		Terms: []string{"const", "l3_load_pmc", "l3_load_pmc^2"},
	}
}

// MemBusSpec is the paper's Equation 3: memory power as a quadratic in
// *all* memory bus transactions — processor demand, hardware prefetch
// and DMA — which "remains valid for all observed bus utilization
// rates".
func MemBusSpec() ModelSpec {
	return ModelSpec{
		Name: "mem-bus (Eq.3)",
		Sub:  power.SubMemory,
		Design: func(dst []float64, m *Metrics) []float64 {
			x := m.TotalBusPMC()
			return append(dst, 1, x, x*x)
		},
		Terms: []string{"const", "bus_tx_pmc", "bus_tx_pmc^2"},
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
		Design: func(dst []float64, m *Metrics) []float64 {
			x := m.TotalBusPMC()
			w := m.WritebackShare()
			return append(dst, 1, x, x*x, x*w)
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
		Design: func(dst []float64, m *Metrics) []float64 {
			i := sum(m.DiskIntsPMC)
			d := mean(m.DMAPMC)
			return append(dst, 1, i, i*i, d, d*d)
		},
		Terms: []string{"const", "disk_ints_pmc", "disk_ints_pmc^2", "dma_pmc", "dma_pmc^2"},
	}
}

// IOSpec is the paper's Equation 5: I/O subsystem power as a quadratic
// in interrupts per cycle. The constant timer-tick stream folds into the
// intercept; device interrupts supply the variation.
func IOSpec() ModelSpec {
	return ModelSpec{
		Name: "io (Eq.5)",
		Sub:  power.SubIO,
		Design: func(dst []float64, m *Metrics) []float64 {
			x := sum(m.IntsPMC)
			return append(dst, 1, x, x*x)
		},
		Terms: []string{"const", "ints_pmc", "ints_pmc^2"},
	}
}

// ChipsetSpec is the paper's chipset model: a constant ("we assume
// chipset power to be a constant 19.9 Watts"), fitted as the training
// trace's mean.
func ChipsetSpec() ModelSpec {
	return ModelSpec{
		Name: "chipset (const)",
		Sub:  power.SubChipset,
		Design: func(dst []float64, m *Metrics) []float64 {
			return append(dst, 1)
		},
		Terms: []string{"const"},
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
		Name: "disk-dma (rejected)",
		Sub:  power.SubDisk,
		Design: func(dst []float64, m *Metrics) []float64 {
			d := mean(m.DMAPMC)
			return append(dst, 1, d, d*d)
		},
		Terms: []string{"const", "dma_pmc", "dma_pmc^2"},
	}
}

// DiskUncacheableSpec models disk power from uncacheable accesses alone,
// the paper's other rejected candidate.
func DiskUncacheableSpec() ModelSpec {
	return ModelSpec{
		Name: "disk-uc (rejected)",
		Sub:  power.SubDisk,
		Design: func(dst []float64, m *Metrics) []float64 {
			u := sum(m.UncacheablePMC)
			return append(dst, 1, u, u*u)
		},
		Terms: []string{"const", "uc_pmc", "uc_pmc^2"},
	}
}

// IODMASpec models I/O power from DMA accesses, rejected because
// write-combining and sub-line transfers break the DMA-count-to-switching
// proportionality.
func IODMASpec() ModelSpec {
	return ModelSpec{
		Name: "io-dma (rejected)",
		Sub:  power.SubIO,
		Design: func(dst []float64, m *Metrics) []float64 {
			d := mean(m.DMAPMC)
			return append(dst, 1, d, d*d)
		},
		Terms: []string{"const", "dma_pmc", "dma_pmc^2"},
	}
}

// IOUncacheableSpec models I/O power from uncacheable accesses, also
// considered and rejected by the paper.
func IOUncacheableSpec() ModelSpec {
	return ModelSpec{
		Name: "io-uc (rejected)",
		Sub:  power.SubIO,
		Design: func(dst []float64, m *Metrics) []float64 {
			u := sum(m.UncacheablePMC)
			return append(dst, 1, u, u*u)
		},
		Terms: []string{"const", "uc_pmc", "uc_pmc^2"},
	}
}
