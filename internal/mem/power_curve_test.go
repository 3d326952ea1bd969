package mem_test

import (
	"testing"

	"trickledown/internal/mem"
	"trickledown/internal/power"
)

// paper prices DRAM power on the paper's machine.
var paper = power.ServerProfile()

// memPowerAt serves one second of CPU traffic at the given fraction of
// bus capacity and returns the resulting DRAM power.
func memPowerAt(frac, writeFrac, locality float64) float64 {
	m := mem.New()
	st := m.Step(1.0, mem.Traffic{
		CPUTx:     frac * mem.BusCapacity,
		WriteFrac: writeFrac,
		Locality:  locality,
	})
	return paper.Memory(st, 1.0)
}

// The memory power-response curve the paper's quadratic models chase:
// idle floor with no traffic, monotonic growth with bus transactions,
// and superlinear curvature (bank conflicts erode row-buffer hits as
// utilization rises, so each extra transaction costs more activations
// than the last).
func TestMemoryPowerResponseCurve(t *testing.T) {
	if got := memPowerAt(0, 0, 0.5); got != power.MemIdlePower {
		t.Fatalf("idle memory power = %v, want the %v W floor", got, power.MemIdlePower)
	}
	fracs := []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8}
	watts := make([]float64, len(fracs))
	prev := power.MemIdlePower
	for i, f := range fracs {
		watts[i] = memPowerAt(f, 0.3, 0.5)
		if watts[i] <= prev {
			t.Errorf("%.0f%% load: power %v W did not rise past %v W", f*100, watts[i], prev)
		}
		prev = watts[i]
	}
	// Superlinearity: equal load steps cost strictly more Watts as the
	// bus fills — the physical source of the quadratic term. Asserted
	// only below ~60% utilization; past that the FSB's soft saturation
	// starts clipping served transactions and the curve rolls off.
	for i := 2; i < len(watts) && fracs[i] <= 0.6; i++ {
		d0 := watts[i-1] - watts[i-2]
		d1 := watts[i] - watts[i-1]
		if d1 <= d0 {
			t.Errorf("steps %.0f%%→%.0f%%: increment %v W not above previous %v W (curve not superlinear)",
				fracs[i-1]*100, fracs[i]*100, d1, d0)
		}
	}
}

// Writes cost more DRAM energy than reads at identical transaction
// counts — the asymmetry the bus-transaction model cannot see and the
// paper's suggested read/write extension targets.
func TestMemoryWritePremiumAcrossLoads(t *testing.T) {
	for _, frac := range []float64{0.1, 0.4, 0.7} {
		ro := memPowerAt(frac, 0, 0.5)
		wo := memPowerAt(frac, 1, 0.5)
		if wo <= ro {
			t.Errorf("%.0f%% load: write-heavy power %v W not above read-only %v W", frac*100, wo, ro)
		}
	}
}

// DMA traffic consumes DRAM power like any other agent — the paper's
// key insight that processor-only counters miss I/O-driven memory
// power unless the DMA stream is counted.
func TestMemoryDMATrafficConsumesPower(t *testing.T) {
	m := mem.New()
	st := m.Step(1.0, mem.Traffic{DMATx: 0.4 * mem.BusCapacity, DMAWriteFrac: 0.5})
	if p := paper.Memory(st, 1.0); p <= power.MemIdlePower {
		t.Errorf("DMA-only load power = %v W, want above the %v W idle floor", p, power.MemIdlePower)
	}
}

// Poor row-buffer locality forces more activations, so the same
// transaction count draws more power — the mechanism behind the paper's
// FP memory-model underestimation.
func TestMemoryLocalityLowersPower(t *testing.T) {
	for _, frac := range []float64{0.2, 0.5} {
		thrash := memPowerAt(frac, 0.3, 0.0)
		local := memPowerAt(frac, 0.3, 1.0)
		if thrash <= local {
			t.Errorf("%.0f%% load: thrashing power %v W not above high-locality %v W", frac*100, thrash, local)
		}
	}
}

// Beyond saturation the bus carries no more transactions, so power
// flattens instead of growing without bound.
func TestMemoryPowerSaturates(t *testing.T) {
	over := memPowerAt(4.0, 0.3, 0.5)
	way := memPowerAt(8.0, 0.3, 0.5)
	if diff := way - over; diff > 1.0 {
		t.Errorf("power still climbing %v W past saturation", diff)
	}
}
