package core

import (
	"math"

	"trickledown/internal/perfctr"
	"trickledown/internal/power"
)

// Thread-level power attribution — the paper's Section 4.2.1 endgame:
// "this is particularly challenging in virtual machine environments in
// which multiple customers could be simultaneously running applications
// on a single physical processor. For this reason, process-level power
// accounting is essential."
//
// Equation 1 attributes power to physical processors; on an SMT
// processor two tenants share one. The split below divides each
// processor's estimated power into an infrastructure part (the halted
// floor, owed equally by whoever is scheduled there) and a dynamic part
// divided by OS-accounted per-thread busy time — the same accounting
// the billing story already requires the OS to keep.

// PerThreadPower attributes the CPU-subsystem estimate to hardware
// threads. The sample must carry OS per-thread busy accounting
// (OSThreadBusySec) with threadsPerCPU entries per processor; otherwise
// nil is returned. The per-thread values of each processor sum to that
// processor's Equation 1 attribution. A negative or non-finite busy
// time cannot be attributed either, and also returns nil, as does an
// estimator PerCPUPower refuses.
func (e *Estimator) PerThreadPower(s *perfctr.Sample, threadsPerCPU int) []float64 {
	if threadsPerCPU <= 0 {
		return nil
	}
	perCPU := e.PerCPUPower(s)
	want := len(perCPU) * threadsPerCPU
	if perCPU == nil || len(s.OSThreadBusySec) < want || s.IntervalSec <= 0 {
		return nil
	}
	floor := e.Model(power.SubCPU).Coef[0] // per-processor infrastructure (halted floor)
	out := make([]float64, want)
	for cpuID := range perCPU {
		lo, hi := cpuID*threadsPerCPU, (cpuID+1)*threadsPerCPU
		dynamic := perCPU[cpuID] - floor
		if dynamic < 0 {
			dynamic = 0
		}
		if splitShares(out[lo:hi], s.OSThreadBusySec[lo:hi], perCPU[cpuID], floor, dynamic) >= 0 {
			return nil
		}
	}
	return out
}

// splitShares is the one attribution split, shared by PerThreadPower
// and AttributeTenants: it divides total into len(dst) shares, the
// floor evenly and the dynamic part in proportion to weights (evenly
// when the weights sum to zero). The caller defines floor and dynamic;
// the rounding residue against total lands on dst[0], so the shares sum
// to total exactly. It returns the index of the first negative or
// non-finite weight, leaving dst unwritten, or -1 on success.
func splitShares(dst, weights []float64, total, floor, dynamic float64) int {
	var sum float64
	for i, w := range weights {
		if w < 0 || math.IsNaN(w) || math.IsInf(w, 0) {
			return i
		}
		sum += w
	}
	n := float64(len(dst))
	var got float64
	for i := range dst {
		share := 1 / n
		if sum > 0 {
			share = weights[i] / sum
		}
		dst[i] = floor/n + dynamic*share
		got += dst[i]
	}
	if diff := total - got; diff != 0 {
		dst[0] += diff
	}
	return -1
}
