package core

import (
	"fmt"
	"math"

	"trickledown/internal/power"
	"trickledown/internal/workload"
)

// TenantActivity is one tenant's share-determining activity: for each
// subsystem, the integral of the driving metric the paper's model for
// that subsystem consumes (fetched uops for CPU, bus transactions for
// memory, interrupt-weighted traffic for I/O and disk). The absolute
// scale cancels in the division — only ratios between co-tenants
// matter.
type TenantActivity struct {
	// Name labels the tenant in reports.
	Name string
	// Driving holds the per-subsystem driving-metric integrals.
	Driving [power.NumSubsystems]float64
}

// TenantActivityFromUsage maps a cohort tenant's accumulated usage onto
// the five subsystem drivers, mirroring how Train pairs each subsystem
// model with its metric (Eq. 2-7):
//
//	CPU     — unhalted time plus fetched uops (the Eq. 1/2 inputs)
//	chipset — modeled as a constant, so no tenant drives its dynamic
//	          part; the zero driver falls back to an even split
//	memory  — miss + writeback bus transactions (Eq. 4/5)
//	I/O     — DMA/interrupt traffic: disk plus network bytes (Eq. 3)
//	disk    — disk bytes (Eq. 7)
func TenantActivityFromUsage(u workload.TenantUsage) TenantActivity {
	var d [power.NumSubsystems]float64
	d[power.SubCPU] = u.ActiveSum + u.UopSum
	d[power.SubMemory] = u.BusSum
	d[power.SubIO] = u.DiskBytes + u.NetBytes
	d[power.SubDisk] = u.DiskBytes
	return TenantActivity{Name: u.Name, Driving: d}
}

// AttributeTenants splits a node's estimated power reading across
// tenants, subsystem by subsystem: the idle floor divides evenly (it
// burns whether anyone runs or not), and the dynamic part —
// total − idle, clamped at zero — divides proportionally to each
// tenant's share of that subsystem's driving metric, exactly as the
// paper's trickle-down decomposition assigns rail power to the
// subsystem whose events explain it. A subsystem nobody drives splits
// its dynamic part evenly. Rounding residue is reconciled onto tenant
// 0 so the attributed readings sum to the node reading exactly.
func AttributeTenants(total, idle power.Reading, tenants []TenantActivity) ([]power.Reading, error) {
	n := len(tenants)
	if n == 0 {
		return nil, fmt.Errorf("core: attribute: zero tenants")
	}
	for s := 0; s < power.NumSubsystems; s++ {
		if math.IsNaN(total[s]) || math.IsInf(total[s], 0) {
			return nil, fmt.Errorf("core: attribute: total[%s] is %v", power.Subsystem(s), total[s])
		}
		if math.IsNaN(idle[s]) || math.IsInf(idle[s], 0) {
			return nil, fmt.Errorf("core: attribute: idle[%s] is %v", power.Subsystem(s), idle[s])
		}
	}
	out := make([]power.Reading, n)
	weights := make([]float64, n)
	shares := make([]float64, n)
	for s := 0; s < power.NumSubsystems; s++ {
		dyn := total[s] - idle[s]
		if dyn < 0 {
			dyn = 0
		}
		for i := range tenants {
			weights[i] = tenants[i].Driving[s]
		}
		if bad := splitShares(shares, weights, total[s], total[s]-dyn, dyn); bad >= 0 {
			return nil, fmt.Errorf("core: attribute: tenant %q driving[%s] is %v", tenants[bad].Name, power.Subsystem(s), weights[bad])
		}
		for i, v := range shares {
			out[i][s] = v
		}
	}
	return out, nil
}

// CheckAttribution runs the metamorphic battery over one attribution
// instance and returns the first violation:
//
//  1. conservation — the attributed readings sum to the node reading
//     within 1e-9 (relative to the reading's scale), per subsystem;
//  2. monotonicity — scaling one tenant's driving metrics up by 1.5×
//     never decreases that tenant's attributed total;
//  3. identity — a single-tenant attribution returns the node reading
//     itself.
func CheckAttribution(total, idle power.Reading, tenants []TenantActivity) error {
	base, err := AttributeTenants(total, idle, tenants)
	if err != nil {
		return err
	}
	// 1: conservation.
	for s := 0; s < power.NumSubsystems; s++ {
		var sum float64
		for i := range base {
			sum += base[i][s]
		}
		tol := 1e-9 * math.Max(1, math.Abs(total[s]))
		if math.Abs(sum-total[s]) > tol {
			return fmt.Errorf("core: attribution of %s sums to %.12f, node reads %.12f", power.Subsystem(s), sum, total[s])
		}
	}
	// 2: monotonicity in own demand.
	for i := range tenants {
		scaled := make([]TenantActivity, len(tenants))
		copy(scaled, tenants)
		bumped := scaled[i]
		for s := range bumped.Driving {
			bumped.Driving[s] *= 1.5
		}
		scaled[i] = bumped
		up, err := AttributeTenants(total, idle, scaled)
		if err != nil {
			return err
		}
		if up[i].Total() < base[i].Total()-1e-9 {
			return fmt.Errorf("core: tenant %q attribution fell from %.12f to %.12f when its demand grew",
				tenants[i].Name, base[i].Total(), up[i].Total())
		}
	}
	// 3: single-tenant identity.
	solo, err := AttributeTenants(total, idle, tenants[:1])
	if err != nil {
		return err
	}
	for s := 0; s < power.NumSubsystems; s++ {
		if math.Abs(solo[0][s]-total[s]) > 1e-9*math.Max(1, math.Abs(total[s])) {
			return fmt.Errorf("core: single-tenant attribution of %s is %.12f, node reads %.12f",
				power.Subsystem(s), solo[0][s], total[s])
		}
	}
	return nil
}

// splitShares is AttributeTenants' split: it divides total into
// len(dst) shares, the floor evenly and the dynamic part in proportion
// to weights (evenly when the weights sum to zero). The caller defines
// floor and dynamic; the rounding residue against total lands on
// dst[0], so the shares sum to total exactly. It returns the index of
// the first negative or non-finite weight, leaving dst unwritten, or -1
// on success.
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
