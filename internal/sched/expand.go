package sched

import (
	"fmt"
	"math"
	"strings"
)

// OffNode is the scheduler's inventory view of a powered-down healthy
// node — the pool PlanExpansion draws from on a load ramp. IdleWatts is
// what powering it on immediately costs (its floor; migrated-in load
// comes on top), CapacityWatts and FreeThreads are what it adds to the
// fleet's headroom.
type OffNode struct {
	Name          string
	IdleWatts     float64
	CapacityWatts float64
	FreeThreads   int
}

// ExpandConfig bounds the expansion decision.
type ExpandConfig struct {
	// TargetUtil is the highest acceptable fleet utilization
	// (draw / capacity over healthy powered-on nodes); nodes power on
	// until projected utilization drops to it. Zero means 0.75.
	TargetUtil float64
}

func (c ExpandConfig) withDefaults() ExpandConfig {
	if c.TargetUtil == 0 {
		c.TargetUtil = 0.75
	}
	return c
}

// Expansion is the power-up decision for one interval.
type Expansion struct {
	// PowerOn lists nodes to wake, in decision order.
	PowerOn []string
	// UtilBefore/UtilAfter are fleet utilization before and after
	// (projected: woken nodes contribute their idle draw and their
	// capacity).
	UtilBefore float64
	UtilAfter  float64
	// FreeBefore/FreeAfter count the fleet's free threads.
	FreeBefore int
	FreeAfter  int
	// AddedWatts is the projected draw increase (woken idle floors).
	AddedWatts float64
}

// Summary renders the expansion as one stable line.
func (e Expansion) Summary() string {
	if len(e.PowerOn) == 0 {
		return fmt.Sprintf("no expansion (util %.2f, %d free threads)", e.UtilBefore, e.FreeBefore)
	}
	return fmt.Sprintf("power-on %s (util %.2f -> %.2f, free threads %d -> %d, +%.1f W idle)",
		strings.Join(e.PowerOn, ","), e.UtilBefore, e.UtilAfter, e.FreeBefore, e.FreeAfter, e.AddedWatts)
}

// PlanExpansion is Plan's inverse for the morning ramp: consolidation
// powered nodes down overnight, and as the diurnal load grows back the
// surviving nodes' utilization climbs; this decides which powered-off
// nodes to wake so the fleet regains headroom *before* survivors
// saturate. Off-nodes wake in the given order (deterministic,
// insertion-order ties like Plan) until projected utilization is at or
// below TargetUtil, or the pool runs out. Like Plan it is a pure function of its inputs:
// estimator-derived draws in, names out, no simulation touched.
func PlanExpansion(on []NodeInfo, off []OffNode, cfg ExpandConfig) Expansion {
	cfg = cfg.withDefaults()
	var watts, capacity float64
	free := 0
	for i := range on {
		n := &on[i]
		if !n.Healthy {
			continue
		}
		watts += n.Watts
		capacity += n.CapacityWatts
		free += n.FreeThreads
	}
	util := func(w, c float64) float64 {
		if c <= 0 {
			if w > 0 {
				return math.Inf(1)
			}
			return 0
		}
		return w / c
	}
	e := Expansion{
		UtilBefore: util(watts, capacity),
		FreeBefore: free,
	}
	projW, projC := watts, capacity
	for i := range off {
		if !(util(projW, projC) > cfg.TargetUtil) {
			break
		}
		n := &off[i]
		if !(n.CapacityWatts > 0) {
			continue // waking it adds draw and no capacity
		}
		e.PowerOn = append(e.PowerOn, n.Name)
		projW += n.IdleWatts
		projC += n.CapacityWatts
		free += n.FreeThreads
		e.AddedWatts += n.IdleWatts
	}
	e.UtilAfter = util(projW, projC)
	e.FreeAfter = free
	return e
}
