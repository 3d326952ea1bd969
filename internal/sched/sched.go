// Package sched is the power-aware scheduler loop the paper's
// ensemble-management motivation asks for: each simulated interval it
// turns the trickle-down estimator's fleet snapshot — and nothing else;
// measured rails are never an input — into placement and eviction
// decisions:
//
//   - Budget enforcement: when the fleet's estimated draw exceeds the
//     budget, load is shed largest-consumer-first until it fits.
//   - Energy-proportional consolidation: when the fleet fits, nodes with
//     little dynamic load are migrated onto busier hosts and powered
//     down, trading a one-time migration cost for the evicted node's
//     idle floor every subsequent second (the energy-proportional
//     subsystem-management literature's core move).
//   - A hard "never overload survivors" constraint: a migration happens
//     only onto a host with enough free hardware threads and enough
//     Watts headroom below its capacity; load that fits nowhere is shed
//     (powered down unplaced) under budget pressure and simply left
//     alone during consolidation.
//   - Quarantine awareness: an unhealthy node (cluster quarantine,
//     ErrNodeFailed) has unknown draw — it is neither a migration source
//     nor a host, and it counts toward nothing.
//
// Every choice breaks ties toward the earlier node in fleet insertion
// order, so a decision is a pure deterministic function of the input
// slice — the property the cluster layer's bit-for-bit reproducibility
// contract extends through the scheduler.
//
// The package is deliberately simulation-free: Plan consumes a value
// snapshot ([]NodeInfo) and emits a Decision; the caller (an operator
// loop, examples/fleet, a benchmark) actuates it through
// cluster.SetPowered and whatever placement machinery it owns. Busiest-
// first one-by-one placement follows the k8s-cluster-simulator proposed
// scheduler's loop shape.
package sched

import (
	"fmt"
	"math"
	"strings"
)

// NodeInfo is the scheduler's view of one node, derived entirely from
// estimator output plus static inventory (capacities, thread counts).
type NodeInfo struct {
	// Name identifies the node.
	Name string
	// Watts is the node's current estimated draw.
	Watts float64
	// IdleWatts is the node's estimated idle floor — what powering it
	// down saves beyond its migrated load. Static inventory calibrated
	// once per hardware configuration (through the estimator, not the
	// rails).
	IdleWatts float64
	// CapacityWatts is the node's safe sustained draw; a migration never
	// pushes a host's projected draw above it.
	CapacityWatts float64
	// UsedThreads is how many hardware threads the node's own load
	// occupies — what a host must absorb to take this node's work.
	UsedThreads int
	// FreeThreads is how many hardware threads the node has available
	// for migrated-in load.
	FreeThreads int
	// Healthy is false for quarantined nodes: unknown draw, excluded
	// from totals, never a source or host.
	Healthy bool
}

// dynamic is the node's load above its idle floor — what actually moves
// in a migration. Clamped at zero so a noisy estimate below the idle
// floor cannot project a host's draw downward.
func (n *NodeInfo) dynamic() float64 {
	return math.Max(0, n.Watts-n.IdleWatts)
}

// Action is one scheduling decision: power Node down, moving its load to
// Host. An empty Host means the load is shed (powered down unplaced) —
// only ever done under budget pressure when no survivor can take it.
type Action struct {
	// Node is the evicted node.
	Node string
	// Host receives the evicted node's load; empty means shed.
	Host string
	// DeltaWatts is the dynamic load the migration adds to the host; for
	// a shed it is the node's whole dropped draw.
	DeltaWatts float64
	// Threads is how many of the host's free threads the load occupies.
	Threads int
	// Reason is "budget" (shed to fit the budget) or "consolidate"
	// (energy-proportional packing).
	Reason string
}

// String renders the action as a stable single line for logs and
// deterministic example output.
func (a Action) String() string {
	if a.Host == "" {
		return fmt.Sprintf("power-off %s (%s, shed %.1f W unplaced)", a.Node, a.Reason, a.DeltaWatts)
	}
	return fmt.Sprintf("migrate %s -> %s (%s, +%.1f W, %d threads)", a.Node, a.Host, a.Reason, a.DeltaWatts, a.Threads)
}

// Decision is the scheduler's output for one interval.
type Decision struct {
	// Actions in decision order (apply in order; later actions assume
	// earlier ones happened).
	Actions []Action
	// Projected is the fleet's estimated draw after applying every
	// action (healthy powered-on survivors only).
	Projected float64
	// Fits reports whether Projected meets the budget.
	Fits bool
	// SavedWatts is the steady-state draw reduction versus doing
	// nothing.
	SavedWatts float64
	// MigrationJ is the one-time energy cost of the decision's
	// migrations (Config.MigrationCostJ each).
	MigrationJ float64
}

// Summary renders the decision as one stable line.
func (d Decision) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "actions=%d projected=%.1fW fits=%v saved=%.1fW migrationJ=%.0f",
		len(d.Actions), d.Projected, d.Fits, d.SavedWatts, d.MigrationJ)
	return b.String()
}

// Config parameterizes Plan.
type Config struct {
	// BudgetWatts is the fleet cap the paper's ensemble manager enforces.
	// Zero or negative means no budget (consolidation only).
	BudgetWatts float64
	// MigrationCostJ is the one-time energy cost of moving one node's
	// load (state transfer, warm-up). A consolidation must pay for
	// itself: it happens only when the evicted idle floor recovers this
	// cost within AmortizeSec.
	MigrationCostJ float64
	// AmortizeSec is the horizon over which a migration's cost must be
	// recovered by the idle-floor saving. Zero defaults to 300 s.
	AmortizeSec float64
	// MinNodes is the minimum number of powered-on healthy survivors;
	// values below 1 behave as 1 (the last-node invariant: the scheduler
	// never powers the whole fleet down).
	MinNodes int
}

// amortize returns the effective amortization horizon.
func (cfg Config) amortize() float64 {
	if cfg.AmortizeSec <= 0 {
		return 300
	}
	return cfg.AmortizeSec
}

// planState tracks the working fleet during planning.
type planState struct {
	nodes []NodeInfo // working copy; Watts/threads mutate as actions apply
	off   []bool     // powered down by an earlier action this decision
	alive int        // healthy powered-on survivors
	total float64    // their summed estimated draw
}

// Plan computes one interval's decision for the given fleet snapshot.
// The input lists powered-on nodes in fleet insertion order (powered-off
// nodes have no draw and nothing to schedule; callers simply omit them).
// Quarantined nodes must be passed with Healthy=false so the planner
// knows they exist but cannot use them.
//
// Plan is a pure function: identical input produces an identical
// decision, and the input slice is never mutated.
func Plan(fleet []NodeInfo, cfg Config) Decision {
	minNodes := cfg.MinNodes
	if minNodes < 1 {
		minNodes = 1
	}
	st := planState{
		nodes: append([]NodeInfo(nil), fleet...),
		off:   make([]bool, len(fleet)),
	}
	for i := range st.nodes {
		if st.nodes[i].Healthy {
			st.alive++
			st.total += st.nodes[i].Watts
		}
	}
	before := st.total
	var d Decision
	hasBudget := cfg.BudgetWatts > 0

	// Phase 1 — budget enforcement, largest consumer first (fewest
	// evictions shed the most Watts).
	// Each eviction first tries to migrate (sheds only the idle floor but
	// loses no work), and shed-unplaced is the last resort.
	if hasBudget {
		for st.total > cfg.BudgetWatts && st.alive > minNodes {
			src := st.pickEvictee(largestFirst)
			if src < 0 {
				break
			}
			host := st.pickHost(src)
			delta := st.nodes[src].dynamic()
			if host >= 0 && st.total-st.nodes[src].IdleWatts <= cfg.BudgetWatts {
				// Migrating saves the idle floor; prefer it whenever that
				// alone already satisfies the budget.
				st.apply(src, host)
				d.Actions = append(d.Actions, Action{
					Node: st.nodes[src].Name, Host: st.nodes[host].Name,
					DeltaWatts: delta, Threads: st.nodes[src].UsedThreads,
					Reason: "budget",
				})
				d.MigrationJ += cfg.MigrationCostJ
				continue
			}
			// No host fits (or migration alone cannot reach the budget):
			// shed the whole node's draw.
			shed := st.nodes[src].Watts
			st.apply(src, -1)
			d.Actions = append(d.Actions, Action{
				Node: st.nodes[src].Name, DeltaWatts: shed, Reason: "budget",
			})
		}
	}

	// Phase 2 — energy-proportional consolidation: pack the smallest
	// dynamic loads onto the busiest hosts that can hold them, powering
	// the emptied nodes down, as long as each move pays for itself and
	// the budget (if any) stays met.
	for st.alive > minNodes {
		src := st.pickEvictee(smallestDynamicFirst)
		if src < 0 {
			break
		}
		if st.nodes[src].IdleWatts*cfg.amortize() <= cfg.MigrationCostJ {
			break // cheapest remaining saving cannot amortize a migration
		}
		host := st.pickHost(src)
		if host < 0 {
			break // nothing can take even the smallest load without overload
		}
		delta := st.nodes[src].dynamic()
		st.apply(src, host)
		d.Actions = append(d.Actions, Action{
			Node: st.nodes[src].Name, Host: st.nodes[host].Name,
			DeltaWatts: delta, Threads: st.nodes[src].UsedThreads,
			Reason: "consolidate",
		})
		d.MigrationJ += cfg.MigrationCostJ
	}

	d.Projected = st.total
	d.Fits = !hasBudget || st.total <= cfg.BudgetWatts
	d.SavedWatts = before - st.total
	return d
}

// evictionOrder ranks eviction candidates; true means a beats b.
type evictionOrder func(a, b *NodeInfo) bool

// largestFirst sheds the most Watts per eviction (budget mode).
func largestFirst(a, b *NodeInfo) bool { return a.Watts > b.Watts }

// smallestDynamicFirst moves the cheapest load first (consolidation
// mode): the smallest dynamic load is the easiest to place and frees a
// whole idle floor.
func smallestDynamicFirst(a, b *NodeInfo) bool { return a.dynamic() < b.dynamic() }

// pickEvictee returns the best eviction candidate under the order, or
// -1. Strict comparisons scan in insertion order, so ties break toward
// the earlier node.
func (st *planState) pickEvictee(better evictionOrder) int {
	best := -1
	for i := range st.nodes {
		n := &st.nodes[i]
		if !n.Healthy || st.off[i] {
			continue
		}
		if best < 0 || better(n, &st.nodes[best]) {
			best = i
		}
	}
	return best
}

// pickHost returns the busiest surviving node that can absorb src's
// dynamic load without overload — enough free threads and enough Watts
// headroom below capacity — or -1. Busiest-first packing concentrates
// load on few hosts so later evictions keep finding empty nodes; ties
// break toward the earlier node.
func (st *planState) pickHost(src int) int {
	need := st.nodes[src].dynamic()
	threads := st.nodes[src].UsedThreads
	best := -1
	for i := range st.nodes {
		if i == src {
			continue
		}
		h := &st.nodes[i]
		if !h.Healthy || st.off[i] {
			continue
		}
		if h.FreeThreads < threads {
			continue
		}
		if h.Watts+need > h.CapacityWatts {
			continue
		}
		if best < 0 || h.Watts > st.nodes[best].Watts {
			best = i
		}
	}
	return best
}

// apply powers src down, moving its dynamic load to host (-1 = shed).
func (st *planState) apply(src, host int) {
	delta := st.nodes[src].dynamic()
	st.off[src] = true
	st.alive--
	if host >= 0 {
		st.total -= st.nodes[src].IdleWatts
		st.nodes[host].Watts += delta
		st.nodes[host].FreeThreads -= st.nodes[src].UsedThreads
		// The host now owns the migrated threads: if it is itself evicted
		// later, its handed-off load includes them.
		st.nodes[host].UsedThreads += st.nodes[src].UsedThreads
	} else {
		st.total -= st.nodes[src].Watts
	}
	st.nodes[src].Watts = 0
}
