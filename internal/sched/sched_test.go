package sched

import (
	"math"
	"reflect"
	"testing"
)

// node builds a healthy NodeInfo with the fleet-typical shape: 8-thread
// box, 230 W idle floor, 320 W capacity.
func node(name string, watts float64, usedThreads int) NodeInfo {
	return NodeInfo{
		Name: name, Watts: watts, IdleWatts: 230, CapacityWatts: 320,
		UsedThreads: usedThreads, FreeThreads: 8 - usedThreads, Healthy: true,
	}
}

// cfg is the test default: budget off, migrations amortize easily.
func cfg() Config {
	return Config{MigrationCostJ: 1000, AmortizeSec: 300}
}

func TestPlanEmptyFleet(t *testing.T) {
	d := Plan(nil, Config{BudgetWatts: 100})
	if len(d.Actions) != 0 || !d.Fits || d.Projected != 0 || d.SavedWatts != 0 {
		t.Errorf("empty fleet decision = %+v", d)
	}
	d = Plan([]NodeInfo{}, cfg())
	if len(d.Actions) != 0 || !d.Fits {
		t.Errorf("empty fleet decision = %+v", d)
	}
}

func TestPlanAllNodesQuarantined(t *testing.T) {
	fleet := []NodeInfo{node("a", 260, 8), node("b", 250, 8)}
	for i := range fleet {
		fleet[i].Healthy = false
	}
	d := Plan(fleet, Config{BudgetWatts: 100, MigrationCostJ: 1000})
	// Unknown draw: nothing to decide, nothing to count. An all-
	// quarantined fleet trivially "fits" because the scheduler cannot
	// see any draw — the cluster layer is what reports ErrNodeFailed.
	if len(d.Actions) != 0 {
		t.Errorf("actions on quarantined fleet: %v", d.Actions)
	}
	if d.Projected != 0 || !d.Fits {
		t.Errorf("decision = %+v", d)
	}
}

// TestPlanQuarantinedNeverHostsNorMoves pins the quarantine rule: the
// unhealthy node is not evicted, receives no load, and its draw is not
// in the projection.
func TestPlanQuarantinedNeverHostsNorMoves(t *testing.T) {
	fleet := []NodeInfo{
		node("busy", 300, 6),
		{Name: "dead", Watts: 500, IdleWatts: 230, CapacityWatts: 320, FreeThreads: 8, Healthy: false},
		node("light", 240, 1),
	}
	d := Plan(fleet, cfg())
	if d.Projected != 300+240-230+0 { // light's dynamic lands on busy
		t.Errorf("projected = %v", d.Projected)
	}
	for _, a := range d.Actions {
		if a.Node == "dead" || a.Host == "dead" {
			t.Errorf("quarantined node used: %v", a)
		}
	}
}

// TestPlanBudgetBelowSingleNode: a budget below any single node's draw
// sheds down to MinNodes and honestly reports Fits=false — it never
// powers off the last node.
func TestPlanBudgetBelowSingleNode(t *testing.T) {
	fleet := []NodeInfo{node("a", 260, 8), node("b", 250, 8), node("c", 240, 8)}
	d := Plan(fleet, Config{BudgetWatts: 100, MigrationCostJ: 1000})
	if d.Fits {
		t.Error("impossible budget reported as fitting")
	}
	if len(d.Actions) != 2 {
		t.Fatalf("actions = %v", d.Actions)
	}
	// Largest first: a (260) then b (250); c survives as the last node.
	if d.Actions[0].Node != "a" || d.Actions[1].Node != "b" {
		t.Errorf("eviction order = %v", d.Actions)
	}
	for _, a := range d.Actions {
		if a.Node == "c" {
			t.Error("last node powered off")
		}
	}
	if d.Projected != 240 {
		t.Errorf("projected = %v", d.Projected)
	}
}

// TestPlanMinNodesInvariant: MinNodes>1 is honored by both phases.
func TestPlanMinNodesInvariant(t *testing.T) {
	fleet := []NodeInfo{node("a", 240, 1), node("b", 240, 1), node("c", 240, 1), node("d", 240, 1)}
	c := cfg()
	c.MinNodes = 3
	d := Plan(fleet, c)
	if got := len(d.Actions); got > 1 {
		t.Errorf("evicted %d nodes with MinNodes=3: %v", got, d.Actions)
	}
}

// TestPlanNeverOverloadSurvivors: a migration must fit the host's Watts
// headroom and free threads; when nothing fits and there is no budget
// pressure, the scheduler does nothing rather than overload.
func TestPlanNeverOverloadSurvivors(t *testing.T) {
	// Both nodes are near capacity: moving either's 80 W dynamic load
	// would push the other past 320 W.
	fleet := []NodeInfo{node("a", 310, 4), node("b", 310, 4)}
	d := Plan(fleet, cfg())
	if len(d.Actions) != 0 {
		t.Errorf("overloading actions: %v", d.Actions)
	}

	// Thread capacity binds too: light's load needs 6 threads but the
	// busier host has only 2 free.
	fleet = []NodeInfo{
		{Name: "host", Watts: 260, IdleWatts: 230, CapacityWatts: 320, UsedThreads: 6, FreeThreads: 2, Healthy: true},
		{Name: "light", Watts: 250, IdleWatts: 230, CapacityWatts: 320, UsedThreads: 6, FreeThreads: 2, Healthy: true},
	}
	d = Plan(fleet, cfg())
	if len(d.Actions) != 0 {
		t.Errorf("thread-overloading actions: %v", d.Actions)
	}
}

// TestPlanConsolidatePacksOntoBusiest: the busiest host that fits
// receives the load (one-by-one busiest-first placement), and the
// emptied node's idle floor is the saving.
func TestPlanConsolidatePacksOntoBusiest(t *testing.T) {
	fleet := []NodeInfo{
		node("big", 290, 4),   // busiest: should host
		node("mid", 260, 2),   // second host candidate
		node("tiny", 235, 1),  // 5 W dynamic: evicted first
		node("small", 240, 1), // 10 W dynamic: evicted second
	}
	d := Plan(fleet, cfg())
	if len(d.Actions) < 2 {
		t.Fatalf("actions = %v", d.Actions)
	}
	if d.Actions[0].Node != "tiny" || d.Actions[0].Host != "big" {
		t.Errorf("first action = %v, want tiny -> big", d.Actions[0])
	}
	if d.Actions[1].Node != "small" || d.Actions[1].Host != "big" {
		t.Errorf("second action = %v, want small -> big", d.Actions[1])
	}
	// Savings: one idle floor per eviction.
	wantSaved := 230.0 * float64(len(d.Actions))
	if math.Abs(d.SavedWatts-wantSaved) > 1e-9 {
		t.Errorf("saved = %v, want %v", d.SavedWatts, wantSaved)
	}
	if math.Abs(d.MigrationJ-1000*float64(len(d.Actions))) > 1e-9 {
		t.Errorf("migrationJ = %v", d.MigrationJ)
	}
}

// TestPlanMigrationCostGate: when the idle-floor saving cannot amortize
// the migration cost over the horizon, nothing moves.
func TestPlanMigrationCostGate(t *testing.T) {
	fleet := []NodeInfo{node("a", 290, 4), node("b", 235, 1)}
	c := cfg()
	c.MigrationCostJ = 230*300 + 1 // one Joule past what 230 W × 300 s recovers
	if d := Plan(fleet, c); len(d.Actions) != 0 {
		t.Errorf("unamortizable migration planned: %v", d.Actions)
	}
	c.MigrationCostJ = 230*300 - 1
	if d := Plan(fleet, c); len(d.Actions) != 1 {
		t.Errorf("amortizable migration not planned: %+v", Plan(fleet, c))
	}
}

// TestPlanTieBreakDeterminism: identical nodes tie on every comparison;
// the decision must pick earlier insertion order, every time, and two
// runs over the same input must be action-for-action identical.
func TestPlanTieBreakDeterminism(t *testing.T) {
	fleet := []NodeInfo{
		node("host-a", 280, 3),
		node("host-b", 280, 3), // ties host-a on watts: host-a must win
		node("idle-a", 230, 1),
		node("idle-b", 230, 1), // ties idle-a on dynamic: idle-a moves first
	}
	d1 := Plan(fleet, cfg())
	d2 := Plan(fleet, cfg())
	if !reflect.DeepEqual(d1, d2) {
		t.Fatalf("same input, different decisions:\n%+v\n%+v", d1, d2)
	}
	if len(d1.Actions) < 2 {
		t.Fatalf("actions = %v", d1.Actions)
	}
	if d1.Actions[0].Node != "idle-a" || d1.Actions[0].Host != "host-a" {
		t.Errorf("first action = %v, want idle-a -> host-a", d1.Actions[0])
	}
	if d1.Actions[1].Node != "idle-b" || d1.Actions[1].Host != "host-a" {
		t.Errorf("second action = %v, want idle-b -> host-a (still busiest)", d1.Actions[1])
	}
}

// TestPlanInputNotMutated: Plan is a pure function of its input.
func TestPlanInputNotMutated(t *testing.T) {
	fleet := []NodeInfo{node("a", 290, 4), node("b", 235, 1)}
	want := append([]NodeInfo(nil), fleet...)
	Plan(fleet, cfg())
	if !reflect.DeepEqual(fleet, want) {
		t.Errorf("input mutated: %+v", fleet)
	}
}

// TestPlanBudgetPrefersFinishingMigration: when saving one idle floor
// reaches the budget, the largest consumer is migrated (work preserved)
// rather than shed.
func TestPlanBudgetPrefersFinishingMigration(t *testing.T) {
	// Total 775; budget 560. Evicting "big" (285, 55 W dynamic) onto
	// "mid" fits (250+55=305 ≤ 320) and saves its 230 W floor: 545 ≤ 560.
	fleet := []NodeInfo{node("big", 285, 4), node("mid", 250, 2), node("low", 240, 1)}
	d := Plan(fleet, Config{BudgetWatts: 560, MigrationCostJ: 1e12, AmortizeSec: 1})
	if len(d.Actions) == 0 || d.Actions[0].Node != "big" || d.Actions[0].Host != "mid" {
		t.Fatalf("actions = %v", d.Actions)
	}
	if d.Actions[0].Reason != "budget" {
		t.Errorf("reason = %q", d.Actions[0].Reason)
	}
	if !d.Fits || d.Projected > 560 {
		t.Errorf("decision = %+v", d)
	}
	// The enormous migration cost gates only consolidation, not a
	// budget-mandated move: phase 1 must still act.
	if d.MigrationJ != 1e12 {
		t.Errorf("migrationJ = %v", d.MigrationJ)
	}
}

// TestPlanShedWhenNothingFits: under budget pressure with no feasible
// host, the node is shed unplaced — survivors are never overloaded to
// make a budget.
func TestPlanShedWhenNothingFits(t *testing.T) {
	fleet := []NodeInfo{node("a", 315, 8), node("b", 315, 8), node("c", 315, 8)}
	d := Plan(fleet, Config{BudgetWatts: 640})
	if len(d.Actions) != 1 {
		t.Fatalf("actions = %v", d.Actions)
	}
	a := d.Actions[0]
	if a.Host != "" || a.Node != "a" || a.DeltaWatts != 315 {
		t.Errorf("action = %+v, want shed of a's full 315 W", a)
	}
	if !d.Fits || d.Projected != 630 {
		t.Errorf("decision = %+v", d)
	}
}
