package sched

import (
	"math"
	"reflect"
	"testing"
)

func onNode(name string, watts, cap float64, free int) NodeInfo {
	return NodeInfo{
		Name: name, Watts: watts, IdleWatts: watts / 2,
		CapacityWatts: cap, FreeThreads: free, Healthy: true,
	}
}

func offNode(name string, idle, cap float64, free int) OffNode {
	return OffNode{Name: name, IdleWatts: idle, CapacityWatts: cap, FreeThreads: free}
}

func TestPlanExpansionWakesUntilTarget(t *testing.T) {
	on := []NodeInfo{
		onNode("a", 90, 100, 0),
		onNode("b", 85, 100, 0),
	}
	off := []OffNode{
		offNode("c", 20, 100, 2),
		offNode("d", 20, 100, 2),
		offNode("e", 20, 100, 2),
	}
	e := PlanExpansion(on, off, ExpandConfig{TargetUtil: 0.75})
	// util starts at 175/200 = 0.875; waking c gives 195/300 = 0.65.
	if !reflect.DeepEqual(e.PowerOn, []string{"c"}) {
		t.Fatalf("PowerOn = %v", e.PowerOn)
	}
	if math.Abs(e.UtilBefore-0.875) > 1e-12 || math.Abs(e.UtilAfter-0.65) > 1e-12 {
		t.Fatalf("util %v -> %v", e.UtilBefore, e.UtilAfter)
	}
	if e.AddedWatts != 20 || e.FreeAfter != 2 {
		t.Fatalf("added %v free %d", e.AddedWatts, e.FreeAfter)
	}
}

func TestPlanExpansionNoNeed(t *testing.T) {
	on := []NodeInfo{onNode("a", 40, 100, 4)}
	off := []OffNode{offNode("b", 20, 100, 2)}
	e := PlanExpansion(on, off, ExpandConfig{TargetUtil: 0.75})
	if len(e.PowerOn) != 0 {
		t.Fatalf("unnecessary expansion: %v", e.PowerOn)
	}
	if got := e.Summary(); got != "no expansion (util 0.40, 4 free threads)" {
		t.Fatalf("summary %q", got)
	}
}

func TestPlanExpansionExhaustsPoolAndCaps(t *testing.T) {
	on := []NodeInfo{onNode("a", 99, 100, 0)}
	off := []OffNode{
		offNode("b", 50, 60, 2),
		offNode("c", 50, 60, 2),
		offNode("d", 50, 60, 2),
	}
	// Even waking everything cannot reach 0.5; the plan wakes the whole
	// pool in order.
	e := PlanExpansion(on, off, ExpandConfig{TargetUtil: 0.5})
	if !reflect.DeepEqual(e.PowerOn, []string{"b", "c", "d"}) {
		t.Fatalf("PowerOn = %v", e.PowerOn)
	}
}

func TestPlanExpansionEdgeCases(t *testing.T) {
	// No powered-on capacity at all but positive draw: infinite util,
	// wake something.
	e := PlanExpansion(nil, []OffNode{offNode("b", 20, 100, 2)}, ExpandConfig{})
	if len(e.PowerOn) != 0 {
		// zero watts and zero capacity → util 0 → nothing to do
		t.Fatalf("empty fleet woke %v", e.PowerOn)
	}
	// Unhealthy nodes are invisible.
	on := []NodeInfo{
		{Name: "sick", Watts: 1000, CapacityWatts: 100, Healthy: false},
		onNode("a", 10, 100, 2),
	}
	e = PlanExpansion(on, nil, ExpandConfig{})
	if e.UtilBefore != 0.1 {
		t.Fatalf("unhealthy node counted: util %v", e.UtilBefore)
	}
	// A useless off-node (no capacity, with or without threads) is
	// skipped: waking it would add its idle draw and no capacity.
	off := []OffNode{
		{Name: "husk"},
		{Name: "threads-only", IdleWatts: 20, FreeThreads: 2},
		offNode("b", 20, 100, 2),
	}
	e = PlanExpansion([]NodeInfo{onNode("a", 95, 100, 0)}, off, ExpandConfig{TargetUtil: 0.75})
	if !reflect.DeepEqual(e.PowerOn, []string{"b"}) {
		t.Fatalf("PowerOn = %v", e.PowerOn)
	}
	// Deterministic: same inputs, same decision.
	e2 := PlanExpansion([]NodeInfo{onNode("a", 95, 100, 0)}, off, ExpandConfig{TargetUtil: 0.75})
	if !reflect.DeepEqual(e, e2) {
		t.Fatal("expansion not deterministic")
	}
}
