package cluster

import (
	"errors"
	"reflect"
	"testing"
	"time"

	"trickledown/internal/faults"
	"trickledown/internal/pool"
	"trickledown/internal/power"
	"trickledown/internal/sched"
)

// chaosWorkloads gives the 16-node drill a heterogeneous mix.
var chaosWorkloads = []string{"gcc", "mcf", "mesa", "idle", "dbt-2", "diskload"}

func build16(t *testing.T) *Cluster {
	t.Helper()
	c, err := New(estimator(t))
	if err != nil {
		t.Fatal(err)
	}
	c.SetWorkers(8)
	names := []string{
		"node00", "node01", "node02", "node03", "node04", "node05", "node06", "node07",
		"node08", "node09", "node10", "node11", "node12", "node13", "node14", "node15",
	}
	for i, name := range names {
		if _, err := c.AddHomogeneous(name, chaosWorkloads[i%len(chaosWorkloads)], uint64(100+i)); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

// chaosPlan crashes two nodes mid-run and gives a third a flaky DAQ
// memory channel — the drill from the issue.
func chaosPlan() *faults.Plan {
	return &faults.Plan{Seed: 2024, Specs: []faults.Spec{
		{Kind: faults.NodeCrash, Node: "node03", Start: 8},
		{Kind: faults.NodeCrash, Node: "node11", Start: 15},
		{Kind: faults.DAQDropout, Node: "node05", Channel: power.SubMemory, Start: 5, Duration: 2},
	}}
}

// TestClusterSurvivesChaos is the tentpole scenario: a 16-node run with
// two injected crashes and a flaky sensor channel finishes with exactly
// the crashed nodes quarantined, the flaky node repaired and reported as
// degraded, and surviving-node accuracy within 2x the fault-free twin.
func TestClusterSurvivesChaos(t *testing.T) {
	clean := build16(t)
	chaos := build16(t)
	if n, err := chaos.InjectFaults(chaosPlan()); err != nil || n != 3 {
		t.Fatalf("InjectFaults = %d, %v", n, err)
	}

	if err := clean.Run(30); err != nil {
		t.Fatal(err)
	}
	err := chaos.Run(30)
	if !errors.Is(err, ErrNodeFailed) || !errors.Is(err, faults.ErrInjectedCrash) {
		t.Fatalf("chaos Run err = %v, want ErrNodeFailed wrapping ErrInjectedCrash", err)
	}

	wantQ := []string{"node03", "node11"}
	if got := chaos.Quarantined(); !reflect.DeepEqual(got, wantQ) {
		t.Fatalf("quarantined = %v, want %v", got, wantQ)
	}
	cov := chaos.Coverage()
	if cov.Total != 16 || cov.Healthy != 14 {
		t.Errorf("coverage = %+v", cov)
	}
	if !reflect.DeepEqual(cov.Degraded, []string{"node05"}) {
		t.Errorf("degraded = %v, want the flaky-DAQ node", cov.Degraded)
	}
	if cov.Full() {
		t.Error("Coverage.Full() on a degraded cluster")
	}

	// Quarantined nodes answer with the typed failure; healthy ones don't.
	for _, n := range chaos.Nodes() {
		_, err := n.EstimatedMean()
		switch n.Name {
		case "node03", "node11":
			if !errors.Is(err, ErrNodeFailed) {
				t.Errorf("%s: err = %v, want ErrNodeFailed", n.Name, err)
			}
		default:
			if err != nil {
				t.Errorf("%s: %v", n.Name, err)
			}
		}
	}

	// Snapshot covers the 14 survivors; the flaky node's repaired trace
	// keeps estimation accuracy within 2x the fault-free twin.
	snap, _, err := chaos.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if len(snap) != 14 {
		t.Fatalf("snapshot covers %d nodes, want 14", len(snap))
	}
	accClean, err := clean.VerifyAccuracy()
	if err != nil {
		t.Fatal(err)
	}
	accChaos, err := chaos.VerifyAccuracy()
	if err != nil {
		t.Fatal(err)
	}
	if accChaos > 2*accClean+0.25 {
		t.Errorf("chaos accuracy %.3f%% vs fault-free %.3f%%: degraded beyond 2x", accChaos, accClean)
	}

	// A later run skips the dead nodes instead of failing again, and the
	// consolidation planner still works over the survivors.
	if err := chaos.Run(5); err != nil {
		t.Fatalf("second run re-reported quarantined nodes: %v", err)
	}
	snap, total, err := chaos.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	info := make([]sched.NodeInfo, len(snap))
	for i, e := range snap {
		info[i] = sched.NodeInfo{Name: e.Name, Watts: e.Watts, Healthy: true}
	}
	if d := sched.Plan(info, sched.Config{BudgetWatts: total * 0.8}); !d.Fits || len(d.Actions) == 0 {
		t.Errorf("consolidation over survivors = %+v", d)
	}
}

// TestChaosDeterministic repeats the drill and demands bit-identical
// results: same plan, same seeds, same quarantine set, same totals.
func TestChaosDeterministic(t *testing.T) {
	run := func() ([]Estimate, float64, []string) {
		c := build16(t)
		if _, err := c.InjectFaults(chaosPlan()); err != nil {
			t.Fatal(err)
		}
		_ = c.Run(25)
		snap, total, err := c.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		return snap, total, c.Quarantined()
	}
	snapA, totalA, qA := run()
	snapB, totalB, qB := run()
	if totalA != totalB {
		t.Errorf("totals diverged: %v vs %v", totalA, totalB)
	}
	if !reflect.DeepEqual(snapA, snapB) {
		t.Error("snapshots diverged across identical chaos runs")
	}
	if !reflect.DeepEqual(qA, qB) {
		t.Errorf("quarantine sets diverged: %v vs %v", qA, qB)
	}
}

// TestWorkerPanicQuarantinesOneNode injects a panic into one node's
// stepping worker: it must come back as a recovered *pool.PanicError on
// that node only, with every other node's step unharmed.
func TestWorkerPanicQuarantinesOneNode(t *testing.T) {
	c := build16(t)
	plan := &faults.Plan{Seed: 7, Specs: []faults.Spec{
		{Kind: faults.WorkerPanic, Node: "node09", Start: 3},
	}}
	if _, err := c.InjectFaults(plan); err != nil {
		t.Fatal(err)
	}
	err := c.Run(10)
	if !errors.Is(err, ErrNodeFailed) {
		t.Fatalf("err = %v, want ErrNodeFailed", err)
	}
	var pe *pool.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want a recovered *pool.PanicError", err)
	}
	if len(pe.Stack) == 0 {
		t.Error("recovered panic lost its stack")
	}
	if got := c.Quarantined(); !reflect.DeepEqual(got, []string{"node09"}) {
		t.Fatalf("quarantined = %v", got)
	}
	if cov := c.Coverage(); cov.Healthy != 15 {
		t.Errorf("coverage = %+v", cov)
	}
	if _, _, err := c.Snapshot(); err != nil {
		t.Errorf("snapshot after panic: %v", err)
	}
}

// TestRetryDoesNotMaskPermanentFailure: retries re-step the node, folding
// stays idempotent, and a crashed machine is still quarantined once the
// attempts are spent.
func TestRetryDoesNotMaskPermanentFailure(t *testing.T) {
	c := build16(t)
	c.SetRetry(pool.Retry{Attempts: 3, BaseDelay: time.Microsecond, MaxDelay: time.Millisecond})
	plan := &faults.Plan{Seed: 1, Specs: []faults.Spec{
		{Kind: faults.NodeCrash, Node: "node02", Start: 4},
	}}
	if _, err := c.InjectFaults(plan); err != nil {
		t.Fatal(err)
	}
	if err := c.Run(12); !errors.Is(err, faults.ErrInjectedCrash) {
		t.Fatalf("err = %v", err)
	}
	if got := c.Quarantined(); !reflect.DeepEqual(got, []string{"node02"}) {
		t.Fatalf("quarantined = %v", got)
	}
	// Retried healthy nodes did not double-fold: 12 s of 1 Hz samples
	// yields at most 12 rows per node.
	for _, n := range c.Nodes() {
		if n.Err() != nil {
			continue
		}
		n.mu.Lock()
		count := n.n
		n.mu.Unlock()
		if count > 12 {
			t.Errorf("%s folded %d samples from a 12s run", n.Name, count)
		}
	}
}

// TestInjectFaultsRejectsBadPlan covers the validation path.
func TestInjectFaultsRejectsBadPlan(t *testing.T) {
	c := build16(t)
	if _, err := c.InjectFaults(nil); err == nil {
		t.Error("nil plan accepted")
	}
	bad := &faults.Plan{Specs: []faults.Spec{{Kind: faults.Kind(42)}}}
	if _, err := c.InjectFaults(bad); err == nil {
		t.Error("invalid plan accepted")
	}
}
