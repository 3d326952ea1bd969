package cluster

import (
	"context"
	"errors"
	"math"
	"testing"

	"trickledown/internal/core"
	"trickledown/internal/machine"
	"trickledown/internal/sched"
	"trickledown/internal/telemetry"
)

// testEstimator trains a small estimator once for the package's tests.
var testEst *core.Estimator

func estimator(t *testing.T) *core.Estimator {
	t.Helper()
	if testEst != nil {
		return testEst
	}
	gcc, err := machine.RunWorkload("gcc", 150, 1)
	if err != nil {
		t.Fatal(err)
	}
	mcf, err := machine.RunWorkload("mcf", 150, 2)
	if err != nil {
		t.Fatal(err)
	}
	dl, err := machine.RunWorkload("diskload", 120, 3)
	if err != nil {
		t.Fatal(err)
	}
	est, err := core.TrainEstimator(core.TrainingSet{
		CPU: gcc, Memory: mcf, Disk: dl, IO: dl, Chipset: gcc,
	})
	if err != nil {
		t.Fatal(err)
	}
	testEst = est
	return est
}

func TestClusterLifecycle(t *testing.T) {
	c, err := New(estimator(t))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.AddHomogeneous("busy", "mesa", 10); err != nil {
		t.Fatal(err)
	}
	if _, err := c.AddHomogeneous("spare", "idle", 11); err != nil {
		t.Fatal(err)
	}
	sharedCfg := machine.DefaultConfig()
	sharedCfg.Seed = 12
	if _, err := c.AddMixedConfig("shared", sharedCfg, []machine.Placement{
		{Workload: "gcc", Thread: 0},
		{Workload: "dbt-2", Thread: 2},
	}); err != nil {
		t.Fatal(err)
	}
	if len(c.Nodes()) != 3 {
		t.Fatalf("nodes = %d", len(c.Nodes()))
	}
	if err := c.Run(40); err != nil {
		t.Fatal(err)
	}
	snap, total, err := c.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if len(snap) != 3 {
		t.Fatalf("snapshot = %v", snap)
	}
	var sum float64
	for _, e := range snap {
		if e.Watts < 100 || e.Watts > 320 {
			t.Errorf("node %s estimate %v implausible", e.Name, e.Watts)
		}
		sum += e.Watts
	}
	if math.Abs(sum-total) > 1e-9 {
		t.Errorf("total %v != sum %v", total, sum)
	}
	// The busy node out-draws the spare.
	byName := map[string]float64{}
	for _, e := range snap {
		byName[e.Name] = e.Watts
	}
	if byName["busy"] <= byName["spare"] {
		t.Errorf("busy %v <= spare %v", byName["busy"], byName["spare"])
	}
	// The sensorless estimates verify against the hidden rails.
	acc, err := c.VerifyAccuracy()
	if err != nil {
		t.Fatal(err)
	}
	if acc > 3 {
		t.Errorf("cluster accuracy = %.2f%%", acc)
	}
}

func TestClusterErrors(t *testing.T) {
	if _, err := New(nil); err == nil {
		t.Error("nil estimator accepted")
	}
	c, err := New(estimator(t))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.AddHomogeneous("", "idle", 1); err == nil {
		t.Error("empty name accepted")
	}
	if _, err := c.AddHomogeneous("a", "nope", 1); err == nil {
		t.Error("unknown workload accepted")
	}
	if _, err := c.AddHomogeneous("a", "idle", 1); err != nil {
		t.Fatal(err)
	}
	if _, err := c.AddHomogeneous("a", "idle", 2); err == nil {
		t.Error("duplicate name accepted")
	}
	if _, err := c.AddMixedConfig("b", machine.DefaultConfig(), nil); err == nil {
		t.Error("empty placements accepted")
	}
	// Snapshot before any run fails with ErrNoSamples.
	if _, _, err := c.Snapshot(); !errors.Is(err, ErrNoSamples) {
		t.Errorf("Snapshot err = %v", err)
	}
	n := c.Nodes()[0]
	if _, err := n.EstimatedMean(); !errors.Is(err, ErrNoSamples) {
		t.Error("EstimatedMean before run should fail")
	}
	if _, err := n.MeasuredMean(); !errors.Is(err, ErrNoSamples) {
		t.Error("MeasuredMean before run should fail")
	}
	if _, err := c.VerifyAccuracy(); err == nil {
		t.Error("VerifyAccuracy before run should fail")
	}
}

// TestPlanConsolidationFewestEvictions is the regression test for the
// eviction policy over a cluster's estimates: sched.Plan evicting the
// largest consumer first reaches the budget with fewer powered-down
// nodes than any cheapest-first plan, while the never-evict-the-last-
// node invariant holds.
func TestPlanConsolidationFewestEvictions(t *testing.T) {
	est := []Estimate{
		{Name: "a", Watts: 250},
		{Name: "b", Watts: 150},
		{Name: "c", Watts: 140},
		{Name: "d", Watts: 260},
	}
	info := make([]sched.NodeInfo, len(est))
	for i, e := range est {
		info[i] = sched.NodeInfo{Name: e.Name, Watts: e.Watts, Healthy: true}
	}
	// Budget 550 from a total of 800: one largest eviction (d, 260)
	// suffices; cheapest-first would have powered down two nodes
	// (c then b) to shed the same 250+ Watts.
	d := sched.Plan(info, sched.Config{BudgetWatts: 550})
	if !d.Fits {
		t.Fatalf("decision = %+v", d)
	}
	if len(d.Actions) != 1 || d.Actions[0].Node != "d" {
		t.Errorf("actions = %v, want exactly [d]", d.Actions)
	}
	if math.Abs(d.Projected-540) > 1e-9 {
		t.Errorf("projected = %v", d.Projected)
	}
	// Every infeasible budget stops one node short of emptying the
	// cluster, and the survivor is the smallest consumer. (A zero
	// budget means no budget to sched.Plan, so the smallest is 1 W.)
	for _, budget := range []float64{1, 10, 100} {
		d := sched.Plan(info, sched.Config{BudgetWatts: budget})
		if d.Fits {
			t.Errorf("budget %v reported as fitting", budget)
		}
		if len(d.Actions) != len(est)-1 {
			t.Errorf("budget %v: evicted %d nodes, want %d", budget, len(d.Actions), len(est)-1)
		}
		for _, a := range d.Actions {
			if a.Node == "c" {
				t.Errorf("budget %v: evicted the smallest consumer %q before the rest", budget, a.Node)
			}
		}
		if math.Abs(d.Projected-140) > 1e-9 {
			t.Errorf("budget %v: projected = %v, want the last node's 140", budget, d.Projected)
		}
	}
}

// buildTestCluster assembles a small heterogeneous cluster with fixed
// seeds and the given worker bound.
func buildTestCluster(t *testing.T, workers int) *Cluster {
	t.Helper()
	c, err := New(estimator(t))
	if err != nil {
		t.Fatal(err)
	}
	c.SetWorkers(workers)
	for i, n := range []struct{ name, wl string }{
		{"n0", "gcc"}, {"n1", "idle"}, {"n2", "mesa"}, {"n3", "dbt-2"},
	} {
		if _, err := c.AddHomogeneous(n.name, n.wl, uint64(40+i)); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

// TestClusterRunDeterministic checks the tentpole guarantee: the
// parallel path produces bit-for-bit the same Snapshot and
// VerifyAccuracy results as the serial (one-worker) path, because each
// node is an independent seeded simulation folded under per-node state.
func TestClusterRunDeterministic(t *testing.T) {
	serial := buildTestCluster(t, 1)
	parallel := buildTestCluster(t, 8)
	if serial.workers != 1 || parallel.workers != 8 {
		t.Fatalf("workers = %d, %d", serial.workers, parallel.workers)
	}
	// Two increments so the fold-resume path is covered too.
	for _, c := range []*Cluster{serial, parallel} {
		if err := c.Run(20); err != nil {
			t.Fatal(err)
		}
		if err := c.Run(15); err != nil {
			t.Fatal(err)
		}
	}
	snapS, totalS, err := serial.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	snapP, totalP, err := parallel.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if totalS != totalP {
		t.Errorf("totals differ: serial %v, parallel %v", totalS, totalP)
	}
	for i := range snapS {
		if snapS[i] != snapP[i] {
			t.Errorf("node %d: serial %+v != parallel %+v", i, snapS[i], snapP[i])
		}
	}
	accS, err := serial.VerifyAccuracy()
	if err != nil {
		t.Fatal(err)
	}
	accP, err := parallel.VerifyAccuracy()
	if err != nil {
		t.Fatal(err)
	}
	if accS != accP {
		t.Errorf("accuracy differs: serial %v, parallel %v", accS, accP)
	}
}

// TestClusterRunParallelRace exercises parallel node stepping with
// concurrent snapshot readers; it is meaningful under -race.
func TestClusterRunParallelRace(t *testing.T) {
	c := buildTestCluster(t, 4)
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
			}
			// Readers racing the folding workers: means are either
			// ErrNoSamples or a consistent folded state.
			for _, n := range c.Nodes() {
				if _, err := n.EstimatedMean(); err != nil && !errors.Is(err, ErrNoSamples) {
					t.Error(err)
					return
				}
			}
			if _, err := c.VerifyAccuracy(); err != nil && !errors.Is(err, ErrNoSamples) {
				t.Error(err)
				return
			}
		}
	}()
	if err := c.Run(20); err != nil {
		t.Fatal(err)
	}
	close(stop)
	<-done
	if _, _, err := c.Snapshot(); err != nil {
		t.Fatal(err)
	}
}

// TestClusterRunCancel checks RunContext's cancellation semantics: the
// aggregate error reports context.Canceled and the partially stepped
// nodes keep their folded samples.
func TestClusterRunCancel(t *testing.T) {
	c := buildTestCluster(t, 2)
	if err := c.Run(5); err != nil {
		t.Fatal(err)
	}
	_, totalBefore, err := c.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := c.RunContext(ctx, 30); !errors.Is(err, context.Canceled) {
		t.Fatalf("RunContext err = %v, want context.Canceled", err)
	}
	// The pre-cancellation samples are still there and readable.
	_, totalAfter, err := c.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if totalAfter < totalBefore*0.5 {
		t.Errorf("samples lost on cancellation: %v -> %v", totalBefore, totalAfter)
	}
}

func TestClusterRunIncremental(t *testing.T) {
	c, err := New(estimator(t))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.AddHomogeneous("n", "idle", 5); err != nil {
		t.Fatal(err)
	}
	if err := c.Run(10); err != nil {
		t.Fatal(err)
	}
	n1 := c.Nodes()[0].n
	if err := c.Run(10); err != nil {
		t.Fatal(err)
	}
	n2 := c.Nodes()[0].n
	if n2 <= n1 {
		t.Errorf("samples did not accumulate: %d -> %d", n1, n2)
	}
	if n2 > 25 {
		t.Errorf("samples double counted: %d", n2)
	}
}

// TestTelemetryCrossLayer checks that one cluster run moves counters in
// every instrumented layer below it — sim slices, pool scheduling,
// cluster folds and DAQ acquisition — which is exactly what a /metrics
// scrape during a run relies on.
func TestTelemetryCrossLayer(t *testing.T) {
	c, err := New(estimator(t))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.AddHomogeneous("n0", "gcc", 42); err != nil {
		t.Fatal(err)
	}
	before := telemetry.Snapshot()
	if err := c.Run(3); err != nil {
		t.Fatal(err)
	}
	after := telemetry.Snapshot()
	for _, name := range []string{
		"sim_slices_total",
		"sim_seconds_total",
		"sim_component_steps_total",
		"pool_tasks_completed_total",
		"pool_queue_wait_seconds_count",
		"pool_task_duration_seconds_count",
		"cluster_node_runs_total",
		"cluster_node_sim_seconds_total",
		"cluster_samples_folded_total",
		"cluster_fold_seconds_count",
		"daq_samples_total",
		"daq_windows_total",
		`spans_started_total{span="cluster.run"}`,
	} {
		if after[name] <= before[name] {
			t.Errorf("%s did not advance: before %g, after %g", name, before[name], after[name])
		}
	}
	if after["sim_engines_running"] != before["sim_engines_running"] {
		t.Errorf("sim_engines_running leaked: before %g, after %g",
			before["sim_engines_running"], after["sim_engines_running"])
	}
}
