package cluster

import (
	"fmt"
	"testing"

	"trickledown/internal/machine"
	"trickledown/internal/sim"
	"trickledown/internal/workload"
)

// cohortCluster builds a 16-node fleet where every node hosts its own
// 4-tenant cohort (one Cohort instance per node — the cohort's
// interference state is shared by the tenants of one machine, which is
// stepped by exactly one pool worker at a time).
func cohortCluster(t *testing.T, workers int) *Cluster {
	t.Helper()
	c, err := New(estimator(t))
	if err != nil {
		t.Fatal(err)
	}
	c.SetWorkers(workers)
	tenants := []string{"gcc", "mcf", "dbt-2", "mesa"}
	for node := 0; node < 16; node++ {
		co := workload.NewCohort()
		// Construction randomness comes from a per-node seed, so every
		// worker count builds bit-identical tenants.
		mkRNG := sim.NewRNG(uint64(5000 + node))
		for ti, wl := range tenants {
			spec, err := workload.ByName(wl)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := co.Add(fmt.Sprintf("%s-%d", wl, ti), spec.Make(ti, mkRNG.Split())); err != nil {
				t.Fatal(err)
			}
		}
		spec, err := co.Spec(fmt.Sprintf("cohort-%d", node))
		if err != nil {
			t.Fatal(err)
		}
		cfg := machine.DefaultConfig()
		cfg.NumCPUs = 2
		cfg.ThreadsPerCPU = 2
		cfg.NumDisks = 1
		cfg.Seed = uint64(1000 + node)
		placements := make([]machine.Placement, len(tenants))
		for ti := range tenants {
			placements[ti] = machine.Placement{Thread: ti, Spec: &spec}
		}
		if _, err := c.AddMixedConfig(fmt.Sprintf("node-%02d", node), cfg, placements); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

// TestCohortClusterBitIdenticalAcrossWorkers steps cohort-hosting nodes
// from cluster shards at several worker counts and requires bit-equal
// snapshots — the shared interference state must never leak across the
// shard boundary. Run under -race in CI.
func TestCohortClusterBitIdenticalAcrossWorkers(t *testing.T) {
	type result struct {
		est   []Estimate
		total float64
	}
	run := func(workers int) result {
		c := cohortCluster(t, workers)
		for i := 0; i < 3; i++ {
			if err := c.Run(4); err != nil {
				t.Fatal(err)
			}
		}
		est, total, err := c.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		return result{est: est, total: total}
	}
	base := run(1)
	if len(base.est) != 16 {
		t.Fatalf("snapshot has %d nodes", len(base.est))
	}
	for _, workers := range []int{4, 16} {
		got := run(workers)
		if got.total != base.total {
			t.Errorf("workers=%d: fleet total %v != %v at workers=1", workers, got.total, base.total)
		}
		for i := range base.est {
			if got.est[i] != base.est[i] {
				t.Errorf("workers=%d: node %s reads %v, workers=1 read %v",
					workers, got.est[i].Name, got.est[i].Watts, base.est[i].Watts)
			}
		}
	}
}

// TestCohortNodeWindowMean pins the WindowMean contract on a cohort
// node: an error before the first fold, then a positive per-interval
// mean that updates run over run alongside the cumulative mean.
func TestCohortNodeWindowMean(t *testing.T) {
	c := cohortCluster(t, 2)
	node, ok := c.Lookup("node-00")
	if !ok {
		t.Fatal("node-00 missing")
	}
	if _, err := node.WindowMean(); err == nil {
		t.Fatal("WindowMean before any fold should fail")
	}
	if err := c.Run(4); err != nil {
		t.Fatal(err)
	}
	w1, err := node.WindowMean()
	if err != nil {
		t.Fatal(err)
	}
	if w1 <= 0 {
		t.Fatalf("window mean %v", w1)
	}
	if err := c.Run(4); err != nil {
		t.Fatal(err)
	}
	w2, err := node.WindowMean()
	if err != nil {
		t.Fatal(err)
	}
	em, err := node.EstimatedMean()
	if err != nil {
		t.Fatal(err)
	}
	if w2 <= 0 || em <= 0 {
		t.Fatalf("window %v cumulative %v", w2, em)
	}
}
