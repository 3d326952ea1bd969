package trickledown_test

import (
	"testing"

	"trickledown/internal/core"
)

// op builds the fixture of one benchmark and returns that benchmark's
// loop body.
type op func(testing.TB) func() error

// discard adapts an experiment that returns a result to an op.
func discard[T any](f func() (T, error)) op {
	return func(testing.TB) func() error {
		return func() error { _, err := f(); return err }
	}
}

// TestAllocationCeilings holds the steady-state allocs/op of each
// end-to-end benchmark under a ceiling: 1.2x the count measured when
// the ceiling was set, rounded down. The two per-sample rows are held
// at their exact count instead, where 1.2x would let one more
// allocation per sample through: Estimate at none (the production
// kernel extracts no metrics) and ExtractMetrics at none (it returns
// its feature row by value). Allocation counts do not depend on the
// host's speed, so the check is stable on shared machines where ns/op
// is not. The warm-up call AllocsPerRun makes first absorbs the shared
// runner's one-time dataset generation and training, so a row measures
// the repeated operation only. The simulated server-second has its own
// ceiling, TestStepAllocationBudget in internal/machine.
//
// Each row is named after its benchmark. To see where a row's
// allocations come from, profile that benchmark:
// go test -run '^$' -bench 'Table3$' -memprofile prof.mem .
func TestAllocationCeilings(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	r := runner()
	rack := func(workers int) op {
		return func(tb testing.TB) func() error {
			c := buildBenchRack(tb, benchEstimator(tb), workers)
			return func() error { return c.Run(rackBenchSimSec) }
		}
	}
	fleet := func(workers int) op {
		return func(tb testing.TB) func() error {
			c := buildBenchFleet(tb, benchEstimator(tb), fleetBenchNodes, workers)
			return func() error { return c.Run(fleetBenchSimSec) }
		}
	}
	rows := []struct {
		name    string
		ceiling float64 // allocs/op
		runs    int     // AllocsPerRun iterations after the warm-up call
		long    bool    // skipped in -short
		setup   op
	}{
		{"Table1", 126, 10, false, discard(r.Table1)},
		{"Table3", 213, 10, false, discard(r.Table3)},
		{"Table4", 154, 10, false, discard(r.Table4)},
		{"Figure5", 13, 10, false, discard(r.Figure5)},
		{"Cluster8Nodes/workers=1", 633, 5, false, rack(1)},
		{"Cluster8Nodes/workers=2", 643, 5, false, rack(2)},
		{"Cluster8Nodes/workers=4", 643, 5, false, rack(4)},
		{"Cluster8Nodes/workers=8", 643, 5, false, rack(8)},
		{"Estimate", 0, 100, false, func(tb testing.TB) func() error {
			est, s := benchEstimator(tb), benchSample(tb)
			return func() error { est.Estimate(s); return nil }
		}},
		{"ExtractMetrics", 0, 100, false, func(tb testing.TB) func() error {
			s := benchSample(tb)
			return func() error { core.ExtractMetrics(s); return nil }
		}},
		{"Train", 15, 10, false, func(tb testing.TB) func() error {
			ds := benchTrainSet(tb)
			return func() error { _, err := core.Train(core.MemBusSpec(), ds); return err }
		}},
		{"Fleet1kNodes/workers=4", 81361, 1, true, fleet(4)},
		{"Fleet1kNodes/workers=16", 81476, 1, true, fleet(16)},
		{"ClusterConstruct10k", 659826, 1, false, func(tb testing.TB) func() error {
			est := benchEstimator(tb)
			return func() error { buildBenchFleet(tb, est, 10000, 8); return nil }
		}},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			if row.long && testing.Short() {
				t.Skip("steps a 1,000-node fleet")
			}
			f := row.setup(t)
			var err error
			got := testing.AllocsPerRun(row.runs, func() {
				if e := f(); e != nil {
					err = e
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("%.0f allocs/op (ceiling %.0f)", got, row.ceiling)
			if got > row.ceiling {
				t.Errorf("%.0f allocs/op exceeds the ceiling of %.0f", got, row.ceiling)
			}
		})
	}
}
