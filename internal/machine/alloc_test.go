package machine

import (
	"testing"
)

// stepAllocBudget is the allocation ceiling for one simulated second
// (1000 slices plus one 1 Hz counter sample and DAQ window) of a warm
// 4-way server, the operation BenchmarkSimulationSecond times. The
// steady state costs 13 allocations — the sampler's per-sample
// busy/interrupt snapshots and log appends — and the budget is 1.2x
// that, rounded down: one allocation per slice would cost a thousand.
const stepAllocBudget = 15

// TestStepAllocationBudget pins the hot path's allocation behaviour:
// stepping a warmed-up server must not allocate per slice.
func TestStepAllocationBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates minutes of machine time")
	}
	spec := mustSpec(t, "gcc")
	srv, err := New(DefaultConfig(), spec)
	if err != nil {
		t.Fatal(err)
	}
	// Pass the staggered start-up and dataset-load transients so the
	// measurement sees the sustained regime.
	srv.Run(240)
	avg := testing.AllocsPerRun(5, func() {
		srv.Run(1)
	})
	if avg > stepAllocBudget {
		t.Errorf("one simulated second allocates %.0f times, budget %d", avg, stepAllocBudget)
	}
}
