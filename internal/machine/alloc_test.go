package machine

import (
	"testing"
)

// TestStepAllocationBudget pins the hot path's allocation behaviour:
// stepping a warmed-up server must not allocate per slice. Each row
// measures one simulated second (1000 slices plus one 1 Hz counter
// sample and DAQ window); one allocation per slice would cost a
// thousand.
func TestStepAllocationBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates minutes of machine time")
	}
	cases := []struct {
		name   string
		server func(*testing.T) *Server
		// budget is the row's allocation ceiling per simulated second.
		budget float64
	}{
		{
			// The 4-way gcc server BenchmarkSimulationSecond times. The
			// steady state costs 13 allocations (the sampler's
			// per-sample busy/interrupt snapshots and log appends); the
			// budget is 1.2x that, rounded down.
			name: "gcc-4x2",
			server: func(t *testing.T) *Server {
				srv, err := New(DefaultConfig(), mustSpec(t, "gcc"))
				if err != nil {
					t.Fatal(err)
				}
				// Pass the staggered start-up and dataset-load
				// transients so the measurement sees the sustained
				// regime.
				srv.Run(240)
				return srv
			},
			budget: 15,
		},
		{
			// The fleet's idle 1x2 node BenchmarkIdleNodeSecond times,
			// held at its exact steady-state count.
			name:   "idle-1x2",
			server: func(t *testing.T) *Server { return newIdleNode(t) },
			budget: 13,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			srv := tc.server(t)
			avg := testing.AllocsPerRun(5, func() {
				srv.Run(1)
			})
			if avg > tc.budget {
				t.Errorf("one simulated second allocates %.0f times, budget %.0f", avg, tc.budget)
			}
		})
	}
}
