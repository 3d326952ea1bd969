package machine

import "testing"

// newIdleNode returns a warm fleet node: one processor with two
// threads and one disk, the idle workload on thread 0 and nothing on
// thread 1, past its first sample.
func newIdleNode(tb testing.TB) *Server {
	tb.Helper()
	cfg := DefaultConfig()
	cfg.NumCPUs, cfg.ThreadsPerCPU, cfg.NumDisks = 1, 2, 1
	srv, err := NewMixed(cfg, []Placement{{Workload: "idle", Thread: 0}})
	if err != nil {
		tb.Fatal(err)
	}
	srv.Run(5)
	return srv
}

// BenchmarkIdleNodeSecond measures one simulated second (1000 slices)
// of the fleet's idle 1x2 node, the stepping path a mostly idle fleet
// spends its time in. BenchmarkSimulationSecond in the root package is
// the busy 4x2 server.
func BenchmarkIdleNodeSecond(b *testing.B) {
	srv := newIdleNode(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		srv.Run(1)
	}
}
