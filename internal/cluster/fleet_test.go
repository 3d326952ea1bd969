package cluster

import (
	"context"
	"errors"
	"sync"
	"testing"

	"trickledown/internal/machine"
)

// lightConfig is a small-generation box (1 CPU × 2 threads, one disk) —
// cheap enough to step in fleet-sized test populations.
func lightConfig(seed uint64) machine.Config {
	cfg := machine.DefaultConfig()
	cfg.NumCPUs = 1
	cfg.ThreadsPerCPU = 2
	cfg.NumDisks = 1
	cfg.Seed = seed
	return cfg
}

// fleetWorkloads cycles single-instance placements across the fleet so
// shards hold genuinely mixed-cost nodes.
var fleetWorkloads = []string{"gcc", "mcf", "mesa", "vortex"}

// buildFleet assembles n light mixed-config nodes with fixed seeds.
func buildFleet(t testing.TB, workers, n int) *Cluster {
	t.Helper()
	c, err := New(estimator(t.(*testing.T)))
	if err != nil {
		t.Fatal(err)
	}
	c.SetWorkers(workers)
	for i := 0; i < n; i++ {
		name := nodeName(i)
		wl := fleetWorkloads[i%len(fleetWorkloads)]
		if _, err := c.AddMixedConfig(name, lightConfig(uint64(1000+i)), []machine.Placement{
			{Workload: wl, Thread: i % 2},
		}); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

func nodeName(i int) string {
	// Stable zero-padded names keep insertion order and lexical order
	// aligned, which makes failures easy to read.
	const digits = "0123456789"
	return "fleet-" + string([]byte{
		digits[i/1000%10], digits[i/100%10], digits[i/10%10], digits[i%10],
	})
}

// TestShardedDeterminismAcrossWorkers is the fleet-scale extension of
// TestClusterRunDeterministic: with more nodes than shards and shard
// counts that do not divide the fleet evenly, Snapshot and
// VerifyAccuracy must stay bit-for-bit identical at every worker count.
func TestShardedDeterminismAcrossWorkers(t *testing.T) {
	const nodes = 26 // deliberately not a multiple of any shard count
	ref := buildFleet(t, 1, nodes)
	if err := ref.Run(4); err != nil {
		t.Fatal(err)
	}
	if err := ref.Run(3); err != nil { // cover the fold-resume path
		t.Fatal(err)
	}
	refSnap, refTotal, err := ref.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	refAcc, err := ref.VerifyAccuracy()
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 3, 7, 16} {
		c := buildFleet(t, workers, nodes)
		if err := c.Run(4); err != nil {
			t.Fatal(err)
		}
		if err := c.Run(3); err != nil {
			t.Fatal(err)
		}
		snap, total, err := c.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if total != refTotal {
			t.Errorf("workers=%d: total %v != serial %v", workers, total, refTotal)
		}
		for i := range refSnap {
			if snap[i] != refSnap[i] {
				t.Errorf("workers=%d node %d: %+v != serial %+v", workers, i, snap[i], refSnap[i])
			}
		}
		if acc, err := c.VerifyAccuracy(); err != nil || acc != refAcc {
			t.Errorf("workers=%d: accuracy %v (err %v) != serial %v", workers, acc, err, refAcc)
		}
	}
}

// TestSetWorkersDuringRun is the -race regression test for the pool-swap
// hazard: hammering SetWorkers while a run is in flight must be safe,
// must never change the in-flight run's results, and the new bound must
// take effect at the next run, not mid-run.
func TestSetWorkersDuringRun(t *testing.T) {
	c := buildFleet(t, 2, 8)
	ref := buildFleet(t, 2, 8)

	var wg sync.WaitGroup
	wg.Add(1)
	stop := make(chan struct{})
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			c.SetWorkers(1 + i%7)
		}
	}()
	if err := c.Run(5); err != nil {
		t.Fatal(err)
	}
	close(stop)
	wg.Wait()

	c.SetWorkers(5)
	if got := c.workers; got != 5 {
		t.Fatalf("workers = %d after SetWorkers(5)", got)
	}
	// The next run adopts the new bound and still matches the reference
	// stepped without any SetWorkers churn.
	if err := c.Run(5); err != nil {
		t.Fatal(err)
	}
	for _, r := range []float64{5, 5} {
		if err := ref.Run(r); err != nil {
			t.Fatal(err)
		}
	}
	snap, total, err := c.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	refSnap, refTotal, err := ref.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if total != refTotal {
		t.Errorf("total %v != reference %v", total, refTotal)
	}
	for i := range refSnap {
		if snap[i] != refSnap[i] {
			t.Errorf("node %d: %+v != reference %+v", i, snap[i], refSnap[i])
		}
	}
}

// TestSetPowered covers the administrative power-down path the
// scheduler actuates: an off node is not stepped, leaves the snapshot
// and Coverage.Healthy, keeps its history, and resumes when powered
// back on.
func TestSetPowered(t *testing.T) {
	c := buildFleet(t, 4, 3)
	if err := c.Run(4); err != nil {
		t.Fatal(err)
	}
	victim, ok := c.Lookup(nodeName(1))
	if !ok {
		t.Fatal("Lookup failed")
	}
	beforeN := victim.n
	beforeMean, err := victim.EstimatedMean()
	if err != nil {
		t.Fatal(err)
	}

	if err := c.SetPowered("no-such-node", false); !errors.Is(err, ErrUnknownNode) {
		t.Fatalf("SetPowered unknown = %v", err)
	}
	if err := c.SetPowered(nodeName(1), false); err != nil {
		t.Fatal(err)
	}
	if victim.Powered() {
		t.Fatal("victim still powered")
	}
	if err := c.Run(4); err != nil {
		t.Fatal(err)
	}
	// Frozen: no new samples, mean untouched, excluded from snapshot.
	if victim.n != beforeN {
		t.Errorf("powered-off node stepped: %d -> %d samples", beforeN, victim.n)
	}
	if m, err := victim.EstimatedMean(); err != nil || m != beforeMean {
		t.Errorf("powered-off mean changed: %v (err %v)", m, err)
	}
	snap, _, err := c.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if len(snap) != 2 {
		t.Errorf("snapshot = %v, want 2 survivors", snap)
	}
	for _, e := range snap {
		if e.Name == nodeName(1) {
			t.Errorf("powered-off node in snapshot: %+v", e)
		}
	}
	cov := c.Coverage()
	if cov.Healthy != 2 || len(cov.PoweredOff) != 1 || cov.PoweredOff[0] != nodeName(1) {
		t.Errorf("coverage = %+v", cov)
	}
	if !cov.Full() {
		t.Error("deliberate power-down broke Full(); it is scheduling, not degradation")
	}

	// Power back on: stepping resumes, snapshot regains the node.
	if err := c.SetPowered(nodeName(1), true); err != nil {
		t.Fatal(err)
	}
	if err := c.Run(4); err != nil {
		t.Fatal(err)
	}
	if victim.n <= beforeN {
		t.Errorf("powered-on node did not resume: %d samples", victim.n)
	}
	if snap, _, err = c.Snapshot(); err != nil || len(snap) != 3 {
		t.Errorf("snapshot after power-on = %v (err %v)", snap, err)
	}
}

// TestSnapshotIntoReuse: the streaming variants agree exactly with
// Snapshot and, given a large enough buffer, allocate nothing — the
// contract a 10k-node per-interval scheduler loop depends on.
func TestSnapshotIntoReuse(t *testing.T) {
	c := buildFleet(t, 4, 6)
	if err := c.Run(4); err != nil {
		t.Fatal(err)
	}
	want, wantTotal, err := c.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]Estimate, 0, 16)
	got, total, err := c.SnapshotInto(buf)
	if err != nil {
		t.Fatal(err)
	}
	if total != wantTotal || len(got) != len(want) {
		t.Fatalf("SnapshotInto = %v (%v), want %v (%v)", got, total, want, wantTotal)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("entry %d: %+v != %+v", i, got[i], want[i])
		}
	}
	if &got[0] != &buf[:1][0] {
		t.Error("SnapshotInto did not reuse the caller's buffer")
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, _, err := c.SnapshotInto(buf); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("SnapshotInto allocates %.0f/op with a big enough buffer", allocs)
	}

	// A nil buffer grows to the same estimates, total and order.
	fresh, freshTotal, err := c.SnapshotInto(nil)
	if err != nil || freshTotal != wantTotal || len(fresh) != len(want) {
		t.Fatalf("SnapshotInto(nil) = %v (%v, err %v), want %v (%v)", fresh, freshTotal, err, want, wantTotal)
	}
	for i, e := range want {
		if fresh[i].Name != e.Name {
			t.Errorf("order differs at %d: %s != %s", i, fresh[i].Name, e.Name)
		}
	}
}

// TestRunContextCancelSharded pins cancellation semantics on the
// sharded path: ctx.Err() surfaces, nothing is quarantined, and folded
// samples survive.
func TestRunContextCancelSharded(t *testing.T) {
	c := buildFleet(t, 4, 12)
	if err := c.Run(2); err != nil {
		t.Fatal(err)
	}
	_, before, err := c.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := c.RunContext(ctx, 30); !errors.Is(err, context.Canceled) {
		t.Fatalf("RunContext err = %v", err)
	}
	if len(c.Coverage().Quarantined) != 0 {
		t.Errorf("cancellation quarantined nodes: %v", c.Coverage().Quarantined)
	}
	_, after, err := c.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if after < before*0.5 {
		t.Errorf("samples lost on cancellation: %v -> %v", before, after)
	}
}

// TestPlanShards pins the shard partition: contiguous, balanced,
// covering every node exactly once, at any worker count.
func TestPlanShards(t *testing.T) {
	for _, tc := range []struct{ n, workers int }{
		{0, 4}, {1, 4}, {3, 4}, {26, 3}, {100, 8}, {10000, 16}, {5, 1},
	} {
		shards := planShards(nil, tc.n, tc.workers)
		if tc.n == 0 {
			if len(shards) != 1 || shards[0].lo != 0 || shards[0].hi != 0 {
				t.Errorf("n=0: shards = %+v", shards)
			}
			continue
		}
		if len(shards) > tc.n {
			t.Errorf("n=%d workers=%d: %d shards exceed nodes", tc.n, tc.workers, len(shards))
		}
		next := 0
		for s, sh := range shards {
			if sh.lo != next || sh.hi < sh.lo {
				t.Fatalf("n=%d workers=%d shard %d: [%d,%d) after %d", tc.n, tc.workers, s, sh.lo, sh.hi, next)
			}
			next = sh.hi
		}
		if next != tc.n {
			t.Errorf("n=%d workers=%d: shards cover %d nodes", tc.n, tc.workers, next)
		}
	}
}
