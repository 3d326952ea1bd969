package machine

import (
	"context"
	"math"
	"testing"

	"trickledown/internal/iobus"
	"trickledown/internal/perfctr"
	"trickledown/internal/power"
	"trickledown/internal/workload"
)

func mustSpec(t *testing.T, name string) workload.Spec {
	t.Helper()
	s, err := workload.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// vectorInts returns the sample's deliveries of vector v across all
// CPUs.
func vectorInts(s *perfctr.Sample, v iobus.Vector) uint64 {
	var t uint64
	for _, n := range s.Ints[v] {
		t += n
	}
	return t
}

// truthMeter observes every slice s steps from now on and returns the
// noise-free per-rail average over those slices: ground truth the real
// paper could never see directly.
func truthMeter(s *Server) func() power.Reading {
	var sum power.Reading
	var n int64
	s.OnSlice(func(si SliceInfo) {
		for i, w := range si.Truth {
			sum[i] += w
		}
		n++
	})
	return func() power.Reading {
		var out power.Reading
		if n == 0 {
			return out
		}
		for i, v := range sum {
			out[i] = v / float64(n)
		}
		return out
	}
}

func TestNewValidation(t *testing.T) {
	spec := mustSpec(t, "idle")
	bad := DefaultConfig()
	bad.NumCPUs = 0
	if _, err := New(bad, spec); err == nil {
		t.Error("zero CPUs accepted")
	}
	bad = DefaultConfig()
	bad.NumDisks = 0
	if _, err := New(bad, spec); err == nil {
		t.Error("zero disks accepted")
	}
	bad = DefaultConfig()
	bad.NumCPUs = 1
	bad.ThreadsPerCPU = 1
	if _, err := New(bad, spec); err == nil {
		t.Error("8 instances on 1 thread accepted")
	}
}

func TestIdleRunMatchesPaperFloor(t *testing.T) {
	srv, err := New(DefaultConfig(), mustSpec(t, "idle"))
	if err != nil {
		t.Fatal(err)
	}
	truthMean := truthMeter(srv)
	srv.Run(30)
	m := truthMean()
	// Paper Table 1 idle row: 38.4 / 19.9 / 28.1 / 32.9 / 21.6.
	want := power.Reading{38.4, 19.9, 28.1, 32.9, 21.6}
	tol := power.Reading{1.5, 0.6, 0.6, 0.4, 0.3}
	for i, w := range want {
		if math.Abs(m[i]-w) > tol[i] {
			t.Errorf("%s idle power = %.2f, want %.1f ± %.1f",
				power.Subsystem(i), m[i], w, tol[i])
		}
	}
}

func TestDeterministicForSeed(t *testing.T) {
	run := func() power.Reading {
		srv, err := New(DefaultConfig(), mustSpec(t, "gcc"))
		if err != nil {
			t.Fatal(err)
		}
		truthMean := truthMeter(srv)
		srv.Run(20)
		return truthMean()
	}
	a, b := run(), run()
	if a != b {
		t.Errorf("same seed diverged: %v vs %v", a, b)
	}
	cfg := DefaultConfig()
	cfg.Seed = 99
	srv, _ := New(cfg, mustSpec(t, "gcc"))
	truthMean := truthMeter(srv)
	srv.Run(20)
	if truthMean() == a {
		t.Error("different seeds produced identical run")
	}
}

func TestDatasetAlignment(t *testing.T) {
	srv, err := New(DefaultConfig(), mustSpec(t, "idle"))
	if err != nil {
		t.Fatal(err)
	}
	srv.Run(25)
	ds, err := srv.Dataset()
	if err != nil {
		t.Fatal(err)
	}
	if ds.Len() < 23 || ds.Len() > 26 {
		t.Errorf("dataset rows = %d for a 25s run", ds.Len())
	}
	for i, row := range ds.Rows {
		if len(row.Counters.CPUs) != 4 {
			t.Fatalf("row %d has %d CPUs", i, len(row.Counters.CPUs))
		}
		if row.Counters.CPUs[0].Cycles == 0 {
			t.Fatalf("row %d has zero cycles", i)
		}
		if row.Power[power.SubCPU] <= 0 {
			t.Fatalf("row %d has non-positive CPU power", i)
		}
	}
}

func TestStaggeredStartRampsPower(t *testing.T) {
	srv, err := New(DefaultConfig(), mustSpec(t, "gcc"))
	if err != nil {
		t.Fatal(err)
	}
	srv.Run(130) // four instances running by then (30s stagger)
	ds, err := srv.Dataset()
	if err != nil {
		t.Fatal(err)
	}
	early := ds.Rows[10].Power[power.SubCPU]
	late := ds.Rows[ds.Len()-1].Power[power.SubCPU]
	if late < early+30 {
		t.Errorf("staggered gcc should ramp CPU power: %v -> %v", early, late)
	}
}

func TestDiskLoadGeneratesDMAAndDiskInterrupts(t *testing.T) {
	srv, err := New(DefaultConfig(), mustSpec(t, "diskload"))
	if err != nil {
		t.Fatal(err)
	}
	srv.Run(60)
	ds, err := srv.Dataset()
	if err != nil {
		t.Fatal(err)
	}
	var dma, diskInts uint64
	for _, row := range ds.Rows {
		dma += row.Counters.CPUs[0].DMAOther
		diskInts += vectorInts(&row.Counters, iobus.VecDisk)
	}
	if dma == 0 {
		t.Error("diskload produced no DMA/other bus transactions")
	}
	if diskInts == 0 {
		t.Error("diskload produced no disk interrupts")
	}
}

func TestTimerInterruptsAlwaysPresent(t *testing.T) {
	srv, err := New(DefaultConfig(), mustSpec(t, "idle"))
	if err != nil {
		t.Fatal(err)
	}
	srv.Run(10)
	ds, _ := srv.Dataset()
	for i, row := range ds.Rows[1:] {
		total := row.Counters.IntsTotal()
		// ~4000 timer + ~90 NIC per second.
		if total < 3500 || total > 5000 {
			t.Errorf("row %d interrupts = %d, want ~4100", i, total)
		}
	}
}

func TestOnSliceObserver(t *testing.T) {
	srv, err := New(DefaultConfig(), mustSpec(t, "idle"))
	if err != nil {
		t.Fatal(err)
	}
	calls := 0
	srv.OnSlice(func(si SliceInfo) {
		calls++
		if si.Truth[power.SubCPU] <= 0 {
			t.Fatal("observer saw non-positive CPU power")
		}
	})
	srv.OnSlice(nil) // ignored
	srv.Run(2)
	if calls != 2000 {
		t.Errorf("observer called %d times for 2s run", calls)
	}
}

func TestAccessors(t *testing.T) {
	spec := mustSpec(t, "idle")
	srv, err := New(DefaultConfig(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if srv.Spec().Name != "idle" {
		t.Error("Spec accessor broken")
	}
	if srv.Config().NumCPUs != 4 {
		t.Error("Config accessor broken")
	}
	if srv.Clock() == nil || srv.Sampler() == nil || srv.DAQ() == nil || srv.OS() == nil {
		t.Error("nil component accessor")
	}
	if truthMeter(srv)() != (power.Reading{}) {
		t.Error("truth mean before run should be zero")
	}
}

func TestRunWorkload(t *testing.T) {
	ds, err := RunWorkload("idle", 10, 3)
	if err != nil {
		t.Fatal(err)
	}
	if ds.Len() < 8 {
		t.Errorf("rows = %d", ds.Len())
	}
	if _, err := RunWorkload("nonsense", 10, 3); err == nil {
		t.Error("unknown workload accepted")
	}
}

// The Figure 4 system-level effect: as staggered mcf instances pile on,
// prefetch traffic grows while demand L3 misses stop growing.
func TestMcfPrefetchGrowth(t *testing.T) {
	srv, err := New(DefaultConfig(), mustSpec(t, "mcf"))
	if err != nil {
		t.Fatal(err)
	}
	srv.Run(280) // ~9 instances' worth of stagger time
	ds, err := srv.Dataset()
	if err != nil {
		t.Fatal(err)
	}
	window := func(lo, hi int) (pf, miss float64) {
		for _, row := range ds.Rows[lo:hi] {
			for _, c := range row.Counters.CPUs {
				pf += float64(c.BusPrefetchTx)
				miss += float64(c.L3LoadMisses)
			}
		}
		return pf, miss
	}
	pfEarly, missEarly := window(40, 60) // ~2 instances
	pfLate, missLate := window(250, 270) // 8 instances
	if pfLate <= 2*pfEarly {
		t.Errorf("prefetch traffic should grow strongly: %v -> %v", pfEarly, pfLate)
	}
	// Demand misses grow far less than linearly in instances (prefetcher
	// coverage): with 4x the instances, less than 3x the misses.
	if missLate > 3*missEarly {
		t.Errorf("demand misses grew too much: %v -> %v", missEarly, missLate)
	}
}

// TestRunStepsNearestSlice checks that a run length whose nanosecond
// count is not exact in floating point still steps every slice:
// 2.05 s is 2049999999.9999998 ns, which truncation turned into 2049
// slices.
func TestRunStepsNearestSlice(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NumCPUs, cfg.ThreadsPerCPU, cfg.NumDisks = 1, 2, 1
	srv, err := NewMixed(cfg, []Placement{{Workload: "idle", Thread: 0}})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.RunContext(context.Background(), 2.05); err != nil {
		t.Fatal(err)
	}
	if got := srv.Clock().Now() / srv.Clock().Slice(); got != 2050 {
		t.Errorf("RunContext(2.05) stepped %d slices, want 2050", got)
	}
}
