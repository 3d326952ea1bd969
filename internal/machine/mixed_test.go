package machine

import (
	"testing"

	"trickledown/internal/core"
	"trickledown/internal/power"
)

func TestNewMixedValidation(t *testing.T) {
	cfg := DefaultConfig()
	cases := map[string][]Placement{
		"empty":          {},
		"bad workload":   {{Workload: "nope", Thread: 0}},
		"bad thread":     {{Workload: "idle", Thread: 99}},
		"negative start": {{Workload: "idle", Thread: 0, StartSec: -5}},
		"double placement": {
			{Workload: "idle", Thread: 3},
			{Workload: "gcc", Thread: 3},
		},
	}
	for name, pls := range cases {
		if _, err := NewMixed(cfg, pls); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestMixedConsolidation(t *testing.T) {
	// Two gcc jobs on processor 0, two dbt-2 workers on processor 1,
	// processors 2-3 idle: the consolidated box a scheduler migration
	// produces.
	cfg := DefaultConfig()
	cfg.Seed = 5
	srv, err := NewMixed(cfg, []Placement{
		{Workload: "gcc", Thread: 0},
		{Workload: "gcc", Thread: 1, StartSec: 10},
		{Workload: "dbt-2", Thread: 2},
		{Workload: "dbt-2", Thread: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	srv.Run(60)
	ds, err := srv.Dataset()
	if err != nil {
		t.Fatal(err)
	}

	// Train Eq. 1 on a homogeneous machine, attribute on the mixed one.
	train, err := RunWorkload("gcc", 200, 10)
	if err != nil {
		t.Fatal(err)
	}
	eq1, err := core.Train(core.CPUSpec(), train)
	if err != nil {
		t.Fatal(err)
	}
	chip, err := core.Train(core.ChipsetSpec(), train)
	if err != nil {
		t.Fatal(err)
	}
	mem, err := core.Train(core.MemBusSpec(), train)
	if err != nil {
		t.Fatal(err)
	}
	dsk, err := core.Train(core.DiskSpec(), train)
	if err != nil {
		t.Fatal(err)
	}
	io, err := core.Train(core.IOSpec(), train)
	if err != nil {
		t.Fatal(err)
	}
	est, err := core.NewEstimator(eq1, chip, mem, dsk, io)
	if err != nil {
		t.Fatal(err)
	}

	row := &ds.Rows[ds.Len()-1]
	per := est.PerCPUPower(&row.Counters)
	if len(per) != 4 {
		t.Fatalf("per-CPU len = %d", len(per))
	}
	// gcc's processor burns far more than dbt-2's, which burns more than
	// the idle ones.
	if per[0] < per[1]+10 {
		t.Errorf("gcc cpu0 %.1fW should dwarf dbt-2 cpu1 %.1fW", per[0], per[1])
	}
	if per[1] < per[2]+1 {
		t.Errorf("dbt-2 cpu1 %.1fW should exceed idle cpu2 %.1fW", per[1], per[2])
	}
	if per[2] > 12 || per[3] > 12 {
		t.Errorf("idle processors attributed %.1f/%.1f W, want ~9-10", per[2], per[3])
	}
	// Eq. 1 still tracks the total on the mixed machine.
	e, err := est.Model(power.SubCPU).Validate(ds.Skip(15))
	if err != nil {
		t.Fatal(err)
	}
	if e > 8 {
		t.Errorf("Eq.1 error on mixed machine = %.2f%%", e)
	}
}

func TestMixedDeterministic(t *testing.T) {
	run := func() power.Reading {
		cfg := DefaultConfig()
		cfg.Seed = 9
		srv, err := NewMixed(cfg, []Placement{
			{Workload: "mesa", Thread: 0},
			{Workload: "lucas", Thread: 4},
		})
		if err != nil {
			t.Fatal(err)
		}
		truthMean := truthMeter(srv)
		srv.Run(15)
		return truthMean()
	}
	if run() != run() {
		t.Error("mixed run not deterministic")
	}
}

func TestMixedChipsetBiasAveraged(t *testing.T) {
	// idle bias 1.85, vortex bias -1.20: the mixed machine should sit
	// between the two pure machines' chipset power.
	mean := func(pls []Placement) float64 {
		cfg := DefaultConfig()
		cfg.Seed = 3
		srv, err := NewMixed(cfg, pls)
		if err != nil {
			t.Fatal(err)
		}
		truthMean := truthMeter(srv)
		srv.Run(20)
		return truthMean()[power.SubChipset]
	}
	idleOnly := mean([]Placement{{Workload: "idle", Thread: 0}})
	vortexOnly := mean([]Placement{{Workload: "vortex", Thread: 0}})
	mixed := mean([]Placement{
		{Workload: "idle", Thread: 0},
		{Workload: "vortex", Thread: 2},
	})
	lo, hi := vortexOnly, idleOnly
	if lo > hi {
		lo, hi = hi, lo
	}
	if mixed < lo-0.3 || mixed > hi+0.3 {
		t.Errorf("mixed chipset %.2fW outside pure range [%.2f, %.2f]", mixed, lo, hi)
	}
}

// The paper's virtual-machine scenario: two tenants on ONE physical
// processor via SMT. Thread-level attribution separates them.
func TestPerThreadAttributionOnSharedProcessor(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Seed = 13
	srv, err := NewMixed(cfg, []Placement{
		{Workload: "gcc", Thread: 0},  // tenant A, busy
		{Workload: "idle", Thread: 1}, // tenant B, parked on the sibling
	})
	if err != nil {
		t.Fatal(err)
	}
	srv.Run(60)
	ds, err := srv.Dataset()
	if err != nil {
		t.Fatal(err)
	}

	train, err := RunWorkload("gcc", 200, 10)
	if err != nil {
		t.Fatal(err)
	}
	mods := make([]*core.Model, 0, 5)
	for _, spec := range []core.ModelSpec{
		core.CPUSpec(), core.ChipsetSpec(), core.MemBusSpec(), core.DiskSpec(), core.IOSpec(),
	} {
		m, err := core.Train(spec, train)
		if err != nil {
			t.Fatal(err)
		}
		mods = append(mods, m)
	}
	est, err := core.NewEstimator(mods...)
	if err != nil {
		t.Fatal(err)
	}

	// The shared processor's Eq. 1 attribution rises above its halted
	// floor, and the OS-accounted busy time the machine records puts
	// that dynamic part on tenant A's thread, not its parked sibling.
	row := &ds.Rows[ds.Len()-1]
	busy := row.Counters.OSThreadBusySec
	if len(busy) != 8 {
		t.Fatalf("thread accounting len = %d", len(busy))
	}
	perCPU := est.PerCPUPower(&row.Counters)
	if floor := est.Model(power.SubCPU).Coef[0]; perCPU[0] <= floor {
		t.Errorf("shared processor %v W not above its halted floor %v W", perCPU[0], floor)
	}
	if busy[0] < 4*busy[1] {
		t.Errorf("busy tenant's thread %v s should dwarf the parked sibling's %v s", busy[0], busy[1])
	}
}
