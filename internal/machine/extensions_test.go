package machine

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"trickledown/internal/align"
	"trickledown/internal/core"
	"trickledown/internal/cpu"
	"trickledown/internal/disk"
	"trickledown/internal/iobus"
	"trickledown/internal/power"
)

func TestThrottleReducesPowerAndWork(t *testing.T) {
	run := func(throttle float64) (watts, uops float64) {
		srv, err := New(DefaultConfig(), mustSpec(t, "gcc"))
		if err != nil {
			t.Fatal(err)
		}
		srv.Run(30) // let instance 0 settle
		srv.SetThrottleAll(throttle)
		srv.Run(30)
		ds, err := srv.Dataset()
		if err != nil {
			t.Fatal(err)
		}
		for _, row := range ds.Rows[35:] {
			watts += row.Power[power.SubCPU]
			for _, c := range row.Counters.CPUs {
				uops += float64(c.FetchedUops)
			}
		}
		return watts, uops
	}
	fullW, fullU := run(0)
	halfW, halfU := run(0.5)
	if halfW >= fullW {
		t.Errorf("throttling did not cut power: %v >= %v", halfW, fullW)
	}
	if halfU >= 0.7*fullU {
		t.Errorf("throttling did not cut work: %v vs %v", halfU, fullU)
	}
}

func TestThrottleVisibleToEq1(t *testing.T) {
	// The throttled machine must show more halted cycles — the channel
	// through which a counter-driven governor's action becomes visible
	// to its own model.
	spec := mustSpec(t, "gcc")
	spec.StaggerSec = 1 // all instances running almost immediately
	srv, err := New(DefaultConfig(), spec)
	if err != nil {
		t.Fatal(err)
	}
	srv.Run(20)
	srv.SetThrottleAll(0.6)
	srv.Run(20)
	ds, err := srv.Dataset()
	if err != nil {
		t.Fatal(err)
	}
	before := ds.Rows[15].Counters.CPUs[0]
	after := ds.Rows[ds.Len()-1].Counters.CPUs[0]
	fracBefore := float64(before.HaltedCycles) / float64(before.Cycles)
	fracAfter := float64(after.HaltedCycles) / float64(after.Cycles)
	if fracAfter <= fracBefore+0.2 {
		t.Errorf("halted fraction %v -> %v; throttle invisible to Eq. 1", fracBefore, fracAfter)
	}
}

// TestThrottleBounds: SetThrottleAll clamps to
// [0, cpu.MaxThrottle], so a throttle above the cap runs exactly like
// the cap and a negative one exactly like none.
func TestThrottleBounds(t *testing.T) {
	throttle := func(frac float64) *align.Dataset {
		return settingRun(t, func(s *Server) { s.SetThrottleAll(frac) })
	}
	capped, none := throttle(cpu.MaxThrottle), throttle(0)
	if reflect.DeepEqual(capped, none) {
		t.Fatal("the cap runs like no throttle; the test cannot see a clamp")
	}
	if !reflect.DeepEqual(throttle(2), capped) {
		t.Errorf("throttle 2 not clamped to the %v cap", cpu.MaxThrottle)
	}
	if !reflect.DeepEqual(throttle(-1), none) {
		t.Error("throttle -1 not clamped to 0")
	}
}

func TestNetloadExercisesNICPath(t *testing.T) {
	srv, err := New(DefaultConfig(), mustSpec(t, "netload"))
	if err != nil {
		t.Fatal(err)
	}
	truthMean := truthMeter(srv)
	srv.Run(80)
	ds, err := srv.Dataset()
	if err != nil {
		t.Fatal(err)
	}
	var nicInts, diskInts uint64
	var dma float64
	for _, row := range ds.Rows[40:] {
		nicInts += vectorInts(&row.Counters, iobus.VecNIC)
		diskInts += vectorInts(&row.Counters, iobus.VecDisk)
		dma += float64(row.Counters.CPUs[0].DMAOther)
	}
	if nicInts < 1000 {
		t.Errorf("netload raised only %d NIC interrupts", nicInts)
	}
	if diskInts > nicInts/10 {
		t.Errorf("netload should be network-bound: %d disk vs %d nic ints", diskInts, nicInts)
	}
	if dma == 0 {
		t.Error("netload produced no DMA bus traffic")
	}
	// I/O power must rise above the no-I/O floor.
	m := truthMean()
	if m[power.SubIO] < power.IOBasePower+0.5 {
		t.Errorf("netload I/O power = %v, expected clear rise above %v", m[power.SubIO], power.IOBasePower)
	}
	if m[power.SubDisk] > power.DiskIdlePower(2)+0.05 {
		t.Errorf("netload disk power = %v, should idle", m[power.SubDisk])
	}
}

// The extension claim: the Eq. 5 I/O model, trained on disk-driven
// interrupts, generalizes to a workload whose interrupts come from the
// NIC — the trickle-down signal is the interrupt, not the device.
func TestIOModelGeneralizesToNetwork(t *testing.T) {
	dl, err := RunWorkload("diskload", 150, 10)
	if err != nil {
		t.Fatal(err)
	}
	ioModel, err := core.Train(core.IOSpec(), dl)
	if err != nil {
		t.Fatal(err)
	}
	net, err := RunWorkload("netload", 120, 99)
	if err != nil {
		t.Fatal(err)
	}
	e, err := ioModel.Validate(net)
	if err != nil {
		t.Fatal(err)
	}
	if e > 8 {
		t.Errorf("I/O model error on netload = %.2f%%, want <8%%", e)
	}
}

func TestOSBusySampling(t *testing.T) {
	srv, err := New(DefaultConfig(), mustSpec(t, "idle"))
	if err != nil {
		t.Fatal(err)
	}
	srv.Run(10)
	ds, err := srv.Dataset()
	if err != nil {
		t.Fatal(err)
	}
	for i, row := range ds.Rows {
		if len(row.Counters.OSBusySec) != 4 {
			t.Fatalf("row %d OSBusySec len = %d", i, len(row.Counters.OSBusySec))
		}
		for cpu, b := range row.Counters.OSBusySec {
			if b < 0 || b > row.Counters.IntervalSec+0.01 {
				t.Errorf("row %d cpu %d busy %v of %v", i, cpu, b, row.Counters.IntervalSec)
			}
		}
	}
	// Idle machine: utilization near zero.
	m := core.ExtractMetrics(&ds.Rows[ds.Len()-1].Counters)
	for cpu, u := range m.OSUtil {
		if u > 0.05 {
			t.Errorf("idle cpu %d OS utilization = %v", cpu, u)
		}
	}
}

// Section 2.2.2's accuracy trade: the OS-utilization model cannot see
// IPC, so it loses to Eq. 1 on a workload whose power varies at constant
// utilization (mcf vs gcc differ hugely in fetch rate at act ~= 1).
func TestEq1BeatsOSUtilAcrossIPCRegimes(t *testing.T) {
	gcc, err := RunWorkload("gcc", 240, 10)
	if err != nil {
		t.Fatal(err)
	}
	eq1, err := core.Train(core.CPUSpec(), gcc)
	if err != nil {
		t.Fatal(err)
	}
	utilM, err := core.Train(core.CPUOSUtilSpec(), gcc)
	if err != nil {
		t.Fatal(err)
	}
	// Evaluate on a pool mixing fetch-light and fetch-heavy workloads.
	var e1Sum, euSum float64
	for _, wl := range []string{"vortex", "lucas", "specjbb"} {
		eval, err := RunWorkload(wl, 150, 100)
		if err != nil {
			t.Fatal(err)
		}
		e1, err := eq1.Validate(eval)
		if err != nil {
			t.Fatal(err)
		}
		eu, err := utilM.Validate(eval)
		if err != nil {
			t.Fatal(err)
		}
		e1Sum += e1
		euSum += eu
	}
	if e1Sum >= euSum {
		t.Errorf("Eq.1 total error %.2f%% should beat OS-utilization model %.2f%%", e1Sum, euSum)
	}
}

// The spindown extension's honest finding: the paper's Eq. 4 disk model
// assumes a constant rotation floor, so disks with power management
// break it — the spindle state is time-dependent and invisible to rate
// counters.
func TestSpindownBreaksConstantFloorAssumption(t *testing.T) {
	// Train Eq. 4 on the paper's always-spinning hardware.
	dl, err := RunWorkload("diskload", 150, 10)
	if err != nil {
		t.Fatal(err)
	}
	eq4, err := core.Train(core.DiskSpec(), dl)
	if err != nil {
		t.Fatal(err)
	}
	// Evaluate on a mobile-policy machine whose workload leaves the
	// disks idle (netload: all I/O goes through the NIC).
	cfg := DefaultConfig()
	cfg.Seed = 77
	cfg.DiskPolicy = disk.MobilePolicy()
	srv, err := New(cfg, mustSpec(t, "netload"))
	if err != nil {
		t.Fatal(err)
	}
	truthMean := truthMeter(srv)
	srv.Run(120)
	ds, err := srv.Dataset()
	if err != nil {
		t.Fatal(err)
	}
	// The machine actually saves power...
	mean := truthMean()
	if mean[power.SubDisk] > power.DiskIdlePower(2)-10 {
		t.Fatalf("disks never spun down (mean %v)", mean[power.SubDisk])
	}
	// ...and the server-trained model misses the whole saving: it still
	// predicts the rotation floor. The spindle state is time-dependent
	// and invisible to the rate counters Eq. 4 consumes.
	e, err := eq4.Validate(ds.Skip(30))
	if err != nil {
		t.Fatal(err)
	}
	if e < 50 {
		t.Errorf("Eq.4 error on spindown hardware = %.2f%%, expected a gross failure (>50%%)", e)
	}
}

func TestSpindownSavesMeasurableEnergy(t *testing.T) {
	run := func(policy disk.PowerPolicy) float64 {
		cfg := DefaultConfig()
		cfg.Seed = 8
		cfg.DiskPolicy = policy
		srv, err := New(cfg, mustSpec(t, "idle"))
		if err != nil {
			t.Fatal(err)
		}
		truthMean := truthMeter(srv)
		srv.Run(60)
		return truthMean()[power.SubDisk]
	}
	server := run(disk.PowerPolicy{})
	mobile := run(disk.MobilePolicy())
	if mobile >= server-10 {
		t.Errorf("spindown saved only %.1f W on an idle machine", server-mobile)
	}
}

// loadBlade returns the low-power blade profile: the server profile
// with the overrides in internal/power/testdata/blade.json, the fixture
// power's TestBladeProfileIsLowerPower checks is cheaper than the server.
func loadBlade(t *testing.T) power.Profile {
	t.Helper()
	f, err := os.Open(filepath.Join("..", "power", "testdata", "blade.json"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	p := power.ServerProfile()
	dec := json.NewDecoder(f)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&p); err != nil {
		t.Fatal(err)
	}
	return p
}

// Profile portability: the same method retrains on a different machine
// generation (low-power blade) and recovers accuracy with different
// coefficients — the paper's premise that coefficients are per-machine.
func TestMethodPortsToBladeProfile(t *testing.T) {
	blade := loadBlade(t)
	run := func(name string, seconds float64, seed uint64) *align.Dataset {
		spec := mustSpec(t, name)
		cfg := DefaultConfig()
		cfg.Seed = seed
		cfg.Power = &blade
		srv, err := New(cfg, spec)
		if err != nil {
			t.Fatal(err)
		}
		srv.Run(seconds)
		ds, err := srv.Dataset()
		if err != nil {
			t.Fatal(err)
		}
		return ds
	}
	train := run("gcc", 200, 10)
	eq1, err := core.Train(core.CPUSpec(), train)
	if err != nil {
		t.Fatal(err)
	}
	// The fitted floor tracks the blade's cheaper halt power, not the
	// server's 9.4 W.
	if eq1.Coef[0] > 8 {
		t.Errorf("blade-fitted floor = %.2f W, expected ~%.1f", eq1.Coef[0], blade.CPUHalt)
	}
	eval := run("mesa", 150, 100)
	e, err := eq1.Validate(eval)
	if err != nil {
		t.Fatal(err)
	}
	if e > 4 {
		t.Errorf("retrained blade error = %.2f%%, want <4%%", e)
	}
	// A server-trained model applied to the blade is badly calibrated.
	serverTrain, err := RunWorkload("gcc", 200, 10)
	if err != nil {
		t.Fatal(err)
	}
	serverEq1, err := core.Train(core.CPUSpec(), serverTrain)
	if err != nil {
		t.Fatal(err)
	}
	cross, err := serverEq1.Validate(eval)
	if err != nil {
		t.Fatal(err)
	}
	if cross < 3*e {
		t.Errorf("server model on blade = %.2f%%, should dwarf retrained %.2f%%", cross, e)
	}
}

func TestInvalidProfileRejected(t *testing.T) {
	bad := power.ServerProfile()
	bad.IOBase = 0
	cfg := DefaultConfig()
	cfg.Power = &bad
	if _, err := New(cfg, mustSpec(t, "idle")); err == nil {
		t.Error("invalid profile accepted")
	}
}

// The constructive fix for the spindown failure: a history-aware disk
// model (Eq. 4 plus an EWMA recent-activity feature) learns the standby
// transitions a stateless rate model cannot express.
func TestSeqDiskModelHandlesSpindown(t *testing.T) {
	run := func(seed uint64, seconds float64) *align.Dataset {
		cfg := DefaultConfig()
		cfg.Seed = seed
		cfg.DiskPolicy = disk.MobilePolicy()
		// One DiskLoad instance: bursts of flushing with long idle gaps,
		// so the spindle cycles between standby and full rotation.
		srv, err := NewMixed(cfg, []Placement{{Workload: "diskload", Thread: 0}})
		if err != nil {
			t.Fatal(err)
		}
		srv.Run(seconds)
		ds, err := srv.Dataset()
		if err != nil {
			t.Fatal(err)
		}
		return ds
	}
	train := run(10, 260)
	eval := run(99, 200)

	// Sanity: the machine actually cycles standby (power spans a wide
	// range).
	lo, hi := 1e9, 0.0
	for _, row := range eval.Rows {
		v := row.Power[power.SubDisk]
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	if hi-lo < 10 {
		t.Fatalf("disk power range [%.1f, %.1f] too narrow for a spindown test", lo, hi)
	}

	flat, err := core.Train(core.DiskSpec(), train)
	if err != nil {
		t.Fatal(err)
	}
	seq, err := core.TrainSeq(core.DiskStandbySpec(0.25), train)
	if err != nil {
		t.Fatal(err)
	}
	flatErr, err := flat.Validate(eval)
	if err != nil {
		t.Fatal(err)
	}
	seqErr, err := seq.Validate(eval)
	if err != nil {
		t.Fatal(err)
	}
	if seqErr >= flatErr {
		t.Errorf("history model %.2f%% did not beat stateless %.2f%% on spindown hardware", seqErr, flatErr)
	}
	t.Logf("spindown hardware: stateless Eq.4 %.2f%%, history model %.2f%%", flatErr, seqErr)
}
