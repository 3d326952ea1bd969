package disk

import (
	"math"
	"testing"

	"trickledown/internal/sim"
)

func TestSpindownAfterIdleTimeout(t *testing.T) {
	d := NewDisk(sim.NewRNG(1))
	d.SetPowerPolicy(PowerPolicy{SpindownAfterSec: 2, SpinupSec: 1})
	var idle, standby float64
	for i := 0; i < 5000; i++ { // 5 s idle
		st := d.Step(slice)
		idle += st.IdleSec
		standby += st.StandbySec
	}
	if !d.standby {
		t.Fatal("disk never spun down")
	}
	if math.Abs(idle-2) > 0.01 {
		t.Errorf("idle before spindown = %v, want ~2", idle)
	}
	if math.Abs(standby-3) > 0.01 {
		t.Errorf("standby = %v, want ~3", standby)
	}
}

func TestSpinupOnRequest(t *testing.T) {
	d := NewDisk(sim.NewRNG(2))
	d.SetPowerPolicy(PowerPolicy{SpindownAfterSec: 1, SpinupSec: 0.5})
	for i := 0; i < 3000; i++ {
		d.Step(slice)
	}
	if !d.standby {
		t.Fatal("not in standby")
	}
	d.Submit(Request{Bytes: 64 * 1024, Sequential: true})
	var spinup float64
	var spinups, completions int
	var slices int
	for i := 0; i < 3000 && completions == 0; i++ {
		st := d.Step(slice)
		spinup += st.SpinupSec
		spinups += st.Spinups
		completions += st.Completions
		slices++
	}
	if completions != 1 {
		t.Fatal("request never completed after wake")
	}
	if spinups != 1 {
		t.Errorf("spinups = %d", spinups)
	}
	if math.Abs(spinup-0.5) > 0.01 {
		t.Errorf("spinup time = %v, want 0.5", spinup)
	}
	// The request paid the spin-up latency.
	if slices < 500 {
		t.Errorf("request finished in %d ms, should include 500 ms spinup", slices)
	}
	if d.standby {
		t.Error("disk still standby after serving")
	}
}

func TestResidencyStillSumsWithPolicy(t *testing.T) {
	d := NewDisk(sim.NewRNG(3))
	d.SetPowerPolicy(MobilePolicy())
	d.Submit(Request{Bytes: 1e6, Sequential: true})
	for i := 0; i < 20000; i++ {
		st := d.Step(slice)
		total := st.SeekSec + st.RotSec + st.XferSec + st.IdleSec + st.StandbySec + st.SpinupSec
		if math.Abs(total-slice) > 1e-9 {
			t.Fatalf("slice %d: residency sum = %v", i, total)
		}
	}
}

func TestZeroPolicyNeverSpinsDown(t *testing.T) {
	d := NewDisk(sim.NewRNG(4))
	for i := 0; i < 20000; i++ {
		st := d.Step(slice)
		if st.StandbySec > 0 || st.SpinupSec > 0 {
			t.Fatal("server disk entered standby without a policy")
		}
	}
	if d.standby {
		t.Fatal("standby without policy")
	}
}

func TestActivityResetsIdleTimer(t *testing.T) {
	d := NewDisk(sim.NewRNG(5))
	d.SetPowerPolicy(PowerPolicy{SpindownAfterSec: 1, SpinupSec: 0.5})
	// Keep poking the disk every 500ms: it must never spin down.
	for i := 0; i < 10000; i++ {
		if i%500 == 0 {
			d.Submit(Request{Bytes: 4096, Sequential: true})
		}
		st := d.Step(slice)
		if st.StandbySec > 0 {
			t.Fatalf("spun down at slice %d despite sub-timeout activity", i)
		}
	}
}

func TestControllerPolicyPropagates(t *testing.T) {
	c := NewController(2, sim.NewRNG(6))
	c.SetPowerPolicy(PowerPolicy{SpindownAfterSec: 1, SpinupSec: 0.2})
	var standby float64
	for i := 0; i < 4000; i++ {
		standby += c.Step(slice).StandbySec
	}
	if standby < 5 { // 2 disks x ~3s
		t.Errorf("controller standby = %v, want ~6 disk-seconds", standby)
	}
}

func TestMobilePolicy(t *testing.T) {
	p := MobilePolicy()
	if p.SpindownAfterSec <= 0 || p.SpinupSec <= 0 {
		t.Errorf("MobilePolicy = %+v", p)
	}
}
