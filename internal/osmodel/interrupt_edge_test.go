package osmodel

import (
	"testing"
	"time"

	"trickledown/internal/disk"
	"trickledown/internal/iobus"
	"trickledown/internal/sim"
	"trickledown/internal/workload"
)

// newQuietOS builds an OS with every spontaneous interrupt source
// disabled, so only demand-driven interrupts can appear.
func newQuietOS(t *testing.T) (*OS, *sim.Clock) {
	t.Helper()
	rng := sim.NewRNG(3)
	io := iobus.New(4)
	ctl := disk.NewController(2, rng)
	cfg := DefaultConfig(4)
	cfg.TimerHz = 0
	cfg.NICPerSec = 0
	os := New(cfg, io, ctl, rng)
	return os, sim.NewClock(time.Millisecond, 2.8e9)
}

// Zero-rate edge: with the timer and NIC silenced and no I/O demand,
// the interrupt machinery must deliver exactly nothing — no phantom
// counts, no drifting accumulators — across a long run.
func TestInterruptsZeroRates(t *testing.T) {
	os, c := newQuietOS(t)
	for i := 0; i < 5000; i++ {
		res := os.Step(c, []workload.Demand{{Active: 0.5}})
		if res.IntsTotal != 0 || res.DeviceInts != 0 {
			t.Fatalf("slice %d: %d interrupts (%d device) with every source at zero rate",
				i, res.IntsTotal, res.DeviceInts)
		}
	}
	for v := iobus.Vector(0); int(v) < iobus.NumVectors; v++ {
		if n := vectorCount(os.apic, v); n != 0 {
			t.Errorf("source %s accumulated %d interrupts at zero rate", v, n)
		}
	}
}

// Saturated edge: a network stream far beyond the coalescing threshold
// must raise exactly offered/threshold interrupts — coalescing is what
// keeps the interrupt rate finite under any offered load.
func TestInterruptsSaturatedNICCoalesces(t *testing.T) {
	os, c := newQuietOS(t)
	const perSlice = 100 * 64 * 1024 // 100 coalescing windows per slice
	const slices = 1000
	var device int
	for i := 0; i < slices; i++ {
		res := os.Step(c, []workload.Demand{{NetRxBytes: perSlice}})
		device += res.DeviceInts
	}
	want := perSlice * slices / (64 * 1024)
	if device != want {
		t.Fatalf("device interrupts = %d, want exactly %d (offered/coalesce)", device, want)
	}
	if got := vectorCount(os.apic, iobus.VecNIC); got != uint64(want) {
		t.Errorf("eth0 cumulative = %d, want %d", got, want)
	}
}

// Sub-threshold payloads carry fractional interrupt credit across
// slices instead of rounding to zero forever or to one per slice.
func TestInterruptsNICFractionalCredit(t *testing.T) {
	os, c := newQuietOS(t)
	// 16 KiB per slice: one coalesced interrupt every 4 slices.
	var total int
	for i := 0; i < 400; i++ {
		total += os.Step(c, []workload.Demand{{NetRxBytes: 16 * 1024}}).DeviceInts
	}
	if total != 100 {
		t.Errorf("coalesced interrupts = %d, want 100 (credit carried across slices)", total)
	}
}

// Saturated disk edge: an absurd synchronous write demand must not
// produce more completion interrupts than submitted requests, and the
// queue bound must hold the system finite.
func TestInterruptsSaturatedDiskBounded(t *testing.T) {
	os, c := newQuietOS(t)
	var device int
	requests := 0
	for i := 0; i < 2000; i++ {
		// One synchronous OLTP-style write per slice, plus a sync storm.
		res := os.Step(c, []workload.Demand{
			{DiskWriteBytes: 1e9, RandomIO: true},
			{DiskWriteBytes: 1e9, Sync: true},
		})
		requests++
		device += res.DeviceInts
	}
	// Drain what's still queued.
	for i := 0; i < 20000; i++ {
		res := os.Step(c, nil)
		device += res.DeviceInts
		if !res.FlushActive && res.Disk.WriteBytes == 0 && res.IntsTotal == 0 {
			break
		}
	}
	if device == 0 {
		t.Fatal("saturated disk raised no completion interrupts")
	}
	// Completions are per request (coalesced by the controller), never
	// per byte: the count must stay within the same order of magnitude
	// as the submissions, not explode with payload size.
	scsi := vectorCount(os.apic, iobus.VecDisk)
	if scsi > uint64(requests)*100 {
		t.Errorf("scsi interrupts = %d for ~%d submissions; completion coalescing broken", scsi, requests)
	}
}
