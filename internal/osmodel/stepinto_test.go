package osmodel

import (
	"math"
	"testing"

	"trickledown/internal/workload"
)

// An infinite read size from a generator must not wedge the disk: the
// request is dropped at the controller, the 4 KiB read behind it is
// served, and the I/O path then goes quiet instead of streaming phantom
// transfer and DMA every slice.
func TestNonFiniteDiskReadIgnored(t *testing.T) {
	os, c := newOS(t)
	var read float64
	var res Result
	for i := 0; i < 5000; i++ {
		var ds []workload.Demand
		switch i {
		case 0:
			ds = []workload.Demand{{DiskReadBytes: math.Inf(1)}}
		case 1:
			ds = []workload.Demand{{DiskReadBytes: 4096}}
		}
		os.StepInto(&res, c, ds)
		read += res.Disk.ReadBytes
	}
	if math.Abs(read-4096) > 1e-6 {
		t.Errorf("disk read %v bytes, want the 4 KiB request alone", read)
	}
	if res.Disk.XferSec != 0 || res.Disk.ReadBytes != 0 || res.DMA.Bytes != 0 {
		t.Errorf("I/O still active 5 s later: disk %+v, DMA %+v", res.Disk, res.DMA)
	}
	if res.Disk.QueueLen != 0 || res.Disk.SeekSec != 0 || res.Disk.RotSec != 0 {
		t.Errorf("controller still has work pending: %+v", res.Disk)
	}
}

// busyDemands is one slice of eight threads with network traffic and,
// every eighth slice, a 64 KiB sequential read on thread 0 — enough
// to exercise every branch of the I/O path without building an
// unbounded disk backlog.
func busyDemands(ds []workload.Demand, slice int) {
	for i := range ds {
		ds[i] = workload.Demand{Active: 0.6, NetRxBytes: 2048, NetTxBytes: 1024}
	}
	if slice%8 == 0 {
		ds[0].DiskReadBytes = 64 * 1024
	}
}

// A warm OS steps without allocating.
func TestOSStepIntoAllocatesNothing(t *testing.T) {
	os, c := newOS(t)
	ds := make([]workload.Demand, 8)
	var res Result
	for i := 0; i < 100; i++ {
		busyDemands(ds, i)
		os.StepInto(&res, c, ds)
	}
	i := 0
	allocs := testing.AllocsPerRun(500, func() {
		busyDemands(ds, i)
		os.StepInto(&res, c, ds)
		i++
	})
	if allocs != 0 {
		t.Errorf("OS.StepInto allocates %.1f per slice, want 0", allocs)
	}
}

// BenchmarkOSStep is one slice of the OS layer for an eight-thread
// server with network and disk traffic.
func BenchmarkOSStep(b *testing.B) {
	os, c := newOS(b)
	ds := make([]workload.Demand, 8)
	var res Result
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		busyDemands(ds, i)
		os.StepInto(&res, c, ds)
	}
}
