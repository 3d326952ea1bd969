package osmodel

import (
	"testing"
	"time"

	"trickledown/internal/disk"
	"trickledown/internal/iobus"
	"trickledown/internal/sim"
	"trickledown/internal/workload"
)

// vectorCount returns the cumulative delivery count for vector v, the
// /proc/interrupts number.
func vectorCount(a *iobus.APIC, v iobus.Vector) uint64 {
	var t uint64
	for _, n := range a.Matrix()[v] {
		t += n
	}
	return t
}

func newOS(t testing.TB) (*OS, *sim.Clock) {
	t.Helper()
	rng := sim.NewRNG(1)
	io := iobus.New(4)
	ctl := disk.NewController(2, rng)
	os := New(DefaultConfig(4), io, ctl, rng)
	clock := sim.NewClock(time.Millisecond, 2.8e9)
	return os, clock
}

func TestTimerTickEverySliceEveryCPU(t *testing.T) {
	os, c := newOS(t)
	res := os.Step(c, nil)
	if len(res.IntsPerCPU) != 4 {
		t.Fatalf("IntsPerCPU len = %d", len(res.IntsPerCPU))
	}
	for cpu, n := range res.IntsPerCPU {
		if n < 1 {
			t.Errorf("cpu %d got %d interrupts, want >=1 (timer)", cpu, n)
		}
	}
	// Over one second: 1000 ticks per CPU plus background.
	total := res.IntsTotal
	for i := 0; i < 999; i++ {
		total += os.Step(c, nil).IntsTotal
	}
	if total < 4000 || total > 4400 {
		t.Errorf("1s interrupt total = %d, want ~4000-4300", total)
	}
}

func TestBufferedWriteDirtiesCache(t *testing.T) {
	os, c := newOS(t)
	res := os.Step(c, []workload.Demand{{DiskWriteBytes: 1e6}})
	if res.DirtyBytes != 1e6 {
		t.Errorf("DirtyBytes = %v", res.DirtyBytes)
	}
	if res.Disk.WriteBytes != 0 {
		t.Error("buffered write hit the disk immediately")
	}
	if res.FlushActive {
		t.Error("flush active without sync")
	}
}

func TestSyncFlushesDirtyPagesToDisk(t *testing.T) {
	os, c := newOS(t)
	os.Step(c, []workload.Demand{{DiskWriteBytes: 4e6}})
	res := os.Step(c, []workload.Demand{{Sync: true}})
	if res.DirtyBytes != 0 {
		t.Errorf("DirtyBytes after sync = %v", res.DirtyBytes)
	}
	if !res.FlushActive {
		t.Error("flush not active after sync")
	}
	var written float64
	var ints int
	var dmaTx float64
	for i := 0; i < 5000; i++ {
		r := os.Step(c, nil)
		written += r.Disk.WriteBytes
		ints += r.IntsTotal
		dmaTx += r.DMA.BusTx
		if !r.FlushActive && written > 0 {
			break
		}
	}
	if written < 3.9e6 {
		t.Errorf("flush wrote %v bytes, want ~4e6", written)
	}
	if os.FlushActive() {
		t.Error("flush never completed")
	}
	if dmaTx < 4e6/64/2 {
		t.Errorf("flush produced only %v DMA bus transactions", dmaTx)
	}
}

func TestSequentialReadMissesAndDMAs(t *testing.T) {
	os, c := newOS(t)
	os.Step(c, []workload.Demand{{DiskReadBytes: 2e6}})
	var read float64
	var dmaToMem float64
	for i := 0; i < 5000; i++ {
		r := os.Step(c, nil)
		read += r.Disk.ReadBytes
		dmaToMem += r.DMA.WriteBytes
	}
	if read < 1.9e6 {
		t.Errorf("disk read %v bytes, want ~2e6", read)
	}
	if dmaToMem < 1.9e6 {
		t.Errorf("DMA to memory = %v, want ~2e6", dmaToMem)
	}
}

func TestRandomReadsPartiallyCached(t *testing.T) {
	os, c := newOS(t)
	var read float64
	var issued float64
	for i := 0; i < 20000; i++ {
		r := os.Step(c, []workload.Demand{{DiskReadBytes: 8192, RandomIO: true}})
		issued += 8192
		read += r.Disk.ReadBytes
	}
	// Drain.
	for i := 0; i < 20000; i++ {
		read += os.Step(c, nil).Disk.ReadBytes
	}
	ratio := read / issued
	// Disk seeks cap throughput well below the offered 8.2 MB/s, so just
	// check some but not all reads reached the disk.
	if ratio <= 0.05 || ratio >= 1 {
		t.Errorf("disk-read ratio = %v, want partial (cache hits + queue-bound)", ratio)
	}
}

func TestRandomWritesGoStraightToDisk(t *testing.T) {
	os, c := newOS(t)
	res := os.Step(c, []workload.Demand{{DiskWriteBytes: 8192, RandomIO: true}})
	if res.DirtyBytes != 0 {
		t.Error("synchronous write dirtied the cache")
	}
	var written float64
	for i := 0; i < 5000; i++ {
		written += os.Step(c, nil).Disk.WriteBytes
	}
	if written < 8000 {
		t.Errorf("synchronous write transferred %v bytes", written)
	}
}

func TestDiskCompletionsRaiseInterrupts(t *testing.T) {
	os, c := newOS(t)
	io := iobus.New(4)
	ctl := disk.NewController(2, sim.NewRNG(2))
	os2 := New(DefaultConfig(4), io, ctl, sim.NewRNG(2))
	os2.Step(c, []workload.Demand{{DiskReadBytes: 1e6}})
	before := vectorCount(io.APIC, iobus.VecDisk)
	for i := 0; i < 5000; i++ {
		os2.Step(c, nil)
	}
	after := vectorCount(io.APIC, iobus.VecDisk)
	if after <= before {
		t.Error("disk completions raised no scsi interrupts")
	}
	_ = os
}

// TestProcInterruptsFormat: the interrupt accounting the sampler reads
// in place of Linux's /proc/interrupts holds one row per named source,
// and four processors' timers tick every slice.
func TestProcInterruptsFormat(t *testing.T) {
	os, c := newOS(t)
	for i := 0; i < 100; i++ {
		os.Step(c, nil)
	}
	m := os.apic.Matrix()
	if len(m) != iobus.NumVectors {
		t.Fatalf("%d interrupt rows, want %d", len(m), iobus.NumVectors)
	}
	for v, want := range map[iobus.Vector]string{iobus.VecTimer: "timer", iobus.VecDisk: "scsi", iobus.VecNIC: "eth0"} {
		if v.String() != want {
			t.Errorf("vector %d is named %q, want %q", int(v), v.String(), want)
		}
	}
	if n := vectorCount(os.apic, iobus.VecTimer); n < 100*4 {
		t.Errorf("timer count = %d", n)
	}
}

func TestNewPanicsWithoutCPUs(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	rng := sim.NewRNG(1)
	New(Config{}, iobus.New(1), disk.NewController(1, rng), rng)
}

func TestFlushBackpressure(t *testing.T) {
	// A huge sync must not enqueue everything at once; the queue is
	// bounded by maxOutstanding chunks.
	rng := sim.NewRNG(3)
	io := iobus.New(4)
	ctl := disk.NewController(2, rng)
	os := New(DefaultConfig(4), io, ctl, rng)
	c := sim.NewClock(time.Millisecond, 2.8e9)
	os.Step(c, []workload.Demand{{DiskWriteBytes: 1e9}})
	os.Step(c, []workload.Demand{{Sync: true}})
	// inFlight write bytes must stay near maxOutstanding * chunk.
	maxBytes := float64(maxOutstanding+4) * flushChunkBytes
	for i := 0; i < 1000; i++ {
		os.Step(c, nil)
		if os.inFlightWr > maxBytes {
			t.Fatalf("outstanding write bytes %v exceed bound %v", os.inFlightWr, maxBytes)
		}
	}
	if !os.FlushActive() {
		t.Error("1GB flush finished implausibly fast")
	}
}

func TestAccessorsAndNIC(t *testing.T) {
	os, c := newOS(t)
	if os.DirtyBytes() != 0 {
		t.Error("fresh OS has dirty bytes")
	}
	busy := os.BusySeconds()
	if len(busy) != 4 {
		t.Fatalf("BusySeconds len = %d", len(busy))
	}
	// Busy accounting accumulates from demands.
	demands := make([]workload.Demand, 8)
	demands[0].Active = 1
	for i := 0; i < 1000; i++ {
		os.Step(c, demands)
	}
	busy = os.BusySeconds()
	if busy[0] < 0.9 {
		t.Errorf("cpu0 busy = %v, want ~1s", busy[0])
	}
	if busy[1] != 0 {
		t.Errorf("cpu1 busy = %v, want 0", busy[1])
	}
	// Returned slice must be a copy.
	busy[0] = 999
	if os.BusySeconds()[0] == 999 {
		t.Error("BusySeconds returned live state")
	}
}

func TestNICTrafficRaisesCoalescedInterruptsAndDMA(t *testing.T) {
	os, c := newOS(t)
	var ints int
	var dmaBytes float64
	for i := 0; i < 2000; i++ { // 2s of 8 MB/s rx + 8 MB/s tx
		res := os.Step(c, []workload.Demand{{NetRxBytes: 8192, NetTxBytes: 8192}})
		ints += res.DeviceInts
		dmaBytes += res.DMA.Bytes
	}
	// 32 MB through a 64 KB coalescer: ~500 NIC interrupts (+ ~180
	// background), and every payload byte via DMA.
	if ints < 400 || ints > 1200 {
		t.Errorf("device interrupts = %d, want ~500-900", ints)
	}
	if dmaBytes < 31e6 {
		t.Errorf("DMA bytes = %v, want ~32e6", dmaBytes)
	}
}
