package disk

import (
	"math"
	"testing"
	"testing/quick"

	"trickledown/internal/sim"
)

const slice = 0.001

// pending reports whether any request is queued or in flight.
func pending(c *Controller) bool {
	for _, d := range c.disks {
		if d.busy || d.qlen > 0 {
			return true
		}
	}
	return false
}

// busySec returns non-idle seconds.
func busySec(s Stats) float64 { return s.SeekSec + s.RotSec + s.XferSec }

func TestIdleDiskIsIdle(t *testing.T) {
	d := NewDisk(sim.NewRNG(1))
	st := d.Step(slice)
	if st.IdleSec != slice {
		t.Errorf("IdleSec = %v, want %v", st.IdleSec, slice)
	}
	if busySec(st) != 0 || st.Completions != 0 {
		t.Errorf("idle disk did work: %+v", st)
	}
}

func TestResidencySumsToSlice(t *testing.T) {
	d := NewDisk(sim.NewRNG(2))
	d.Submit(Request{Bytes: 1e6, Write: true})
	for i := 0; i < 200; i++ {
		st := d.Step(slice)
		total := st.SeekSec + st.RotSec + st.XferSec + st.IdleSec
		if math.Abs(total-slice) > 1e-9 {
			t.Fatalf("slice %d: residency sum = %v, want %v", i, total, slice)
		}
	}
}

func TestRequestCompletesWithCorrectBytes(t *testing.T) {
	d := NewDisk(sim.NewRNG(3))
	const bytes = 256 * 1024
	d.Submit(Request{Bytes: bytes, Write: true, Sequential: true})
	var written float64
	var completions int
	for i := 0; i < 1000 && completions == 0; i++ {
		st := d.Step(slice)
		written += st.WriteBytes
		completions += st.Completions
		if st.ReadBytes != 0 {
			t.Fatal("write produced read bytes")
		}
	}
	if completions != 1 {
		t.Fatalf("completions = %d", completions)
	}
	if math.Abs(written-bytes)/bytes > 0.001 {
		t.Errorf("wrote %v bytes, want %v", written, bytes)
	}
}

func TestReadVsWriteAccounting(t *testing.T) {
	d := NewDisk(sim.NewRNG(4))
	d.Submit(Request{Bytes: 64 * 1024})
	var read, written float64
	for i := 0; i < 1000; i++ {
		st := d.Step(slice)
		read += st.ReadBytes
		written += st.WriteBytes
	}
	if read == 0 || written != 0 {
		t.Errorf("read = %v, written = %v", read, written)
	}
}

func TestSequentialFasterThanRandom(t *testing.T) {
	finish := func(seq bool, seed uint64) int {
		d := NewDisk(sim.NewRNG(seed))
		for i := 0; i < 50; i++ {
			d.Submit(Request{Bytes: 64 * 1024, Sequential: seq})
		}
		slices := 0
		done := 0
		for done < 50 {
			st := d.Step(slice)
			done += st.Completions
			slices++
			if slices > 100000 {
				t.Fatal("requests never completed")
			}
		}
		return slices
	}
	seq := finish(true, 5)
	rnd := finish(false, 6)
	if float64(rnd) < 3*float64(seq) {
		t.Errorf("random (%d slices) should be much slower than sequential (%d)", rnd, seq)
	}
}

func TestRandomThroughputRealistic(t *testing.T) {
	// A queue-saturated disk should complete random 8KB requests at
	// roughly 1/(seek+rot+xfer) ≈ 130-150 IOPS.
	d := NewDisk(sim.NewRNG(7))
	completions := 0
	for i := 0; i < 10000; i++ { // 10 s
		if d.QueueLen() < 10 {
			d.Submit(Request{Bytes: 8192})
		}
		completions += d.Step(slice).Completions
	}
	iops := float64(completions) / 10
	if iops < 100 || iops > 200 {
		t.Errorf("random IOPS = %v, want ~100-200", iops)
	}
}

func TestSequentialThroughputNearMediaRate(t *testing.T) {
	d := NewDisk(sim.NewRNG(8))
	var bytes float64
	for i := 0; i < 10000; i++ { // 10 s
		if d.QueueLen() < 10 {
			d.Submit(Request{Bytes: 256 * 1024, Sequential: true, Write: true})
		}
		bytes += d.Step(slice).WriteBytes
	}
	rate := bytes / 10
	if rate < 0.6*TransferRate || rate > TransferRate {
		t.Errorf("sequential rate = %v B/s, want near %v", rate, TransferRate)
	}
}

func TestZeroByteRequestIgnored(t *testing.T) {
	d := NewDisk(sim.NewRNG(9))
	d.Submit(Request{Bytes: 0})
	d.Submit(Request{Bytes: -5})
	if d.QueueLen() != 0 {
		t.Error("zero/negative request queued")
	}
	c := NewController(2, sim.NewRNG(9))
	c.Submit(Request{Bytes: 0})
	if pending(c) {
		t.Error("controller queued empty request")
	}
}

func TestControllerBalances(t *testing.T) {
	c := NewController(2, sim.NewRNG(10))
	for i := 0; i < 10; i++ {
		c.Submit(Request{Bytes: 1e6})
	}
	if got := c.disks[0].QueueLen() + c.disks[1].QueueLen(); got != 10 {
		t.Fatalf("queued %d, want 10", got)
	}
	diff := c.disks[0].QueueLen() - c.disks[1].QueueLen()
	if diff < -1 || diff > 1 {
		t.Errorf("imbalanced queues: %d vs %d", c.disks[0].QueueLen(), c.disks[1].QueueLen())
	}
	if len(c.disks) != 2 {
		t.Errorf("%d spindles, want 2", len(c.disks))
	}
}

func TestControllerPendingAndDrain(t *testing.T) {
	c := NewController(2, sim.NewRNG(11))
	if pending(c) {
		t.Error("fresh controller pending")
	}
	c.Submit(Request{Bytes: 64 * 1024, Sequential: true})
	if !pending(c) {
		t.Error("submitted request not pending")
	}
	for i := 0; i < 10000 && pending(c); i++ {
		c.Step(slice)
	}
	if pending(c) {
		t.Error("request never drained")
	}
}

func TestStatsAdd(t *testing.T) {
	a := Stats{SeekSec: 1, RotSec: 2, XferSec: 3, IdleSec: 4, ReadBytes: 5, WriteBytes: 6, Completions: 7, QueueLen: 8}
	b := a
	a.Add(&b)
	if a.SeekSec != 2 || a.Completions != 14 || a.QueueLen != 16 || a.WriteBytes != 12 {
		t.Errorf("Add = %+v", a)
	}
	if busySec(a) != 2+4+6 {
		t.Errorf("BusySec = %v", busySec(a))
	}
}

// Property: bytes completed never exceed bytes submitted, and completions
// never exceed submissions.
func TestConservation(t *testing.T) {
	f := func(seed uint64, sizes []uint32) bool {
		rng := sim.NewRNG(seed)
		c := NewController(2, rng)
		var submitted float64
		n := 0
		for _, s := range sizes {
			if n >= 40 {
				break
			}
			b := float64(s%1000000) + 512
			c.Submit(Request{Bytes: b, Write: seed%2 == 0, Sequential: seed%3 == 0})
			submitted += b
			n++
		}
		var done float64
		comps := 0
		for i := 0; i < 200000 && pending(c); i++ {
			st := c.Step(slice)
			done += st.ReadBytes + st.WriteBytes
			comps += st.Completions
		}
		if pending(c) {
			return false // 200 s is ample to drain 40 requests
		}
		return done <= submitted*1.001 && comps == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
