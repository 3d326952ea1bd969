package disk

import (
	"math"
	"testing"

	"trickledown/internal/sim"
)

// A request whose size is not a positive finite number is dropped on
// submission: an infinite one would never finish its transfer, leaving
// the spindle streaming phantom bytes and every later request stuck
// behind it.
func TestNonFiniteRequestIgnored(t *testing.T) {
	d := NewDisk(sim.NewRNG(12))
	d.Submit(Request{Bytes: math.Inf(1)})
	d.Submit(Request{Bytes: math.NaN()})
	if d.QueueLen() != 0 {
		t.Fatalf("non-finite requests queued: QueueLen = %d", d.QueueLen())
	}
	for i := 0; i < 5000; i++ {
		st := d.Step(slice)
		if st.IdleSec != slice || busySec(st) != 0 || st.ReadBytes != 0 || st.WriteBytes != 0 {
			t.Fatalf("slice %d: disk not idle: %+v", i, st)
		}
	}

	c := NewController(2, sim.NewRNG(12))
	c.Submit(Request{Bytes: math.Inf(1)})
	c.Submit(Request{Bytes: math.NaN(), Write: true})
	if pending(c) {
		t.Fatal("controller holds a non-finite request")
	}
	// A real request behind them is served and drains.
	c.Submit(Request{Bytes: 4096})
	var read float64
	for i := 0; i < 5000 && pending(c); i++ {
		read += c.Step(slice).ReadBytes
	}
	if pending(c) || math.Abs(read-4096) > 1e-6 {
		t.Errorf("4 KiB read: pending=%v, read %v bytes", pending(c), read)
	}
}

// pop takes the oldest waiting request into flight and returns it.
func pop(d *Disk) Request {
	d.start()
	return d.cur.req
}

// The waiting queue is FIFO through wrap-around and through growth
// while wrapped, with submits and pops interleaved; QueueLen tracks a
// reference slice exactly.
func TestQueueFIFOAcrossWrapAndGrowth(t *testing.T) {
	d := NewDisk(sim.NewRNG(13))
	rng := sim.NewRNG(14)
	var want []Request
	next := 1.0
	wrapped, grewWrapped := false, false
	for round := 0; round < 400; round++ {
		for n := rng.Intn(6); n > 0; n-- {
			if d.qlen == len(d.queue) && d.qhead != 0 {
				grewWrapped = true
			}
			r := Request{Bytes: next, Write: int(next)%3 == 0}
			next++
			d.Submit(r)
			want = append(want, r)
			if d.qhead+d.qlen > len(d.queue) {
				wrapped = true
			}
		}
		for n := rng.Intn(5); n > 0 && len(want) > 0; n-- {
			if got := pop(d); got != want[0] {
				t.Fatalf("round %d: popped %+v, want %+v", round, got, want[0])
			}
			want = want[1:]
		}
		if d.QueueLen() != len(want) {
			t.Fatalf("round %d: QueueLen = %d, want %d", round, d.QueueLen(), len(want))
		}
	}
	for len(want) > 0 {
		if got := pop(d); got != want[0] {
			t.Fatalf("drain: popped %+v, want %+v", got, want[0])
		}
		want = want[1:]
	}
	if d.QueueLen() != 0 {
		t.Errorf("drained queue reports %d", d.QueueLen())
	}
	if !wrapped || !grewWrapped {
		t.Errorf("sequence missed a case: wrapped=%v grewWhileWrapped=%v", wrapped, grewWrapped)
	}
}

// A 10k-deep burst grows the ring to within twice its peak; once it has
// drained, refilling at a steady depth of 32 reuses that capacity.
func TestQueueCapacityAfterBurst(t *testing.T) {
	const burst = 10000
	d := NewDisk(sim.NewRNG(15))
	req := Request{Bytes: 4096, Sequential: true}
	for i := 0; i < burst; i++ {
		d.Submit(req)
	}
	grown := cap(d.queue)
	if grown < burst || grown > 2*burst {
		t.Fatalf("capacity %d after a %d-deep burst, want within 2x the peak", grown, burst)
	}
	for i := 0; i < 100000 && (d.busy || d.QueueLen() > 0); i++ {
		d.Step(slice)
	}
	if d.busy || d.QueueLen() != 0 {
		t.Fatalf("burst did not drain: %d waiting", d.QueueLen())
	}
	for i := 0; i < 5000; i++ {
		for d.QueueLen() < 32 {
			d.Submit(req)
		}
		d.Step(slice)
	}
	if cap(d.queue) != grown {
		t.Errorf("steady depth-32 refill moved capacity from %d to %d", grown, cap(d.queue))
	}
}

// A warm controller steps a deep queue, and accepts more requests,
// without allocating.
func TestControllerStepIntoAllocatesNothing(t *testing.T) {
	c := NewController(2, sim.NewRNG(16))
	req := Request{Bytes: 64 * 1024, Sequential: true}
	for i := 0; i < 8000; i++ {
		c.Submit(req)
	}
	var st Stats
	for i := 0; i < 100; i++ {
		c.StepInto(&st, slice)
	}
	allocs := testing.AllocsPerRun(200, func() {
		c.Submit(req)
		c.StepInto(&st, slice)
	})
	if allocs != 0 {
		t.Errorf("Controller.StepInto with a deep queue allocates %.1f per slice, want 0", allocs)
	}
	if st.QueueLen < 7000 {
		t.Errorf("queue drained to %d during the measurement; the gate needs it deep", st.QueueLen)
	}
}

// BenchmarkControllerDeepQueue submits 8k sequential 64 KiB requests
// across two disks — the depth a staggered dataset load reaches — and
// steps until they drain.
func BenchmarkControllerDeepQueue(b *testing.B) {
	c := NewController(2, sim.NewRNG(17))
	req := Request{Bytes: 64 * 1024, Sequential: true}
	var st Stats
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for j := 0; j < 8000; j++ {
			c.Submit(req)
		}
		for pending(c) {
			c.StepInto(&st, slice)
		}
	}
}
