// Package disk models the paper's disk subsystem: two SCSI server disks
// behind a controller. Each disk is modeled by the modes Zedlewski's disk
// power work identifies — seeking, rotational settling, transferring and
// idle — with the crucial server-disk property the paper calls out: the
// spindle never stops, so rotation power (~80% of peak) is consumed even
// when idle, and total disk power varies by only a few percent between
// idle and full load.
//
// The disk controller performs transfers by DMA and raises a completion
// interrupt per finished request, which is exactly the visibility the
// paper's trickle-down disk model relies on ("upon completion or
// incremental completion the I/O device interrupts the microprocessor").
package disk

import (
	"math"

	"trickledown/internal/sim"
)

// Mechanical constants for a 10k RPM SCSI disk of the paper's era.
const (
	// TransferRate is the sustained media rate in bytes/second.
	TransferRate = 80e6
	// avgSeekSec is the mean random-seek time.
	avgSeekSec = 0.004
	// trackSeekSec is the track-to-track seek for sequential requests.
	trackSeekSec = 0.0003
	// halfRevSec is the average rotational latency (half a revolution at
	// 10k RPM).
	halfRevSec = 0.003
	// settleSec is the rotational settling for sequential access.
	settleSec = 0.0004
)

// PowerPolicy configures optional disk power management. The paper's
// server SCSI disks had none ("our hard disks lack the ability to halt
// rotation during idle phases"); mobile disks of the era (Zedlewski's
// study) spin down after an idle timeout. A zero policy disables
// spindown, reproducing the paper's hardware.
type PowerPolicy struct {
	// SpindownAfterSec stops the spindle after this much continuous
	// idleness (0 disables power management).
	SpindownAfterSec float64
	// SpinupSec is the time to restore full rotation before the next
	// request can be served.
	SpinupSec float64
}

// MobilePolicy approximates a 2.5" mobile drive: aggressive spindown,
// seconds-long spinup.
func MobilePolicy() PowerPolicy {
	return PowerPolicy{SpindownAfterSec: 5, SpinupSec: 1.8}
}

// Request is one block-level operation submitted by the OS.
type Request struct {
	// Bytes is the transfer size.
	Bytes float64
	// Write distinguishes writes from reads.
	Write bool
	// Sequential requests skip the random seek and most rotational
	// latency (streaming flush traffic); random requests pay both
	// (dbt-2's OLTP pattern).
	Sequential bool
}

// Stats aggregates a disk's activity over one slice. The residency
// fields sum to the slice duration.
type Stats struct {
	SeekSec float64 // time spent moving the arm
	RotSec  float64 // time spent waiting on rotation
	XferSec float64 // time spent on the media transfer
	IdleSec float64 // spinning but idle
	// StandbySec is time with the spindle stopped; SpinupSec is time
	// spent restoring rotation (both zero without a PowerPolicy).
	StandbySec float64
	SpinupSec  float64
	// Spinups counts spin-up events begun this slice.
	Spinups int
	// ReadBytes/WriteBytes are bytes whose media transfer completed this
	// slice.
	ReadBytes  float64
	WriteBytes float64
	// Completions is the number of requests fully finished this slice
	// (each raises one controller interrupt).
	Completions int
	// QueueLen is the queue depth at the end of the slice.
	QueueLen int
}

// Add accumulates other into s.
func (s *Stats) Add(other *Stats) {
	s.SeekSec += other.SeekSec
	s.RotSec += other.RotSec
	s.XferSec += other.XferSec
	s.IdleSec += other.IdleSec
	s.StandbySec += other.StandbySec
	s.SpinupSec += other.SpinupSec
	s.Spinups += other.Spinups
	s.ReadBytes += other.ReadBytes
	s.WriteBytes += other.WriteBytes
	s.Completions += other.Completions
	s.QueueLen += other.QueueLen
}

// active is the in-flight request with its remaining phase times.
type active struct {
	req      Request
	seekLeft float64
	rotLeft  float64
	xferLeft float64 // seconds of media transfer remaining
}

// Disk is one spindle.
type Disk struct {
	rng *sim.RNG
	// queue is a FIFO ring of waiting requests: qlen of them, oldest at
	// queue[qhead], wrapping past the end. Its length is zero or a power
	// of two, doubled only when full, so a pop is O(1) however deep the
	// dataset-load burst gets and a warm ring never allocates.
	queue []Request
	qhead int
	qlen  int
	// cur is the in-flight request; busy says whether it is valid. It is
	// embedded by value (not a pointer) so the per-request hot path of a
	// loaded disk allocates nothing.
	cur    active
	busy   bool
	policy PowerPolicy
	// power-management state
	idleFor    float64 // continuous idle time while spinning
	standby    bool    // spindle stopped
	spinupLeft float64 // seconds of spin-up remaining
}

// NewDisk returns a disk with a private random stream split from parent.
func NewDisk(parent *sim.RNG) *Disk {
	return &Disk{rng: parent.Split()}
}

// SetPowerPolicy installs (or clears, with the zero value) spindown
// power management.
func (d *Disk) SetPowerPolicy(p PowerPolicy) { d.policy = p }

// transferable reports whether r moves a positive, finite number of
// bytes. Anything else is dropped on submission: a zero-byte request has
// nothing to do, and an infinite or NaN one would never finish its
// transfer, wedging the spindle and everything queued behind it.
func (r Request) transferable() bool {
	return r.Bytes > 0 && !math.IsInf(r.Bytes, 1)
}

// Submit enqueues a request.
func (d *Disk) Submit(r Request) {
	if !r.transferable() {
		return
	}
	if d.qlen == len(d.queue) {
		d.grow()
	}
	d.queue[(d.qhead+d.qlen)&(len(d.queue)-1)] = r
	d.qlen++
}

// grow doubles the ring, copying the waiting requests out in order so
// the oldest lands at index 0.
func (d *Disk) grow() {
	q := make([]Request, max(1, 2*len(d.queue)))
	n := copy(q, d.queue[d.qhead:])
	copy(q[n:], d.queue[:d.qhead])
	d.queue, d.qhead = q, 0
}

// QueueLen returns the number of waiting (not in-flight) requests.
func (d *Disk) QueueLen() int { return d.qlen }

// start pops the next request and rolls its mechanical delays.
func (d *Disk) start() {
	r := d.queue[d.qhead]
	d.qhead = (d.qhead + 1) & (len(d.queue) - 1)
	d.qlen--
	a := active{req: r, xferLeft: r.Bytes / TransferRate}
	if r.Sequential {
		a.seekLeft = trackSeekSec * d.rng.Jitter(1, 0.5)
		a.rotLeft = settleSec * d.rng.Jitter(1, 0.5)
	} else {
		a.seekLeft = d.rng.Exp(avgSeekSec)
		a.rotLeft = d.rng.Float64() * 2 * halfRevSec
	}
	d.cur = a
	d.busy = true
}

// Step advances the disk by sliceSec seconds, walking the in-flight
// request through its seek, rotate and transfer phases and starting
// queued requests as the spindle frees up. With a PowerPolicy installed
// the spindle stops after the idle timeout and pays a spin-up delay on
// the next request.
func (d *Disk) Step(sliceSec float64) Stats {
	var st Stats
	d.stepInto(&st, sliceSec)
	return st
}

// stepInto is Step writing into *st, which it zeroes first.
func (d *Disk) stepInto(st *Stats, sliceSec float64) {
	*st = Stats{}
	left := sliceSec
	for left > 1e-12 {
		// Spin-up in progress blocks everything else.
		if d.spinupLeft > 0 {
			dt := min(d.spinupLeft, left)
			d.spinupLeft -= dt
			st.SpinupSec += dt
			left -= dt
			continue
		}
		if d.standby {
			if d.qlen == 0 {
				st.StandbySec += left
				break
			}
			// Wake up for the pending request.
			d.standby = false
			d.spinupLeft = d.policy.SpinupSec
			st.Spinups++
			continue
		}
		if !d.busy {
			if d.qlen == 0 {
				if d.policy.SpindownAfterSec > 0 {
					// Accumulate idleness toward the spindown timeout.
					budget := d.policy.SpindownAfterSec - d.idleFor
					if budget <= 0 {
						d.standby = true
						continue
					}
					dt := min(budget, left)
					d.idleFor += dt
					st.IdleSec += dt
					left -= dt
					continue
				}
				st.IdleSec += left
				break
			}
			d.idleFor = 0
			d.start()
		}
		a := &d.cur
		switch {
		case a.seekLeft > 0:
			dt := min(a.seekLeft, left)
			a.seekLeft -= dt
			st.SeekSec += dt
			left -= dt
		case a.rotLeft > 0:
			dt := min(a.rotLeft, left)
			a.rotLeft -= dt
			st.RotSec += dt
			left -= dt
		default:
			dt := min(a.xferLeft, left)
			a.xferLeft -= dt
			st.XferSec += dt
			left -= dt
			bytes := dt * TransferRate
			if a.req.Write {
				st.WriteBytes += bytes
			} else {
				st.ReadBytes += bytes
			}
			if a.xferLeft <= 1e-12 {
				st.Completions++
				d.busy = false
				d.idleFor = 0
			}
		}
	}
	st.QueueLen = d.qlen
}

func min(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

// Controller fronts the disk array: it spreads requests over the disks
// (shortest queue first) and aggregates their activity.
type Controller struct {
	disks []*Disk
}

// NewController builds a controller over n disks (the paper's server has
// two).
func NewController(n int, parent *sim.RNG) *Controller {
	c := &Controller{}
	for i := 0; i < n; i++ {
		c.disks = append(c.disks, NewDisk(parent))
	}
	return c
}

// SetPowerPolicy installs the same power policy on every spindle.
func (c *Controller) SetPowerPolicy(p PowerPolicy) {
	for _, d := range c.disks {
		d.SetPowerPolicy(p)
	}
}

// Idle reports whether no disk has a request queued or in flight.
func (c *Controller) Idle() bool {
	for _, d := range c.disks {
		if d.busy || d.qlen > 0 {
			return false
		}
	}
	return true
}

// Submit routes a request to the least-loaded disk.
func (c *Controller) Submit(r Request) {
	if !r.transferable() {
		return
	}
	best := c.disks[0]
	for _, d := range c.disks[1:] {
		if d.QueueLen() < best.QueueLen() {
			best = d
		}
	}
	best.Submit(r)
}

// Step advances every disk by sliceSec and returns the summed stats. It
// is StepInto on a fresh struct.
func (c *Controller) Step(sliceSec float64) Stats {
	var st Stats
	c.StepInto(&st, sliceSec)
	return st
}

// StepInto advances every disk by sliceSec and writes the summed stats
// into *st, overwriting every field. Stats.Completions is the number of
// controller interrupts to raise. Each disk writes into one reused
// per-spindle slot, which is then added to the total in disk order.
func (c *Controller) StepInto(st *Stats, sliceSec float64) {
	*st = Stats{}
	var one Stats
	for _, d := range c.disks {
		d.stepInto(&one, sliceSec)
		st.Add(&one)
	}
}
