package sim

import (
	"fmt"
	"math"
	"time"
)

// Default timing parameters for the simulated server. They mirror the
// paper's target: a 4-way Pentium IV Xeon SMP clocked in the GHz range,
// sampled at one-second boundaries.
const (
	// DefaultCoreHz is the simulated core clock frequency.
	DefaultCoreHz = 2.8e9
	// DefaultSlice is the simulation time step. All hardware models
	// integrate their activity over one slice.
	DefaultSlice = time.Millisecond
)

// Clock tracks simulated time in fixed slices.
type Clock struct {
	slice    time.Duration
	sliceSec float64 // slice.Seconds(), computed once
	sliceN   int64   // slices elapsed since reset
	cyclesPS float64 // core cycles per slice
}

// NewClock returns a clock advancing in steps of slice at the given core
// frequency. It panics if slice is not positive or coreHz is not positive,
// since every downstream rate computation divides by them.
func NewClock(slice time.Duration, coreHz float64) *Clock {
	if slice <= 0 {
		panic("sim: non-positive clock slice")
	}
	if coreHz <= 0 {
		panic("sim: non-positive core frequency")
	}
	sec := slice.Seconds()
	return &Clock{
		slice:    slice,
		sliceSec: sec,
		cyclesPS: coreHz * sec,
	}
}

// Tick advances the clock by one slice.
func (c *Clock) Tick() { c.sliceN++ }

// Slice returns the duration of one simulation step.
func (c *Clock) Slice() time.Duration { return c.slice }

// SliceSeconds returns the duration of one step in seconds.
func (c *Clock) SliceSeconds() float64 { return c.sliceSec }

// CyclesPerSlice returns the number of core cycles in one slice.
func (c *Clock) CyclesPerSlice() float64 { return c.cyclesPS }

// Seconds returns elapsed simulated time in seconds.
func (c *Clock) Seconds() float64 {
	return float64(c.sliceN) * c.sliceSec
}

// SliceIndex returns the number of slices elapsed since reset: the index
// of the slice about to be stepped.
func (c *Clock) SliceIndex() int64 { return c.sliceN }

// FirstSliceAt returns the index of the first slice, from the current
// one on, whose start time Seconds() is at or after t, computed with the
// product Seconds() uses so a comparison against t agrees with it. A t
// beyond 2⁶² slices, +Inf among them, returns math.MaxInt64.
func (c *Clock) FirstSliceAt(t float64) int64 {
	k := c.sliceN
	f := math.Ceil(t / c.sliceSec)
	if f >= 1<<62 {
		return math.MaxInt64
	}
	if f > float64(k) {
		k = int64(f)
	}
	for k > c.sliceN && float64(k-1)*c.sliceSec >= t {
		k--
	}
	for float64(k)*c.sliceSec < t {
		k++
	}
	return k
}

func (c *Clock) String() string {
	return fmt.Sprintf("t=%.3fs (slice %d)", c.Seconds(), c.sliceN)
}
