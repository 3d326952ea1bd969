package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sync"
	"syscall"
	"time"

	"trickledown/internal/sim"
)

// epoch anchors nanotime; time.Since reads the monotonic clock.
var epoch = time.Now()

// nanotime is a monotonic host clock in nanoseconds.
func nanotime() int64 { return int64(time.Since(epoch)) }

// cputime is the CPU time the process has used, user plus system over
// all its threads, in nanoseconds. On a shared host the wall clock also
// counts the time other guests hold the processor; CPU time does not, so
// the compute-bound costs are measured with it.
func cputime() int64 {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// The host's speed changes by tens of percent over minutes as other
// guests contend for the processor's cores and caches, and CPU time slows
// with it. Each measured unit of work is therefore followed by a fixed
// reference kernel, and the costs of a pass, an episode or a phase are
// reported scaled by refNominalSec over the kernel's median time there:
// the costs they would have had on a host where the kernel takes
// refNominalSec. The kernel lives in the benchmark, so a change to the
// program moves the scaled costs and not the reference.
const (
	refIters      = 200000
	refNominalSec = 0.013
	refCells      = 1 << 12 // 256 KiB of refCell: stays in a core's cache
)

type refCell struct {
	a, b, c float64
	n       uint64
	_       [4]uint64
}

// refTables holds one table per goroutine a reference run may use.
var refTables [][]refCell

// refKernel does the simulator's kind of work: xorshift draws,
// Box-Muller normals, branches and scattered updates to a small table.
func refKernel(cells []refCell) float64 {
	s, acc := uint64(88172645463325252), 0.0
	for i := 0; i < refIters; i++ {
		s ^= s << 13
		s ^= s >> 7
		s ^= s << 17
		u1 := float64(s>>11)/(1<<53) + 1e-12
		s ^= s << 13
		s ^= s >> 7
		s ^= s << 17
		u2 := float64(s>>11) / (1 << 53)
		z := math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
		c := &cells[s&(refCells-1)]
		if z > 0 {
			c.a += z
			c.n++
		} else {
			c.b = c.b*0.9 + z
		}
		c.c = math.Max(c.c, c.a-c.b)
		acc += c.c * 1e-9
	}
	return acc
}

// hostSpeed runs the reference kernel once on each of par goroutines at
// the same time and returns its wall time and its CPU time per kernel,
// each as a share of refNominalSec: 1 on the nominal host, 1.3 on one
// 30% slower. A cost divided by the median share measured around it is
// the cost on the nominal host.
func hostSpeed(par int) (wall, cpu float64) {
	for len(refTables) < par {
		refTables = append(refTables, make([]refCell, refCells))
	}
	var wg sync.WaitGroup
	acc := make([]float64, par)
	t0, c0 := nanotime(), cputime()
	for g := 0; g < par; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			acc[g] = refKernel(refTables[g])
		}(g)
	}
	wg.Wait()
	wall = float64(nanotime()-t0) / 1e9
	cpu = float64(cputime()-c0) / 1e9 / float64(par)
	sink += sum(acc)
	return wall / refNominalSec, cpu / refNominalSec
}

// nominalSetups runs setup n times, each from a collected heap, timed in
// CPU time and followed by a reference run, and returns the times scaled
// to the nominal host.
func nominalSetups(rep *report, n int, setup func() error) ([]float64, error) {
	var times, speeds []float64
	for i := 0; i < n; i++ {
		runtime.GC()
		c0 := cputime()
		if err := setup(); err != nil {
			return nil, err
		}
		times = append(times, float64(cputime()-c0)/1e9)
		_, speed := rep.hostSpeed(1)
		speeds = append(speeds, speed)
	}
	speed := median(speeds)
	for i := range times {
		times[i] /= speed
	}
	return times, nil
}

// timerOverheadNs measures what one timed region costs when it times
// nothing (two nanotime reads), so per-call layer timings can have it
// subtracted. It returns the median of several batches.
func timerOverheadNs() float64 {
	const n = 20000
	var reps []float64
	for r := 0; r < 7; r++ {
		var acc int64
		for i := 0; i < n; i++ {
			t0 := nanotime()
			acc += nanotime() - t0
		}
		reps = append(reps, float64(acc)/n)
	}
	return median(reps)
}

// permutation returns a seeded shuffle of 0..n-1.
func permutation(seed uint64, n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	rng := sim.NewRNG(seed)
	for i := n - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// mix derives an independent 64-bit seed from a base seed and an index
// (splitmix64 finalizer).
func mix(seed, i uint64) uint64 {
	z := seed + (i+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// gcMeter reads the garbage collector's CPU time from the Go runtime
// and the process's CPU time from the OS, so a phase's share of busy CPU
// spent collecting garbage can be reported.
type gcMeter struct{ samples []metrics.Sample }

func newGCMeter() *gcMeter {
	return &gcMeter{samples: []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}}
}

// read returns cumulative (gc, busy) CPU seconds.
func (g *gcMeter) read() (gc, busy float64) {
	metrics.Read(g.samples)
	if g.samples[0].Value.Kind() == metrics.KindFloat64 {
		gc = g.samples[0].Value.Float64()
	}
	return gc, float64(cputime()) / 1e9
}

// gcFrac is the GC share of busy CPU time between two readings.
func gcFrac(gc, busy float64) float64 {
	if busy <= 0 {
		return 0
	}
	return gc / busy
}

// medianSeconds runs fn repeatedly for at least d (and at least once)
// and returns the median of its per-call durations in seconds.
func medianSeconds(d time.Duration, fn func()) float64 {
	var xs []float64
	deadline := time.Now().Add(d)
	for len(xs) == 0 || time.Now().Before(deadline) {
		t0 := nanotime()
		fn()
		xs = append(xs, float64(nanotime()-t0)/1e9)
	}
	return median(xs)
}
