// Package workload provides statistical behaviour generators for the
// twelve workloads of the paper's evaluation: eight SPEC CPU 2000 codes
// (gcc, mcf, vortex, art, lucas, mesa, mgrid, wupwise), the two
// commercial server workloads (dbt-2, SPECjbb), the synthetic DiskLoad,
// and idle.
//
// A generator does not execute instructions; it produces, once per
// simulation slice, the *demand* its thread places on the machine:
// how much of the slice it wants the CPU, its fetch throughput, its
// cache/TLB miss intensity, and its file I/O. The CPU, OS and I/O models
// turn that demand into the architectural events the paper's models
// consume. Profiles are calibrated so the resulting subsystem power
// characterization reproduces the shape of the paper's Table 1/2
// (who is CPU-bound, who is memory-bound, who idles waiting for disk,
// who has high variance).
//
// SPEC workloads are run as homogeneous multi-instance combinations with
// staggered starts, the paper's method for sweeping utilization from one
// busy thread to saturation ("we stagger the start of each thread by a
// fixed time, usually 30s-60s").
package workload

import (
	"fmt"
	"math"

	"trickledown/internal/sim"
)

// Class buckets workloads the way the paper's validation tables do.
type Class int

const (
	// ClassInteger marks workloads reported in Table 3 (integer average):
	// idle, gcc, mcf, vortex, dbt-2, SPECjbb, DiskLoad.
	ClassInteger Class = iota
	// ClassFP marks workloads reported in Table 4 (floating-point
	// average): art, lucas, mesa, mgrid, wupwise.
	ClassFP
)

func (c Class) String() string {
	if c == ClassFP {
		return "fp"
	}
	return "integer"
}

// Demand is what one software thread asks of the machine during one
// slice. Rates are per-thread and pre-SMT; the CPU model applies
// simultaneous-multithreading sharing when two threads run on one
// processor.
type Demand struct {
	// Active is the fraction of the slice the thread wants to execute
	// (the rest of the slice its hardware thread can be halted).
	Active float64
	// UopsPerCycle is the fetch throughput while active.
	UopsPerCycle float64
	// SpecActivity measures speculative issue/replay intensity that
	// consumes power but is invisible to the fetched-uop counter — the
	// paper's mcf pathology ("continuously searching for (and not
	// finding) ready instructions").
	SpecActivity float64
	// L2PerUop is L2 cache activity per uop (a power term only).
	L2PerUop float64
	// L3MissPerKuop is demand load misses per thousand fetched uops,
	// before hardware-prefetch coverage.
	L3MissPerKuop float64
	// DirtyEvictFrac is writeback bus transactions per demand miss.
	DirtyEvictFrac float64
	// Prefetchability in [0,1] says how stream-like the miss pattern is;
	// the hardware prefetcher converts that fraction of demand misses
	// into prefetch transactions when the bus has headroom.
	Prefetchability float64
	// TLBMissPerMuop is TLB misses per million uops.
	TLBMissPerMuop float64
	// UCPerMcycle is uncacheable (memory-mapped I/O) accesses per million
	// cycles while active.
	UCPerMcycle float64
	// WriteFrac is the write fraction of the thread's memory traffic.
	WriteFrac float64
	// MemLocality in [0,1] is the DRAM row-buffer locality of the
	// thread's access stream. Multiple interleaved streams (lucas,
	// mgrid, wupwise) and pointer-heavy codes (vortex) thrash row
	// buffers, forcing activations the bus-transaction count cannot
	// see — a source of the paper's FP memory-model underestimation.
	MemLocality float64
	// DiskReadBytes and DiskWriteBytes are file I/O issued this slice
	// (to the OS page cache, not directly to disk).
	DiskReadBytes  float64
	DiskWriteBytes float64
	// RandomIO marks the I/O pattern as random (OLTP-style small pages,
	// mostly missing the page cache, synchronous writes) rather than
	// sequential (dataset loads, page-cache flushes).
	RandomIO bool
	// NetRxBytes and NetTxBytes are network payload moved this slice;
	// the NIC DMAs both through main memory and raises coalesced
	// interrupts (the "Network" box of the paper's Figure 1).
	NetRxBytes float64
	NetTxBytes float64
	// Sync requests a page-cache flush (the DiskLoad sync() call).
	Sync bool
}

// Sanitize zeroes every NaN, ±Inf or negative field of d and returns
// how many it zeroed. A non-finite size or rate would wedge the I/O path
// (an infinite write never drains) or poison every rail, and a negative
// one means nothing. Finite non-negative fields, −0 among them, are left
// bit for bit.
func (d *Demand) Sanitize() int {
	// One test clears the common case. A sum of the fields times 0 is ±0
	// when all are finite and NaN when one is not, or when finite fields
	// overflow the sum; an OR of the fields' bits has the sign bit set
	// when one is negative or −0. The loop then finds what to zero.
	z := math.Float64bits((((d.Active + d.UopsPerCycle) + (d.SpecActivity + d.L2PerUop)) +
		((d.L3MissPerKuop + d.DirtyEvictFrac) + (d.Prefetchability + d.TLBMissPerMuop)) +
		((d.UCPerMcycle + d.WriteFrac) + (d.MemLocality + d.DiskReadBytes)) +
		((d.DiskWriteBytes + d.NetRxBytes) + d.NetTxBytes)) * 0)
	sign := math.Float64bits(d.Active) | math.Float64bits(d.UopsPerCycle) |
		math.Float64bits(d.SpecActivity) | math.Float64bits(d.L2PerUop) |
		math.Float64bits(d.L3MissPerKuop) | math.Float64bits(d.DirtyEvictFrac) |
		math.Float64bits(d.Prefetchability) | math.Float64bits(d.TLBMissPerMuop) |
		math.Float64bits(d.UCPerMcycle) | math.Float64bits(d.WriteFrac) |
		math.Float64bits(d.MemLocality) | math.Float64bits(d.DiskReadBytes) |
		math.Float64bits(d.DiskWriteBytes) | math.Float64bits(d.NetRxBytes) |
		math.Float64bits(d.NetTxBytes)
	if z<<1|sign>>63 == 0 {
		return 0
	}
	n := 0
	for _, v := range [...]*float64{&d.Active, &d.UopsPerCycle, &d.SpecActivity, &d.L2PerUop,
		&d.L3MissPerKuop, &d.DirtyEvictFrac, &d.Prefetchability, &d.TLBMissPerMuop, &d.UCPerMcycle,
		&d.WriteFrac, &d.MemLocality, &d.DiskReadBytes, &d.DiskWriteBytes, &d.NetRxBytes, &d.NetTxBytes} {
		// NaN and every negative, −Inf included, fail v >= 0; −0 passes.
		if !(*v >= 0) || math.IsInf(*v, 1) {
			*v = 0
			n++
		}
	}
	return n
}

// Env carries the feedback a generator may react to, filled by the
// machine from the previous slice.
type Env struct {
	// BusUtil is the front-side-bus utilization in [0,1].
	BusUtil float64
	// DirtyBytes is the page cache's dirty-byte count.
	DirtyBytes float64
	// FlushActive reports whether a sync()-initiated writeback is still
	// draining to disk.
	FlushActive bool
}

// Generator produces one thread's demand stream.
type Generator interface {
	// Demand returns the thread's demand for the slice starting at t
	// seconds after the generator's own start.
	Demand(t float64, env Env, rng *sim.RNG) Demand
}

// Spec describes how to run a workload: how many instances, how they are
// staggered, and how to construct each instance.
type Spec struct {
	// Name is the workload name used throughout the tables.
	Name string
	// Class is the validation-table bucket.
	Class Class
	// Instances is the number of simultaneous single-threaded instances
	// (8 for the SPEC combinations: 4 processors x 2 hardware threads).
	Instances int
	// StaggerSec is the delay between instance starts.
	StaggerSec float64
	// DefaultDuration is the run length (seconds) used by the tables.
	DefaultDuration float64
	// Make constructs instance i (0-based).
	Make func(instance int, rng *sim.RNG) Generator
	// Steady, when non-nil, declares that every generator Make returns
	// demands exactly *Steady in every slice, whatever its Env and RNG.
	// The machine may then fast-forward a window in which every thread
	// is steady or empty without calling the generators
	// (internal/machine). A wrapper that changes or records the demand
	// must clear it.
	Steady *Demand
	// ChipsetDomainBias reproduces the paper's chipset measurement
	// artifact: the chipset rail is derived from multiple power domains
	// with a workload-dependent, non-deterministic coupling, which is
	// why the paper gives up and models chipset as a constant. The bias
	// offsets the measured (ground-truth) chipset power for this
	// workload.
	ChipsetDomainBias float64
}

// registry holds all known workloads.
var registry = map[string]Spec{}

func register(s Spec) {
	if _, dup := registry[s.Name]; dup {
		panic("workload: duplicate registration of " + s.Name)
	}
	registry[s.Name] = s
}

// ByName returns the spec for a registered workload.
func ByName(name string) (Spec, error) {
	s, ok := registry[name]
	if !ok {
		return Spec{}, fmt.Errorf("workload: unknown workload %q", name)
	}
	return s, nil
}

// ByClass returns the Table 1-ordered workloads of one validation class
// — the split behind the paper's Table 3 (integer) and Table 4
// (floating-point) and behind the per-class averages the conformance
// report mirrors them with.
func ByClass(c Class) []string {
	var out []string
	for _, name := range TableOrder() {
		if registry[name].Class == c {
			out = append(out, name)
		}
	}
	return out
}

// TableOrder returns the workloads in the paper's Table 1 row order.
func TableOrder() []string {
	return []string{
		"idle", "gcc", "mcf", "vortex", "art", "lucas", "mesa", "mgrid",
		"wupwise", "dbt-2", "specjbb", "diskload",
	}
}
