// Package iobus models the paper's I/O subsystem: two I/O chips fanning
// out six 133 MHz PCI-X buses, a DMA engine moving device data to and
// from main memory, and an APIC-style interrupt controller delivering
// per-vector interrupts to the processors.
//
// Two trickle-down visibility points live here. First, DMA transfers
// appear on the processor memory bus because coherency requires snooping
// ("though DMA transactions do not originate in the processor, they are
// fortunately visible to the processor"). Second, devices raise
// completion interrupts whose vector identifies the source, which the OS
// (not the PMU — the P4 exposes no interrupt-source event) accounts in
// /proc/interrupts.
package iobus

import "fmt"

// Vector identifies an interrupt source.
type Vector int

// The interrupt sources present in the simulated server.
const (
	// VecTimer is the per-CPU OS scheduling tick.
	VecTimer Vector = iota
	// VecDisk is the SCSI controller's completion interrupt.
	VecDisk
	// VecNIC is the network adapter (background chatter only; the
	// paper's workloads do not exercise the network).
	VecNIC
	numVectors
)

// NumVectors is the number of defined interrupt vectors.
const NumVectors = int(numVectors)

var vectorNames = [...]string{
	VecTimer: "timer",
	VecDisk:  "scsi",
	VecNIC:   "eth0",
}

// String returns the /proc/interrupts-style source name.
func (v Vector) String() string {
	if v >= 0 && int(v) < len(vectorNames) {
		return vectorNames[v]
	}
	return fmt.Sprintf("vec(%d)", int(v))
}

// APIC routes device interrupts to CPUs round-robin and keeps the
// cumulative delivery matrix by vector and CPU — the numbers Linux
// renders as /proc/interrupts.
type APIC struct {
	numCPUs  int
	matrix   [numVectors][]uint64
	slice    []int // deliveries in the current slice, per CPU
	drained  []int // previous slice's deliveries, returned by DrainSlice
	sliceTot int
	rr       int
}

// NewAPIC returns an interrupt controller for numCPUs processors.
func NewAPIC(numCPUs int) *APIC {
	if numCPUs <= 0 {
		panic("iobus: APIC needs at least one CPU")
	}
	a := &APIC{
		numCPUs: numCPUs,
		slice:   make([]int, numCPUs),
		drained: make([]int, numCPUs),
	}
	for v := range a.matrix {
		a.matrix[v] = make([]uint64, numCPUs)
	}
	return a
}

// RaiseLocal delivers n interrupts of vector v to a specific CPU (the
// per-CPU local timer).
func (a *APIC) RaiseLocal(v Vector, cpuID, n int) {
	if n <= 0 || v < 0 || v >= numVectors || cpuID < 0 || cpuID >= a.numCPUs {
		return
	}
	a.matrix[v][cpuID] += uint64(n)
	a.slice[cpuID] += n
	a.sliceTot += n
}

// Raise delivers n interrupts of vector v, distributing them round-robin
// over the CPUs.
func (a *APIC) Raise(v Vector, n int) {
	if n <= 0 || v < 0 || v >= numVectors {
		return
	}
	for i := 0; i < n; i++ {
		cpu := a.rr
		a.rr = (a.rr + 1) % a.numCPUs
		a.matrix[v][cpu]++
		a.slice[cpu]++
	}
	a.sliceTot += n
}

// DrainSlice returns the interrupts delivered to each CPU since the last
// drain, plus the total, and resets the per-slice accumulators.
//
// The returned slice is an internal double buffer, valid only until the
// next DrainSlice call — this sits on the per-slice hot path, where a
// fresh allocation per drain dominated the whole simulator's allocation
// profile. Callers that keep per-CPU counts across slices must copy.
func (a *APIC) DrainSlice() (perCPU []int, total int) {
	a.slice, a.drained = a.drained, a.slice
	total = a.sliceTot
	for i := range a.slice {
		a.slice[i] = 0
	}
	a.sliceTot = 0
	return a.drained, total
}

// Matrix returns a copy of the cumulative delivery matrix, indexed
// [vector][cpu].
func (a *APIC) Matrix() [][]uint64 {
	out := make([][]uint64, numVectors)
	for v := range a.matrix {
		out[v] = append([]uint64(nil), a.matrix[v]...)
	}
	return out
}

// CacheLine is the coherent transfer unit on the processor memory bus.
const CacheLine = 64

// dmaOverheadTx is the descriptor/doorbell bus traffic per transfer.
const dmaOverheadTx = 4

// writeCombineEfficiency scales small-transfer bus traffic: the I/O chips
// combine adjacent transactions, but sub-line and unaligned pieces still
// cost whole lines ("a cache line access measured as a single DMA event
// ... may contain only a single byte").
const writeCombineEfficiency = 0.9

// DMAStats summarizes DMA engine activity over one slice.
type DMAStats struct {
	// BusTx is coherent memory-bus transactions generated.
	BusTx float64
	// Bytes is total payload moved; WriteBytes the to-memory subset.
	Bytes      float64
	WriteBytes float64
	// Transfers is the number of DMA transfers programmed.
	Transfers int
}

// DMAEngine converts device transfers into processor-visible memory-bus
// traffic.
type DMAEngine struct {
	cur DMAStats
}

// NewDMAEngine returns an idle engine.
func NewDMAEngine() *DMAEngine { return &DMAEngine{} }

// Transfer programs one DMA transfer of the given payload. toMemory is
// true for device-to-memory (disk read into the page cache) and false
// for memory-to-device (page cache flush to disk).
func (e *DMAEngine) Transfer(bytes float64, toMemory bool) {
	if bytes <= 0 {
		return
	}
	lines := bytes / CacheLine / writeCombineEfficiency
	e.cur.BusTx += lines + dmaOverheadTx
	e.cur.Bytes += bytes
	if toMemory {
		e.cur.WriteBytes += bytes
	}
	e.cur.Transfers++
}

// DrainSlice returns and resets the activity accumulated since the last
// drain.
func (e *DMAEngine) DrainSlice() DMAStats {
	out := e.cur
	e.cur = DMAStats{}
	return out
}

// Subsystem bundles the I/O chips' per-slice activity for the power
// model: DMA payload through the chips, PCI transactions, and interrupt
// deliveries (message signalling work in the chips).
type Subsystem struct {
	APIC *APIC
	DMA  *DMAEngine
}

// New returns the I/O subsystem for numCPUs processors.
func New(numCPUs int) *Subsystem {
	return &Subsystem{APIC: NewAPIC(numCPUs), DMA: NewDMAEngine()}
}
