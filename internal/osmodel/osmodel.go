// Package osmodel provides the operating-system services the paper's
// methodology passes through: the periodic scheduler timer that wakes
// halted processors ("it is typically the periodic OS timer that is used
// for process scheduling/preemption"), the page cache whose sync()-driven
// writeback shapes the DiskLoad workload, the translation of file I/O
// into disk-controller requests and DMA, and the /proc/interrupts
// accounting the paper reads because the P4 exposes no interrupt-source
// performance event.
package osmodel

import (
	"trickledown/internal/disk"
	"trickledown/internal/iobus"
	"trickledown/internal/sim"
	"trickledown/internal/workload"
)

// Config holds OS tunables.
type Config struct {
	// NumCPUs is the number of physical processors receiving local timer
	// ticks.
	NumCPUs int
	// TimerHz is the per-CPU scheduler tick rate.
	TimerHz float64
	// NICPerSec is background network interrupt chatter.
	NICPerSec float64
}

// DefaultConfig mirrors a 2006-era Linux server: 1 kHz tick.
func DefaultConfig(numCPUs int) Config {
	return Config{
		NumCPUs:   numCPUs,
		TimerHz:   1000,
		NICPerSec: 90,
	}
}

// The I/O path's fixed tunables, those of a 2006-era Linux server with
// a deep queue.
const (
	// nicCoalesceBytes is the NIC's interrupt-coalescing threshold: one
	// completion interrupt per this many payload bytes.
	nicCoalesceBytes = 64 * 1024
	// randomReadMissRatio is the page-cache miss probability for random
	// (OLTP) reads; sequential cold reads always miss.
	randomReadMissRatio = 0.75
	// flushChunkBytes is the writeback request size during sync().
	flushChunkBytes = 256 * 1024
	// maxOutstanding bounds writeback chunks queued at the disk
	// controller.
	maxOutstanding = 64
)

// Result reports what the OS and I/O path did during one slice.
type Result struct {
	// Disk aggregates the disk subsystem's activity.
	Disk disk.Stats
	// DMA aggregates the DMA engine's bus traffic.
	DMA iobus.DMAStats
	// IntsPerCPU is interrupts delivered to each CPU this slice; IntsTotal
	// their sum.
	IntsPerCPU []int
	IntsTotal  int
	// DeviceInts is the subset of IntsTotal raised by I/O devices (disk,
	// NIC) rather than the per-CPU timer; only these load the I/O chips.
	DeviceInts int
	// DirtyBytes is the page cache's dirty payload after the slice.
	DirtyBytes float64
	// FlushActive reports whether a sync() writeback is still draining.
	FlushActive bool
}

// OS is the operating-system layer of the simulated server.
type OS struct {
	cfg  Config
	apic *iobus.APIC
	dma  *iobus.DMAEngine
	ctl  *disk.Controller
	rng  *sim.RNG

	dirty      float64   // dirty page-cache bytes not yet scheduled for writeback
	nicCredit  float64   // fractional coalesced NIC interrupts carried over
	busySec    []float64 // cumulative per-CPU busy time (the /proc/stat view)
	threadBusy []float64 // cumulative per-hardware-thread busy time
	flushLeft  float64   // bytes still to submit for the active sync
	inFlightWr float64   // write bytes submitted but not yet transferred
	timerAcc   float64   // fractional timer ticks carried between slices
}

// New wires the OS over the interrupt controller, DMA engine and disk
// controller.
func New(cfg Config, io *iobus.Subsystem, ctl *disk.Controller, parent *sim.RNG) *OS {
	if cfg.NumCPUs <= 0 {
		panic("osmodel: config needs at least one CPU")
	}
	return &OS{
		cfg:     cfg,
		apic:    io.APIC,
		dma:     io.DMA,
		ctl:     ctl,
		rng:     parent.Split(),
		busySec: make([]float64, cfg.NumCPUs),
	}
}

// FlushActive reports whether a sync() writeback is in progress.
func (o *OS) FlushActive() bool { return o.flushLeft > 0 || o.inFlightWr > 1 }

// Step runs the OS for one slice and returns its Result. It is StepInto
// on a fresh struct.
func (o *OS) Step(c *sim.Clock, demands []workload.Demand) Result {
	var res Result
	o.StepInto(&res, c, demands)
	return res
}

// StepInto runs the OS for one slice: delivers timer and background
// interrupts, converts the threads' file I/O into disk requests, advances
// the disk array, performs the DMA its transfers imply, and raises
// completion interrupts. It writes the slice's Result into *res,
// overwriting every field; the machine passes a long-lived slot so no
// Result is copied per slice. res.IntsPerCPU aliases the interrupt
// controller's buffer and is valid until the next step.
func (o *OS) StepInto(res *Result, c *sim.Clock, demands []workload.Demand) {
	sliceSec := c.SliceSeconds()

	// Local timer tick on every CPU.
	timerInts := 0
	o.timerAcc += o.cfg.TimerHz * sliceSec
	for o.timerAcc >= 1 {
		o.timerAcc--
		for cpuID := 0; cpuID < o.cfg.NumCPUs; cpuID++ {
			o.apic.RaiseLocal(iobus.VecTimer, cpuID, 1)
			timerInts++
		}
	}
	// Background NIC chatter.
	if n := o.rng.Poisson(o.cfg.NICPerSec * sliceSec); n > 0 {
		o.apic.Raise(iobus.VecNIC, int(n))
	}

	// Scheduler accounting: per-CPU busy time as /proc/stat would show
	// it, and per-thread busy time as per-process accounting would.
	// Threads are placed two per processor in order.
	if n := len(demands); n >= 2*o.cfg.NumCPUs {
		if len(o.threadBusy) < n {
			o.threadBusy = append(o.threadBusy, make([]float64, n-len(o.threadBusy))...)
		}
		for cpuID := 0; cpuID < o.cfg.NumCPUs; cpuID++ {
			a0 := demands[2*cpuID].Active
			a1 := demands[2*cpuID+1].Active
			o.busySec[cpuID] += (1 - (1-a0)*(1-a1)) * sliceSec
			o.threadBusy[2*cpuID] += a0 * sliceSec
			o.threadBusy[2*cpuID+1] += a1 * sliceSec
		}
	}

	// File I/O from the threads.
	for i := range demands {
		o.handleIO(&demands[i])
	}
	// Feed the disk queues from the flush backlog.
	o.submitFlush()

	// Advance the disks; their media transfers are DMA on the memory bus.
	dstats := &res.Disk
	o.ctl.StepInto(dstats, sliceSec)
	if dstats.ReadBytes > 0 {
		o.dma.Transfer(dstats.ReadBytes, true)
	}
	if dstats.WriteBytes > 0 {
		o.dma.Transfer(dstats.WriteBytes, false)
		o.inFlightWr -= dstats.WriteBytes
		if o.inFlightWr < 0 {
			o.inFlightWr = 0
		}
	}
	if dstats.Completions > 0 {
		o.apic.Raise(iobus.VecDisk, dstats.Completions)
	}

	res.IntsPerCPU, res.IntsTotal = o.apic.DrainSlice()
	res.DMA = o.dma.DrainSlice()
	res.DeviceInts = res.IntsTotal - timerInts
	res.DirtyBytes = o.dirty
	res.FlushActive = o.FlushActive()
}

// handleIO routes one thread's slice I/O through the page cache and the
// network stack.
func (o *OS) handleIO(d *workload.Demand) {
	if net := d.NetRxBytes + d.NetTxBytes; net > 0 {
		// NIC payload is DMA through main memory in both directions;
		// receive writes to memory, transmit reads from it.
		if d.NetRxBytes > 0 {
			o.dma.Transfer(d.NetRxBytes, true)
		}
		if d.NetTxBytes > 0 {
			o.dma.Transfer(d.NetTxBytes, false)
		}
		// Interrupt coalescing: fractional credits accumulate.
		o.nicCredit += net / nicCoalesceBytes
		if o.nicCredit >= 1 {
			n := int(o.nicCredit)
			o.nicCredit -= float64(n)
			o.apic.Raise(iobus.VecNIC, n)
		}
	}
	if d.DiskWriteBytes > 0 {
		if d.RandomIO {
			// Synchronous database-style write: straight to disk.
			o.ctl.Submit(disk.Request{Bytes: d.DiskWriteBytes, Write: true})
			o.inFlightWr += d.DiskWriteBytes
		} else {
			// Buffered write: dirty the page cache.
			o.dirty += d.DiskWriteBytes
		}
	}
	if d.DiskReadBytes > 0 {
		miss := true
		if d.RandomIO {
			miss = o.rng.Bernoulli(randomReadMissRatio)
		}
		if miss {
			o.ctl.Submit(disk.Request{
				Bytes:      d.DiskReadBytes,
				Sequential: !d.RandomIO,
			})
		}
	}
	if d.Sync {
		// sync(): schedule every dirty byte for writeback.
		o.flushLeft += o.dirty
		o.dirty = 0
	}
}

// submitFlush feeds sequential writeback chunks to the controller without
// overrunning the queue. Outstanding depth is tracked as un-transferred
// write bytes, measured in chunks.
func (o *OS) submitFlush() {
	for o.flushLeft > 0 {
		outstanding := int(o.inFlightWr / flushChunkBytes)
		if outstanding >= maxOutstanding {
			return
		}
		chunk := float64(flushChunkBytes)
		if chunk > o.flushLeft {
			chunk = o.flushLeft
		}
		o.ctl.Submit(disk.Request{Bytes: chunk, Write: true, Sequential: true})
		o.inFlightWr += chunk
		o.flushLeft -= chunk
	}
}

// BusySeconds returns the cumulative per-CPU busy time, the
// OS-level utilization counter that Heath-style and Kotla-style models
// consume instead of hardware events ("reading operating system counters
// requires relatively slow access using system service routines").
func (o *OS) BusySeconds() []float64 {
	return append([]float64(nil), o.busySec...)
}

// threadBusyView adapts per-thread busy accounting to the UtilSource
// shape.
type threadBusyView struct{ o *OS }

func (v threadBusyView) BusySeconds() []float64 {
	return append([]float64(nil), v.o.threadBusy...)
}

// ThreadBusySource returns a view of cumulative per-hardware-thread busy
// time — the per-process CPU accounting behind job-level power
// attribution.
func (o *OS) ThreadBusySource() interface{ BusySeconds() []float64 } {
	return threadBusyView{o}
}
