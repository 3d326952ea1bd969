// Package power computes the ground-truth power consumption of each
// subsystem from *local* physical activity — the role played in the
// paper by sense resistors on the five supply rails. The functional
// forms here are mechanistic (DRAM state residency and per-event
// energies after Janzen; disk mode residency after Zedlewski; CMOS
// switching for chipset and I/O; per-core halt gating) and deliberately
// different from the CPU-event regression models in internal/core, so
// that the fitted models' residual error is earned, not assumed.
package power

import "math"

// Subsystem identifies one of the five measured rails.
type Subsystem int

// The paper's five subsystems, in Table 1 column order.
const (
	SubCPU Subsystem = iota
	SubChipset
	SubMemory
	SubIO
	SubDisk
	numSubsystems
)

// NumSubsystems is the number of measured rails.
const NumSubsystems = int(numSubsystems)

var subNames = [...]string{"CPU", "Chipset", "Memory", "I/O", "Disk"}

// String returns the subsystem's display name.
func (s Subsystem) String() string {
	if s >= 0 && int(s) < len(subNames) {
		return subNames[s]
	}
	return "Unknown"
}

// Subsystems returns the five subsystems in table order.
func Subsystems() []Subsystem {
	return []Subsystem{SubCPU, SubChipset, SubMemory, SubIO, SubDisk}
}

// CPU ground-truth parameters (per processor, Watts).
const (
	// CPUHaltPower is the clock-gated floor the paper observes (~9 W).
	CPUHaltPower = 9.4
	// CPUActiveIdleDelta is the additional power of an unhalted but
	// stalled core (unhalted idle ~36 W per the paper, less the halt
	// floor and minus headroom recovered by per-unit gating).
	CPUActiveIdleDelta = 22.0
	// cpuUopEnergy scales with fetched uops per cycle.
	cpuUopEnergy = 3.4
	// cpuSpecEnergy scales with speculative issue activity per cycle —
	// real power the fetch counter cannot see.
	cpuSpecEnergy = 2.9
	// cpuL2Energy scales with L2 accesses per cycle.
	cpuL2Energy = 0.9
)

// VoltageScale returns the supply-voltage fraction the DVFS table pairs
// with a frequency fraction f: voltage cannot drop as fast as frequency,
// so V(f) = 0.75 + 0.25·f (normalized). Dynamic power then scales with
// f·V².
func VoltageScale(f float64) float64 {
	if f < 0 {
		f = 0
	}
	if f > 1 {
		f = 1
	}
	return 0.75 + 0.25*f
}

// Memory ground-truth parameters.
const (
	// MemIdlePower covers DRAM background (refresh, standby) plus the
	// memory controller.
	MemIdlePower = 28.0
	// memActEnergy is Joules per row activation+precharge pair.
	memActEnergy = 0.42e-6
	// memReadEnergy and memWriteEnergy are Joules per burst; writes cost
	// more, which the bus-transaction model cannot see (the paper's FP
	// underestimation).
	memReadEnergy  = 0.060e-6
	memWriteEnergy = 0.210e-6
	// memPrechargeStandby is the extra standby power while banks sit in
	// precharge rather than idle.
	memPrechargeStandby = 1.5
)

// Chipset ground-truth parameters.
const (
	// ChipsetBasePower is the interface chips' static floor.
	ChipsetBasePower = 18.0
	// chipsetFSBEnergy scales with front-side-bus utilization.
	chipsetFSBEnergy = 1.9
)

// I/O ground-truth parameters.
const (
	// IOBasePower is the two I/O chips plus six PCI-X bridges, populated
	// or not — the large DC term the paper remarks on.
	IOBasePower = 32.75
	// ioDMAEnergy is Joules per DMA payload byte through the chips.
	ioDMAEnergy = 14e-9
	// ioIntEnergy is Joules per device interrupt message.
	ioIntEnergy = 1.7e-3
)

// Disk ground-truth parameters (per spindle).
const (
	// diskElectronics is the controller and drive electronics.
	diskElectronics = 1.95
	// diskSpindlePower is rotation, consumed always — the paper's server
	// disks "lack the ability to halt rotation during idle phases".
	diskSpindlePower = 8.85
	// diskSeekPower is the voice-coil power while seeking.
	diskSeekPower = 0.15
	// diskXferPower is the head/channel power while transferring.
	diskXferPower = 0.40
)

// DiskIdlePower returns the subsystem's DC floor for n spindles on the
// paper's machine.
func DiskIdlePower(n int) float64 {
	p := ServerProfile()
	return p.DiskIdle(n)
}

// diskSpinupPower is the surge while restoring rotation (the motor
// works hardest against stiction).
const diskSpinupPower = 14.0

// Reading is one slice's ground truth for all five rails, in Watts.
type Reading [NumSubsystems]float64

// Total returns full-system power.
func (r Reading) Total() float64 {
	t := 0.0
	for _, v := range r {
		t += v
	}
	return t
}

// NonFinite returns the first rail of r that is NaN or ±Inf, or -1 when
// every rail is a finite number.
func (r Reading) NonFinite() Subsystem {
	for i, v := range r {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return Subsystem(i)
		}
	}
	return -1
}
