package power

import (
	"fmt"

	"trickledown/internal/chipset"
	"trickledown/internal/cpu"
	"trickledown/internal/disk"
	"trickledown/internal/iobus"
	"trickledown/internal/mem"
)

// Profile parameterizes the ground-truth power of a whole machine
// generation. The paper's premise is that the *method* — fit small
// regressions from CPU events to rail power — is general, while the
// fitted coefficients belong to one machine; a Profile is "one machine"
// made explicit. ServerProfile is the paper's 4-way Xeon box.
type Profile struct {
	// CPU terms (per processor, Watts).
	CPUHalt        float64
	CPUActiveDelta float64
	CPUUop         float64
	CPUSpec        float64
	CPUL2          float64
	// Memory terms.
	MemIdle             float64
	MemActEnergy        float64 // J per activation
	MemReadEnergy       float64 // J per read burst
	MemWriteEnergy      float64 // J per write burst
	MemPrechargeStandby float64
	// Chipset terms.
	ChipsetBase float64
	ChipsetFSB  float64
	// I/O terms.
	IOBase      float64
	IODMAEnergy float64 // J per DMA byte
	IOIntEnergy float64 // J per device interrupt
	// Disk terms (per spindle).
	DiskElectronics float64
	DiskSpindle     float64
	DiskSeek        float64
	DiskXfer        float64
	DiskSpinup      float64
}

// ServerProfile is the paper's target machine; its values are the
// calibration behind Tables 1-4.
func ServerProfile() Profile {
	return Profile{
		CPUHalt:        CPUHaltPower,
		CPUActiveDelta: CPUActiveIdleDelta,
		CPUUop:         cpuUopEnergy,
		CPUSpec:        cpuSpecEnergy,
		CPUL2:          cpuL2Energy,

		MemIdle:             MemIdlePower,
		MemActEnergy:        memActEnergy,
		MemReadEnergy:       memReadEnergy,
		MemWriteEnergy:      memWriteEnergy,
		MemPrechargeStandby: memPrechargeStandby,

		ChipsetBase: ChipsetBasePower,
		ChipsetFSB:  chipsetFSBEnergy,

		IOBase:      IOBasePower,
		IODMAEnergy: ioDMAEnergy,
		IOIntEnergy: ioIntEnergy,

		DiskElectronics: diskElectronics,
		DiskSpindle:     diskSpindlePower,
		DiskSeek:        diskSeekPower,
		DiskXfer:        diskXferPower,
		DiskSpinup:      diskSpinupPower,
	}
}

// Validate reports the first nonsensical (non-positive static floor)
// field, or nil.
func (p *Profile) Validate() error {
	checks := []struct {
		name string
		v    float64
	}{
		{"CPUHalt", p.CPUHalt},
		{"MemIdle", p.MemIdle},
		{"ChipsetBase", p.ChipsetBase},
		{"IOBase", p.IOBase},
		{"DiskElectronics", p.DiskElectronics},
		{"DiskSpindle", p.DiskSpindle},
	}
	for _, c := range checks {
		if c.v <= 0 {
			return fmt.Errorf("power: profile field %s must be positive, got %v", c.name, c.v)
		}
	}
	return nil
}

// CPU returns one processor's power for a slice. It is CPUOf on a copy
// of st.
func (p *Profile) CPU(st cpu.SliceStats) float64 { return p.CPUOf(&st) }

// CPUOf returns one processor's power for the slice summarised by *st.
// The per-cycle rates are frequency-independent; dynamic power scales
// with f·V(f)² and the halt floor (largely leakage) with V(f).
func (p *Profile) CPUOf(st *cpu.SliceStats) float64 {
	f := st.FreqScale
	if f <= 0 {
		f = 1
	}
	v := VoltageScale(f)
	fv2 := f * v * v
	if st.Cycles <= 0 {
		return p.CPUHalt * v
	}
	upc := st.FetchedUops / st.Cycles
	spec := st.SpecUops / st.Cycles
	l2 := st.L2Accesses / st.Cycles
	return p.CPUHalt*v + (p.CPUActiveDelta*st.ActiveFrac+
		p.CPUUop*upc+p.CPUSpec*spec+p.CPUL2*l2)*fv2
}

// Memory returns the DRAM+controller power for a slice. It is MemoryOf
// on a copy of st.
func (p *Profile) Memory(st mem.Stats, sliceSec float64) float64 {
	return p.MemoryOf(&st, sliceSec)
}

// MemoryOf returns the DRAM+controller power for a slice of the given
// duration with the activity *st.
func (p *Profile) MemoryOf(st *mem.Stats, sliceSec float64) float64 {
	if sliceSec <= 0 {
		return p.MemIdle
	}
	dynamic := (st.Activations*p.MemActEnergy +
		st.ReadBursts*p.MemReadEnergy +
		st.WriteBursts*p.MemWriteEnergy) / sliceSec
	return p.MemIdle + dynamic + p.MemPrechargeStandby*st.PrechargeFrac
}

// Chipset returns the chipset rail power for a slice, including the
// multi-domain measurement artifact (drift + workload bias) that the
// paper's constant model cannot track.
func (p *Profile) Chipset(st chipset.Stats) float64 {
	return p.ChipsetBase + p.ChipsetFSB*st.FSBUtil + st.DomainDrift + st.DomainBias
}

// IO returns the I/O subsystem power for a slice. deviceInts counts
// device (non-timer) interrupts delivered during the slice.
func (p *Profile) IO(dma iobus.DMAStats, deviceInts float64, sliceSec float64) float64 {
	if sliceSec <= 0 {
		return p.IOBase
	}
	if deviceInts < 0 {
		deviceInts = 0
	}
	return p.IOBase + (dma.Bytes*p.IODMAEnergy+deviceInts*p.IOIntEnergy)/sliceSec
}

// DiskIdle returns the profile's disk DC floor for n spindles.
func (p *Profile) DiskIdle(n int) float64 {
	return float64(n) * (p.DiskElectronics + p.DiskSpindle)
}

// Disk returns the disk subsystem power for a slice. It is DiskOf on a
// copy of st.
func (p *Profile) Disk(st disk.Stats, sliceSec float64, numDisks int) float64 {
	return p.DiskOf(&st, sliceSec, numDisks)
}

// DiskOf returns the disk subsystem power for a slice. *st must
// aggregate all spindles; numDisks scales the static terms. Spindles in
// standby shed their rotation power (the saving the paper's server disks
// could not reach); spin-up pays a motor surge.
func (p *Profile) DiskOf(st *disk.Stats, sliceSec float64, numDisks int) float64 {
	idle := p.DiskIdle(numDisks)
	if sliceSec <= 0 {
		return idle
	}
	w := idle + (st.SeekSec*p.DiskSeek+st.XferSec*p.DiskXfer)/sliceSec
	w -= p.DiskSpindle * (st.StandbySec + st.SpinupSec) / sliceSec
	w += p.DiskSpinup * st.SpinupSec / sliceSec
	return w
}
