package power

import (
	"encoding/json"
	"math"
	"os"
	"testing"

	"trickledown/internal/cpu"
	"trickledown/internal/disk"
	"trickledown/internal/iobus"
	"trickledown/internal/mem"
)

// TestProfileValueMethodsMatchPointerMethods pins the by-value rail
// methods to the pointer-taking ones the slice stepper calls: each is a
// wrapper, so the two must agree bit for bit.
func TestProfileValueMethodsMatchPointerMethods(t *testing.T) {
	cs := cpu.SliceStats{Cycles: 2.8e6, ActiveFrac: 1, FetchedUops: 3e6, SpecUops: 1e6, L2Accesses: 2e6, FreqScale: 0.8}
	ms := mem.Stats{Activations: 20000, ReadBursts: 15000, WriteBursts: 9000, PrechargeFrac: 0.1}
	dsk := disk.Stats{SeekSec: 0.0005, XferSec: 0.001, StandbySec: 0.0002, SpinupSec: 0.0001}
	p := ServerProfile()
	if a, b := p.CPU(cs), p.CPUOf(&cs); a != b {
		t.Errorf("CPU: by value %v != by pointer %v", a, b)
	}
	if a, b := p.Memory(ms, 0.001), p.MemoryOf(&ms, 0.001); a != b {
		t.Errorf("Memory: %v != %v", a, b)
	}
	if a, b := p.Disk(dsk, 0.001, 2), p.DiskOf(&dsk, 0.001, 2); a != b {
		t.Errorf("Disk: %v != %v", a, b)
	}
}

// bladeProfile returns a low-power blade of the same era as the server:
// slower parts, lower rails, single-chip I/O, one small disk's worth of
// spindle power per unit. testdata/blade.json holds its overrides of
// ServerProfile; the machine package's TestMethodPortsToBladeProfile
// retrains the estimator on it.
func bladeProfile(t *testing.T) Profile {
	t.Helper()
	f, err := os.Open("testdata/blade.json")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	p := ServerProfile()
	dec := json.NewDecoder(f)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&p); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestBladeProfileIsLowerPower(t *testing.T) {
	server := ServerProfile()
	blade := bladeProfile(t)
	if err := blade.Validate(); err != nil {
		t.Fatal(err)
	}
	// Everything static should be cheaper.
	if blade.CPUHalt >= server.CPUHalt || blade.MemIdle >= server.MemIdle ||
		blade.ChipsetBase >= server.ChipsetBase || blade.IOBase >= server.IOBase {
		t.Error("blade static floors not below server")
	}
	cs := cpu.SliceStats{Cycles: 2.8e6, ActiveFrac: 1, FetchedUops: 4e6, SpecUops: 1e6, L2Accesses: 3e6}
	if blade.CPU(cs) >= server.CPU(cs) {
		t.Error("blade CPU power not below server at equal activity")
	}
	if blade.DiskIdle(1) >= server.DiskIdle(1) {
		t.Error("blade disk floor not below server")
	}
}

func TestProfileValidate(t *testing.T) {
	p := ServerProfile()
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	p.MemIdle = 0
	if p.Validate() == nil {
		t.Error("zero MemIdle accepted")
	}
	p = ServerProfile()
	p.CPUHalt = -1
	if p.Validate() == nil {
		t.Error("negative CPUHalt accepted")
	}
}

func TestProfileZeroSliceFloors(t *testing.T) {
	p := ServerProfile()
	if got := p.Memory(mem.Stats{}, 0); got != p.MemIdle {
		t.Errorf("zero-slice Memory = %v", got)
	}
	if got := p.IO(iobus.DMAStats{}, 1, 0); got != p.IOBase {
		t.Errorf("zero-slice IO = %v", got)
	}
	if got := p.Disk(disk.Stats{}, 0, 3); got != p.DiskIdle(3) {
		t.Errorf("zero-slice Disk = %v", got)
	}
	if got := p.CPU(cpu.SliceStats{}); math.Abs(got-p.CPUHalt) > 1e-12 {
		t.Errorf("zero-cycle CPU = %v", got)
	}
}
