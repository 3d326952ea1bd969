package machine

import (
	"reflect"
	"testing"

	"trickledown/internal/align"
	"trickledown/internal/core"
	"trickledown/internal/cpu"
	"trickledown/internal/power"
)

// dvfsRun runs gcc with the frequency stepped through a schedule,
// returning the aligned dataset. Stagger is compressed so all instances
// run from early on.
func dvfsRun(t *testing.T, seed uint64, schedule []float64, secsPer float64) *align.Dataset {
	t.Helper()
	spec := mustSpec(t, "gcc")
	spec.StaggerSec = 1
	cfg := DefaultConfig()
	cfg.Seed = seed
	srv, err := New(cfg, spec)
	if err != nil {
		t.Fatal(err)
	}
	srv.Run(20) // settle at nominal
	for _, f := range schedule {
		srv.SetFreqScaleAll(f)
		srv.Run(secsPer)
	}
	ds, err := srv.Dataset()
	if err != nil {
		t.Fatal(err)
	}
	return ds.Skip(20)
}

// settingRun runs idle for a few seconds with set applied first and
// returns what the counters and the DAQ recorded.
func settingRun(t *testing.T, set func(*Server)) *align.Dataset {
	t.Helper()
	srv, err := New(DefaultConfig(), mustSpec(t, "idle"))
	if err != nil {
		t.Fatal(err)
	}
	set(srv)
	srv.Run(3)
	ds, err := srv.Dataset()
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// TestFreqScaleBounds: SetFreqScaleAll clamps to [cpu.MinFreqScale, 1],
// so a scale below the floor runs exactly like the floor and one above
// nominal exactly like nominal.
func TestFreqScaleBounds(t *testing.T) {
	freq := func(scale float64) *align.Dataset {
		return settingRun(t, func(s *Server) { s.SetFreqScaleAll(scale) })
	}
	floor, nominal := freq(cpu.MinFreqScale), freq(1)
	if reflect.DeepEqual(floor, nominal) {
		t.Fatal("the floor runs like nominal; the test cannot see a clamp")
	}
	if !reflect.DeepEqual(freq(0.1), floor) {
		t.Errorf("scale 0.1 not clamped to the %v floor", cpu.MinFreqScale)
	}
	if !reflect.DeepEqual(freq(5), nominal) {
		t.Error("scale 5 not clamped to nominal")
	}
}

func TestDVFSReducesPowerAndCycles(t *testing.T) {
	full := dvfsRun(t, 5, []float64{1.0}, 30)
	half := dvfsRun(t, 5, []float64{0.5}, 30)
	fullP, halfP := 0.0, 0.0
	var fullCyc, halfCyc uint64
	for i := range full.Rows {
		fullP += full.Rows[i].Power[power.SubCPU]
		fullCyc += full.Rows[i].Counters.CPUs[0].Cycles
	}
	for i := range half.Rows {
		halfP += half.Rows[i].Power[power.SubCPU]
		halfCyc += half.Rows[i].Counters.CPUs[0].Cycles
	}
	fullP /= float64(len(full.Rows))
	halfP /= float64(len(half.Rows))
	if halfP >= 0.75*fullP {
		t.Errorf("half frequency cut power only to %v of %v", halfP, fullP)
	}
	// Cycles per interval reveal the operating point to software.
	ratio := float64(halfCyc) / float64(fullCyc) * float64(len(full.Rows)) / float64(len(half.Rows))
	if ratio < 0.45 || ratio > 0.55 {
		t.Errorf("cycle ratio = %v, want ~0.5", ratio)
	}
}

func TestFrequencyVisibleInMetrics(t *testing.T) {
	ds := dvfsRun(t, 6, []float64{0.7}, 20)
	// Every processor runs at 0.7, so the mean inferred voltage scale
	// is V(0.7).
	m := core.ExtractMetrics(&ds.Rows[ds.Len()-1].Counters)
	if v := m[core.SumV] / m[core.NumCPUs]; v < power.VoltageScale(0.65) || v > power.VoltageScale(0.75) {
		t.Errorf("mean inferred voltage scale %v, want ~V(0.7) = %v", v, power.VoltageScale(0.7))
	}
}

// The extension's point: Eq. 1 trained at nominal frequency misestimates
// scaled processors, while the fV² variant trained on a
// frequency-stepped trace tracks them.
func TestDVFSModelBeatsEq1UnderScaling(t *testing.T) {
	// Train both models on a trace that sweeps operating points.
	train := dvfsRun(t, 10, []float64{1.0, 0.8, 0.6, 0.5, 0.9, 0.7}, 25)
	eq1Train := dvfsRun(t, 10, []float64{1.0}, 120) // Eq. 1's world: fixed clock
	eq1, err := core.Train(core.CPUSpec(), eq1Train)
	if err != nil {
		t.Fatal(err)
	}
	dvfs, err := core.Train(core.CPUDVFSSpec(), train)
	if err != nil {
		t.Fatal(err)
	}
	// Evaluate on an unseen run at a reduced operating point.
	eval := dvfsRun(t, 99, []float64{0.6}, 60)
	e1, err := eq1.Validate(eval)
	if err != nil {
		t.Fatal(err)
	}
	ed, err := dvfs.Validate(eval)
	if err != nil {
		t.Fatal(err)
	}
	if ed >= e1 {
		t.Errorf("DVFS-aware model (%.2f%%) should beat fixed-frequency Eq.1 (%.2f%%)", ed, e1)
	}
	if e1 < 5 {
		t.Errorf("Eq.1 error at 0.6x clock = %.2f%%, expected a clear failure (>5%%)", e1)
	}
	if ed > 5 {
		t.Errorf("DVFS-aware error = %.2f%%, want <5%%", ed)
	}
}

func TestDVFSCutsCPUPower(t *testing.T) {
	spec := mustSpec(t, "gcc")
	spec.StaggerSec = 1
	run := func(freq float64) float64 {
		cfg := DefaultConfig()
		cfg.Seed = 3
		srv, err := New(cfg, spec)
		if err != nil {
			t.Fatal(err)
		}
		srv.Run(15)
		srv.SetFreqScaleAll(freq)
		srv.Run(20)
		ds, err := srv.Dataset()
		if err != nil {
			t.Fatal(err)
		}
		var sum float64
		rows := ds.Rows[20:]
		for _, row := range rows {
			sum += row.Power[power.SubCPU]
		}
		return sum / float64(len(rows))
	}
	if full, dvfs := run(1), run(0.6); dvfs >= full {
		t.Errorf("power ordering broken: full %v, dvfs %v", full, dvfs)
	}
}

func TestCustomSamplePeriod(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SamplePeriodSec = 0.5
	srv, err := New(cfg, mustSpec(t, "idle"))
	if err != nil {
		t.Fatal(err)
	}
	srv.Run(10)
	ds, err := srv.Dataset()
	if err != nil {
		t.Fatal(err)
	}
	if ds.Len() < 18 || ds.Len() > 21 {
		t.Errorf("0.5s sampling produced %d samples in 10s", ds.Len())
	}
}
