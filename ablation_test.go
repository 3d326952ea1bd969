package trickledown_test

import (
	"testing"

	"trickledown/internal/core"
	"trickledown/internal/machine"
	"trickledown/internal/power"
	"trickledown/internal/stats"
)

// TestModelSelectionNarrative asserts the quantitative core of the
// paper's Sections 4.2.3/4.2.4 model selection: interrupt-driven models
// win for disk and I/O, and uncacheable-access models lose badly once
// the DC offset is removed.
func TestModelSelectionNarrative(t *testing.T) {
	train, err := machine.RunWorkload("diskload", 120, 10)
	if err != nil {
		t.Fatal(err)
	}
	eval, err := machine.RunWorkload("diskload", 120, 100)
	if err != nil {
		t.Fatal(err)
	}

	fit := func(spec core.ModelSpec) *core.Model {
		t.Helper()
		m, err := core.Train(spec, train)
		if err != nil {
			t.Fatalf("training %s: %v", spec.Name, err)
		}
		return m
	}
	// dcErr is Equation 6 after removing a DC offset, the paper's
	// procedure for the disk model ("this error is calculated by first
	// subtracting the 21.6W of idle (DC) disk power consumption").
	dcErr := func(m *core.Model, dc float64) float64 {
		t.Helper()
		measured, modeled := m.Trace(eval)
		e, err := stats.AverageErrorOffset(modeled, measured, dc)
		if err != nil {
			t.Fatalf("validating %s: %v", m.Spec.Name, err)
		}
		return e
	}

	diskDC := power.DiskIdlePower(2)
	disk := dcErr(fit(core.DiskSpec()), diskDC)
	diskUC := dcErr(fit(core.DiskUncacheableSpec()), diskDC)
	if diskUC < 4*disk {
		t.Errorf("uncacheable disk model error %.1f%% should dwarf Eq.4's %.1f%%", diskUC, disk)
	}

	io := dcErr(fit(core.IOSpec()), power.IOBasePower)
	ioUC := dcErr(fit(core.IOUncacheableSpec()), power.IOBasePower)
	if ioUC < 4*io {
		t.Errorf("uncacheable I/O model error %.1f%% should dwarf Eq.5's %.1f%%", ioUC, io)
	}

	// Raw-error ordering: the production models beat the rejected DMA
	// variants on the training-style workload.
	rawErr := func(m *core.Model) float64 {
		e, err := m.Validate(eval)
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	if d, alt := rawErr(fit(core.DiskSpec())), rawErr(fit(core.DiskDMASpec())); alt < d {
		t.Errorf("DMA-only disk model (%.3f%%) beat Eq.4 (%.3f%%)", alt, d)
	}
}

// TestHeadlineClaim asserts the paper's abstract: the five models
// estimate subsystem power "with an average error of less than 9% per
// subsystem" across the full workload set.
func TestHeadlineClaim(t *testing.T) {
	if testing.Short() {
		t.Skip("full validation sweep")
	}
	gcc, err := machine.RunWorkload("gcc", 180, 10)
	if err != nil {
		t.Fatal(err)
	}
	mcf, err := machine.RunWorkload("mcf", 200, 10)
	if err != nil {
		t.Fatal(err)
	}
	dl, err := machine.RunWorkload("diskload", 150, 10)
	if err != nil {
		t.Fatal(err)
	}
	est, err := core.TrainEstimator(core.TrainingSet{
		CPU: gcc, Memory: mcf, Disk: dl, IO: dl, Chipset: gcc,
	})
	if err != nil {
		t.Fatal(err)
	}
	workloads := []string{
		"idle", "gcc", "mcf", "vortex", "art", "lucas", "mesa", "mgrid",
		"wupwise", "dbt-2", "specjbb", "diskload",
	}
	sums := make(map[power.Subsystem]float64)
	for _, name := range workloads {
		ds, err := machine.RunWorkload(name, 120, 200)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range power.Subsystems() {
			e, err := est.Model(s).Validate(ds)
			if err != nil {
				t.Fatalf("%s on %s: %v", s, name, err)
			}
			sums[s] += e
		}
	}
	for _, s := range power.Subsystems() {
		avg := sums[s] / float64(len(workloads))
		if avg >= 9 {
			t.Errorf("%s average error %.2f%% breaks the <9%% headline", s, avg)
		}
	}
}
