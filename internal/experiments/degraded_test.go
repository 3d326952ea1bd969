package experiments

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"
)

// failingRunner fails every dataset request for the named workload —
// the injected equivalent of one validation run dying mid-suite.
func failingRunner(name string) *Runner {
	r := NewRunner(Options{Seed: 100, TrainSeed: 10, Scale: 0.01, Workers: 4})
	r.failDataset = func(wl string) error {
		if wl == name {
			return fmt.Errorf("injected: %s run lost", name)
		}
		return nil
	}
	return r
}

// TestErrorTableDegradesFailedCells: a workload whose validation fails
// becomes an n/a row, the remaining rows and their average still
// compute, and CellErrors explains what was lost. vortex is validation
// only — the training traces (gcc, mcf, diskload) stay healthy.
func TestErrorTableDegradesFailedCells(t *testing.T) {
	r := failingRunner("vortex")
	tab, err := r.Table3()
	if err != nil {
		t.Fatal(err)
	}
	// One row per workload plus the average row, vortex present but n/a.
	if len(tab.Rows) != len(IntegerWorkloads())+1 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	vortex := row(tab, "vortex")
	if vortex == nil {
		t.Fatal("failed workload dropped from the table")
	}
	for j, v := range vortex.Ours {
		if !math.IsNaN(v) {
			t.Errorf("vortex cell %d = %v, want NaN", j, v)
		}
	}
	gcc := row(tab, "gcc")
	avg := row(tab, "average")
	for j := range gcc.Ours {
		if math.IsNaN(gcc.Ours[j]) {
			t.Errorf("healthy row poisoned at column %d", j)
		}
		if math.IsNaN(avg.Ours[j]) {
			t.Errorf("average poisoned by the n/a row at column %d", j)
		}
	}
	cellErr := r.CellErrors()
	if cellErr == nil || !strings.Contains(cellErr.Error(), "vortex run lost") {
		t.Errorf("CellErrors = %v, want the injected cause", cellErr)
	}
}

// TestCharacterizeDegradesFailedCells covers Table 1's path, including
// the NaN total for the failed row.
func TestCharacterizeDegradesFailedCells(t *testing.T) {
	r := failingRunner("mesa")
	tab, err := r.Table1()
	if err != nil {
		t.Fatal(err)
	}
	mesa := row(tab, "mesa")
	if mesa == nil {
		t.Fatal("failed workload dropped from the table")
	}
	for j, v := range mesa.Ours {
		if !math.IsNaN(v) {
			t.Errorf("mesa cell %d = %v, want NaN", j, v)
		}
	}
	if idle := row(tab, "idle"); math.IsNaN(idle.Ours[0]) {
		t.Error("healthy row poisoned")
	}
	if r.CellErrors() == nil {
		t.Error("CellErrors lost the failure")
	}
}

// TestFullyDegradedTableAverageIsNA: when every validation run fails
// after a healthy training pass, the average row must degrade to n/a
// like its inputs — not divide by zero or claim a spurious 0.0% error.
func TestFullyDegradedTableAverageIsNA(t *testing.T) {
	r := NewRunner(Options{Seed: 100, TrainSeed: 10, Scale: 0.01, Workers: 4})
	// Train while the datasets are healthy...
	if _, err := r.Estimator(); err != nil {
		t.Fatal(err)
	}
	// ...then lose every validation run.
	r.failDataset = func(wl string) error {
		return fmt.Errorf("injected: %s run lost", wl)
	}
	tab, err := r.Table3()
	if err != nil {
		t.Fatalf("a fully degraded table should still render, got %v", err)
	}
	for _, row := range tab.Rows {
		for j, v := range row.Ours {
			if !math.IsNaN(v) {
				t.Errorf("%s cell %d = %v, want NaN", row.Workload, j, v)
			}
		}
	}
	if row(tab, "average") == nil {
		t.Fatal("average row missing")
	}
	if r.CellErrors() == nil {
		t.Error("CellErrors lost the failures")
	}
}

// TestExtensionsDegradeFailedStudy: a study whose run fails comes back
// with NaN errors under its own labels, the cause lands in CellErrors,
// and the other studies still run.
func TestExtensionsDegradeFailedStudy(t *testing.T) {
	r := failingRunner("lucas") // the OS-utilization study's evaluation run
	comps := r.Extensions()
	if len(comps) != 3 {
		t.Fatalf("extensions = %d", len(comps))
	}
	lost := comps[2]
	if !strings.Contains(lost.Name, "lucas") || !math.IsNaN(lost.BaselineErr) || !math.IsNaN(lost.VariantErr) {
		t.Errorf("failed study = %+v, want its labels with NaN errors", lost)
	}
	cellErr := r.CellErrors()
	if cellErr == nil || !strings.Contains(cellErr.Error(), "lucas run lost") ||
		!strings.Contains(cellErr.Error(), lost.Name) {
		t.Errorf("CellErrors = %v, want the study and its injected cause", cellErr)
	}
	if spin := comps[1]; math.IsNaN(spin.BaselineErr) || math.IsNaN(spin.VariantErr) {
		t.Errorf("healthy study poisoned: %+v", spin)
	}
}

// TestTrainingFailureIsStillFatal: losing a training trace leaves
// nothing to validate against, so the table fails outright rather than
// rendering all-n/a noise.
func TestTrainingFailureIsStillFatal(t *testing.T) {
	r := failingRunner("gcc") // gcc trains the CPU and chipset models
	if _, err := r.Table3(); err == nil {
		t.Error("table generated without a CPU training trace")
	}
}

// TestCellErrorsNilWhenHealthy: the joined summary is nil on a clean
// suite.
func TestCellErrorsNilWhenHealthy(t *testing.T) {
	r := NewRunner(Options{Seed: 100, TrainSeed: 10, Scale: 0.01, Workers: 4})
	if _, err := r.Table2(); err != nil {
		t.Fatal(err)
	}
	if err := r.CellErrors(); err != nil {
		t.Errorf("CellErrors on a healthy run = %v", err)
	}
	var none []error
	if got := errors.Join(none...); got != nil {
		t.Fatalf("errors.Join sanity: %v", got)
	}
}
