package validate

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"trickledown/internal/align"
	"trickledown/internal/core"
	"trickledown/internal/experiments"
)

// testOptions runs the suite at the 30-second duration floor: fast
// enough for unit tests, long enough that every model trains.
func testOptions() Options {
	return Options{Seed: 7, Scale: 0.02}
}

func testRunner() *experiments.Runner {
	return experiments.NewRunner(experiments.Options{
		Seed: 7, TrainSeed: 7, Scale: 0.02,
	})
}

func mustCV(t *testing.T) *Report {
	t.Helper()
	report, err := CrossValidate(context.Background(), testRunner(), testOptions())
	if err != nil {
		t.Fatalf("CrossValidate: %v", err)
	}
	return report
}

func TestCrossValidateComplete(t *testing.T) {
	report := mustCV(t)
	if report.Coverage() != 1 {
		t.Fatalf("coverage = %v, want 1 (%d/%d folds)", report.Coverage(),
			report.FoldsDone, report.FoldsTotal)
	}
	if got := len(report.Subsystems); got != 5 {
		t.Fatalf("subsystems = %d, want 5", got)
	}
	if got := len(report.Fingerprints); got != len(report.Workloads) {
		t.Fatalf("fingerprints = %d, want %d", got, len(report.Workloads))
	}
	for _, s := range report.Subsystems {
		if len(s.Folds) != len(report.Workloads) {
			t.Errorf("%s: %d folds, want %d", s.Subsystem, len(s.Folds), len(report.Workloads))
		}
		if s.CIHiPct < s.CILoPct {
			t.Errorf("%s: CI inverted [%v, %v]", s.Subsystem, s.CILoPct, s.CIHiPct)
		}
		for _, f := range s.Folds {
			if f.Rows <= 0 {
				t.Errorf("%s/%s: no rows scored", s.Subsystem, f.Workload)
			}
		}
	}
}

// Byte-determinism is the contract the golden corpus rests on: two runs
// of the same seed must serialize identically, bit for bit.
func TestReportByteDeterministic(t *testing.T) {
	var bufs [2]bytes.Buffer
	for i := range bufs {
		report, err := CrossValidate(context.Background(), testRunner(), testOptions())
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		if err := report.WriteJSON(&bufs[i]); err != nil {
			t.Fatalf("run %d: WriteJSON: %v", i, err)
		}
	}
	if !bytes.Equal(bufs[0].Bytes(), bufs[1].Bytes()) {
		t.Fatalf("reports differ between identical runs:\n--- run 0\n%s\n--- run 1\n%s",
			bufs[0].String(), bufs[1].String())
	}
}

// cancellingSource serves a few datasets, then pulls the plug —
// simulating an operator interrupt in the middle of cross-validation.
type cancellingSource struct {
	src    Source
	cancel context.CancelFunc
	left   atomic.Int64
}

func (c *cancellingSource) ValidationDataset(name string) (*align.Dataset, error) {
	if c.left.Add(-1) < 0 {
		c.cancel()
	}
	return c.src.ValidationDataset(name)
}

func TestCrossValidateCancelledMidRun(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	src := &cancellingSource{src: testRunner(), cancel: cancel}
	src.left.Store(3)
	opt := testOptions()
	opt.Workers = 1
	report, err := CrossValidate(ctx, src, opt)
	if err == nil {
		t.Fatal("cancelled run returned nil error")
	}
	if report == nil {
		t.Fatal("cancelled run returned nil report")
	}
	if report.Coverage() >= 1 {
		t.Fatalf("cancelled run reports full coverage (%d/%d folds)",
			report.FoldsDone, report.FoldsTotal)
	}
	if len(report.Errors) == 0 {
		t.Fatal("cancelled run recorded no errors")
	}
	// A partial report must still serialize (sanitize must hold).
	if err := report.WriteJSON(&bytes.Buffer{}); err != nil {
		t.Fatalf("partial report failed to serialize: %v", err)
	}
}

func TestCrossValidateCancelledBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	report, err := CrossValidate(ctx, testRunner(), testOptions())
	if err == nil {
		t.Fatal("pre-cancelled run returned nil error")
	}
	if report.FoldsDone != 0 {
		t.Fatalf("pre-cancelled run completed %d folds", report.FoldsDone)
	}
}

func TestGoldenRoundTripPasses(t *testing.T) {
	report := mustCV(t)
	report.Checks = []CheckResult{{Name: "stub", OK: true}}
	g := FromReport(report)
	if bad := g.Check(report); len(bad) != 0 {
		t.Fatalf("self-check violations: %v", bad)
	}
	// Round-trip through disk.
	path := t.TempDir() + "/GOLDEN.json"
	if err := g.Save(path); err != nil {
		t.Fatal(err)
	}
	g2, err := LoadGolden(path)
	if err != nil {
		t.Fatal(err)
	}
	if bad := g2.Check(report); len(bad) != 0 {
		t.Fatalf("violations after round-trip: %v", bad)
	}
}

func TestGoldenCatchesDrift(t *testing.T) {
	report := mustCV(t)
	report.Checks = []CheckResult{{Name: "stub", OK: true}}
	g := FromReport(report)
	w := report.Workloads[0]
	report.Fingerprints[w] = "0000000000000000"
	bad := g.Check(report)
	if len(bad) == 0 {
		t.Fatal("fingerprint drift not flagged")
	}
	if !strings.Contains(fmt.Sprint(bad), "drift") {
		t.Fatalf("violations name no drift: %v", bad)
	}
}

func TestGoldenCatchesPartialRun(t *testing.T) {
	report := mustCV(t)
	report.Checks = []CheckResult{{Name: "stub", OK: true}}
	g := FromReport(report)
	report.FoldsDone--
	if bad := g.Check(report); len(bad) == 0 {
		t.Fatal("partial coverage not flagged")
	}
}

// The gate's reason to exist: a deliberately mistrained model must
// fail it. The Train hook is how CI's negative test corrupts exactly
// one subsystem.
func TestGoldenCatchesMistrainedModel(t *testing.T) {
	g := FromReport(mustCV(t))
	opt := testOptions()
	opt.Train = func(spec core.ModelSpec, ds *align.Dataset) (*core.Model, error) {
		m, err := core.Train(spec, ds)
		if err != nil {
			return nil, err
		}
		if spec.Sub.String() == "Memory" {
			for i := range m.Coef {
				m.Coef[i] *= 3
			}
		}
		return m, nil
	}
	report, err := CrossValidate(context.Background(), testRunner(), opt)
	if err != nil {
		t.Fatalf("CrossValidate: %v", err)
	}
	report.Checks = []CheckResult{{Name: "stub", OK: true}}
	bad := g.Check(report)
	if len(bad) == 0 {
		t.Fatal("mistrained Memory model passed the gate")
	}
	if !strings.Contains(fmt.Sprint(bad), "Memory") {
		t.Fatalf("violations name no Memory failure: %v", bad)
	}
}

func TestGoldenCatchesFailedCheck(t *testing.T) {
	report := mustCV(t)
	report.Checks = []CheckResult{{Name: "idle-floor", OK: false, Detail: "boom"}}
	if bad := FromReport(report).Check(report); len(bad) == 0 {
		t.Fatal("failed conformance check passed the gate")
	}
	report.Checks = nil
	if bad := FromReport(report).Check(report); len(bad) == 0 {
		t.Fatal("missing conformance checks passed the gate")
	}
}

func TestChecksPass(t *testing.T) {
	if testing.Short() {
		t.Skip("runs several private simulations")
	}
	checks, err := Checks(testRunner(), testOptions())
	if err != nil {
		t.Fatalf("Checks: %v", err)
	}
	if len(checks) == 0 {
		t.Fatal("no checks ran")
	}
	for _, c := range checks {
		if !c.OK {
			t.Errorf("check %s failed: %s", c.Name, c.Detail)
		}
	}
}

func TestFingerprintSensitivity(t *testing.T) {
	src := testRunner()
	ds, err := src.ValidationDataset("idle")
	if err != nil {
		t.Fatal(err)
	}
	fp := align.Fingerprint(ds)
	if len(fp) != 16 {
		t.Fatalf("fingerprint %q not 16 hex chars", fp)
	}
	if fp2 := align.Fingerprint(ds); fp2 != fp {
		t.Fatalf("fingerprint not stable: %s vs %s", fp, fp2)
	}
	// One bit of one counter in one row must change the digest.
	mut := &align.Dataset{Rows: append([]align.Row(nil), ds.Rows...)}
	cp := append(mut.Rows[0].Counters.CPUs[:0:0], mut.Rows[0].Counters.CPUs...)
	cp[0].Cycles ^= 1
	mut.Rows[0].Counters.CPUs = cp
	if align.Fingerprint(mut) == fp {
		t.Fatal("single-bit counter change did not change the fingerprint")
	}
	// Power perturbation too.
	mut2 := &align.Dataset{Rows: append([]align.Row(nil), ds.Rows...)}
	mut2.Rows[len(mut2.Rows)-1].Power[0] += 1e-9
	if align.Fingerprint(mut2) == fp {
		t.Fatal("power perturbation did not change the fingerprint")
	}
}
