package core

import (
	"errors"
	"math"
	"testing"

	"trickledown/internal/align"
	"trickledown/internal/perfctr"
	"trickledown/internal/power"
	"trickledown/internal/stats"
)

// evalDataset returns a dataset with an exact linear CPU rail plus the
// model trained on it, so Evaluate's numbers are predictable.
func evalDataset(t *testing.T, n int) (*align.Dataset, *Model) {
	t.Helper()
	ds := synthDataset(n, func(i int, s *perfctr.Sample) power.Reading {
		m := ExtractMetrics(s)
		var r power.Reading
		r[power.SubCPU] = 9.25*m[NumCPUs] + 26.45*m[SumActive] + 4.31*m[SumUPC]
		return r
	})
	mod, err := Train(CPUSpec(), ds)
	if err != nil {
		t.Fatal(err)
	}
	return ds, mod
}

func TestEvaluatePerfectFit(t *testing.T) {
	ds, mod := evalDataset(t, 60)
	ev, err := mod.Evaluate(ds)
	if err != nil {
		t.Fatal(err)
	}
	if ev.N != ds.Len() {
		t.Errorf("N = %d, want %d", ev.N, ds.Len())
	}
	if ev.AvgErrPct > 1e-6 || ev.WorstErrPct > 1e-6 {
		t.Errorf("exact model scored avg %v%% worst %v%%", ev.AvgErrPct, ev.WorstErrPct)
	}
	if ev.R2 < 1-1e-9 {
		t.Errorf("R2 = %v, want 1", ev.R2)
	}
	if math.Abs(ev.Resid.Mean) > 1e-9 || ev.Resid.Max > 1e-9 {
		t.Errorf("residual summary not ~zero: %+v", ev.Resid)
	}
}

func TestEvaluateBiasedModel(t *testing.T) {
	ds, mod := evalDataset(t, 60)
	// Inflate the constant term by 5 W: every residual becomes +5 and the
	// error percentages must reflect the rail magnitudes.
	mod.Coef[0] += 5 / float64(2) // perCPU term, 2 CPUs in mkSample
	ev, err := mod.Evaluate(ds)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(ev.Resid.Mean-5) > 1e-9 || math.Abs(ev.Resid.Min-5) > 1e-9 {
		t.Errorf("uniform +5 W bias not seen in residuals: %+v", ev.Resid)
	}
	if ev.AvgErrPct <= 0 || ev.WorstErrPct < ev.AvgErrPct {
		t.Errorf("avg %v%% worst %v%% inconsistent", ev.AvgErrPct, ev.WorstErrPct)
	}
	if ev.R2 >= 1 {
		t.Errorf("biased model still scored R2 = %v", ev.R2)
	}
}

// TestResiduals: Evaluate summarizes modeled − measured, row by row.
func TestResiduals(t *testing.T) {
	ds, mod := evalDataset(t, 20)
	ev, err := mod.Evaluate(ds)
	if err != nil {
		t.Fatal(err)
	}
	res := make([]float64, ds.Len())
	for i := range res {
		measured := ds.Rows[i].Power[power.SubCPU]
		m := ExtractMetrics(&ds.Rows[i].Counters)
		modeled := mod.Predict(&m)
		res[i] = modeled - measured
	}
	want, err := stats.Summarize(res)
	if err != nil {
		t.Fatal(err)
	}
	got := ev.Resid
	if got.N != want.N || math.Abs(got.Mean-want.Mean) > 1e-12 || math.Abs(got.StdDev-want.StdDev) > 1e-12 ||
		math.Abs(got.Min-want.Min) > 1e-12 || math.Abs(got.Max-want.Max) > 1e-12 {
		t.Errorf("Evaluate residuals %+v, want %+v", got, want)
	}
}

func TestEvaluateErrors(t *testing.T) {
	_, mod := evalDataset(t, 20)
	if _, err := mod.Evaluate(nil); !errors.Is(err, ErrNoData) {
		t.Errorf("nil dataset err = %v", err)
	}
	if _, err := mod.Evaluate(&align.Dataset{}); !errors.Is(err, ErrNoData) {
		t.Errorf("empty dataset err = %v", err)
	}
}
