package core

import (
	"errors"
	"math"
	"strings"
	"testing"

	"trickledown/internal/align"
	"trickledown/internal/iobus"
	"trickledown/internal/perfctr"
	"trickledown/internal/power"
	"trickledown/internal/regress"
)

// mkSample builds a 2-CPU sample with the given per-CPU rates over one
// second at 2.8 GHz.
func mkSample(active, upc, l3pmc, buspmc, dmapmc, intspmc float64) perfctr.Sample {
	const cyc = 2.8e9
	const mcyc = cyc / 1e6
	s := perfctr.Sample{
		TargetSeconds: 1,
		IntervalSec:   1,
		CPUs:          make([]perfctr.CPUCounts, 2),
		Ints:          make([][]uint64, iobus.NumVectors),
	}
	for v := range s.Ints {
		s.Ints[v] = make([]uint64, 2)
	}
	for i := range s.CPUs {
		c := &s.CPUs[i]
		c.Cycles = uint64(cyc)
		c.HaltedCycles = uint64(cyc * (1 - active))
		c.FetchedUops = uint64(cyc * upc)
		c.L3LoadMisses = uint64(l3pmc * mcyc)
		c.BusTx = uint64(buspmc * mcyc)
		c.BusPrefetchTx = uint64(buspmc * mcyc / 10)
		c.DMAOther = uint64(dmapmc * mcyc)
		c.Uncacheable = uint64(5 * mcyc)
		c.TLBMisses = uint64(20 * mcyc)
		s.Ints[iobus.VecTimer][i] = uint64(intspmc * mcyc / 2)
		s.Ints[iobus.VecDisk][i] = uint64(intspmc * mcyc / 2)
	}
	return s
}

// designRow returns spec's design terms for one row.
func designRow(spec ModelSpec, m *Metrics) []float64 {
	d := make([]float64, len(spec.Terms))
	spec.Design(d, m)
	return d
}

func TestExtractMetrics(t *testing.T) {
	s := mkSample(0.75, 1.5, 100, 400, 50, 0.2)
	m := ExtractMetrics(&s)
	if m[NumCPUs] != 2 {
		t.Fatalf("NumCPUs = %v", m[NumCPUs])
	}
	approx := func(got, want float64, what string) {
		t.Helper()
		if math.Abs(got-want)/want > 0.01 {
			t.Errorf("%s = %v, want ~%v", what, got, want)
		}
	}
	approx(m[SumActive], 2*0.75, "SumActive")
	approx(m[SumUPC], 2*1.5, "SumUPC")
	approx(m[SumL3Load], 2*100, "SumL3Load")
	approx(m[SumBusTx], 2*400, "SumBusTx")
	approx(m[SumPrefetch], 2*40, "SumPrefetch")
	approx(m[MeanDMA], 50, "MeanDMA")
	approx(m[SumUncacheable], 2*5, "SumUncacheable")
	approx(m[SumInts], 2*0.2, "SumInts")
	approx(m[SumDiskInts], 2*0.1, "SumDiskInts")
	// TotalBus: sum of own (2x400) + mean DMA (50).
	approx(m[TotalBus], 850, "TotalBus")
}

func TestExtractMetricsZeroCycles(t *testing.T) {
	s := perfctr.Sample{CPUs: make([]perfctr.CPUCounts, 1)}
	m := ExtractMetrics(&s)
	if m[SumActive] != 0 || m[SumUPC] != 0 || m[SumBusTx] != 0 {
		t.Error("zero-cycle sample produced nonzero rates")
	}
	if m[NumCPUs] != 1 || m[SumV] != power.VoltageScale(1) {
		t.Errorf("zero-cycle processor: NumCPUs = %v, SumV = %v, want 1 and V(1)", m[NumCPUs], m[SumV])
	}
}

// synthDataset builds an aligned dataset whose rail power is an exact
// function of the counters, so training must recover it.
func synthDataset(n int, railFn func(i int, s *perfctr.Sample) power.Reading) *align.Dataset {
	ds := &align.Dataset{}
	for i := 0; i < n; i++ {
		f := float64(i) / float64(n)
		// A second, decorrelated sweep so regressors are not collinear.
		g := float64(i*37%n) / float64(n)
		s := mkSample(0.2+0.8*f, 0.3+2*g, 50+400*g, 200+1500*f, 100*g, 0.1+2*f)
		s.TargetSeconds = float64(i + 1)
		ds.Rows = append(ds.Rows, align.Row{Power: railFn(i, &s), Counters: s})
	}
	return ds
}

func TestTrainRecoversLinearCPUModel(t *testing.T) {
	ds := synthDataset(60, func(i int, s *perfctr.Sample) power.Reading {
		m := ExtractMetrics(s)
		var r power.Reading
		r[power.SubCPU] = 9.25*m[NumCPUs] + 26.45*m[SumActive] + 4.31*m[SumUPC]
		return r
	})
	mod, err := Train(CPUSpec(), ds)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{9.25, 26.45, 4.31}
	for i, w := range want {
		if math.Abs(mod.Coef[i]-w) > 0.01 {
			t.Errorf("coef[%d] = %v, want %v", i, mod.Coef[i], w)
		}
	}
	e, err := mod.Validate(ds)
	if err != nil || e > 0.001 {
		t.Errorf("self-validation error = %v, %v", e, err)
	}
}

func TestTrainRecoversQuadraticMemModel(t *testing.T) {
	ds := synthDataset(80, func(i int, s *perfctr.Sample) power.Reading {
		m := ExtractMetrics(s)
		x := m[TotalBus]
		var r power.Reading
		r[power.SubMemory] = 28 + 0.002*x + 1e-7*x*x
		return r
	})
	mod, err := Train(MemBusSpec(), ds)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(mod.Coef[0]-28) > 0.1 {
		t.Errorf("c0 = %v", mod.Coef[0])
	}
	if mod.Fit.R2 < 0.9999 {
		t.Errorf("R2 = %v", mod.Fit.R2)
	}
}

func TestTrainErrors(t *testing.T) {
	if _, err := Train(CPUSpec(), nil); !errors.Is(err, ErrNoData) {
		t.Error("nil dataset accepted")
	}
	if _, err := Train(CPUSpec(), &align.Dataset{}); !errors.Is(err, ErrNoData) {
		t.Error("empty dataset accepted")
	}
	// A constant-input dataset makes every non-chipset design singular.
	ds := &align.Dataset{}
	s := mkSample(0.5, 1, 10, 10, 10, 1)
	for i := 0; i < 10; i++ {
		ds.Rows = append(ds.Rows, align.Row{Counters: s})
	}
	if _, err := Train(CPUSpec(), ds); err == nil {
		t.Error("degenerate dataset trained without error")
	}
	// The chipset constant trains fine on it.
	if _, err := Train(ChipsetSpec(), ds); err != nil {
		t.Errorf("chipset constant failed: %v", err)
	}
}

// A rank-deficient design is refused with the collinear term named.
func TestTrainNamesCollinearTerm(t *testing.T) {
	spec := ModelSpec{
		Name: "dup",
		Sub:  power.SubMemory,
		Design: func(d []float64, m *Metrics) {
			d[0], d[1], d[2] = 1, m[TotalBus], 2*m[TotalBus]
		},
		Terms: []string{"const", "bus", "twice_bus"},
	}
	ds := synthDataset(30, func(i int, s *perfctr.Sample) power.Reading {
		var r power.Reading
		r[power.SubMemory] = 28 + float64(i)
		return r
	})
	_, err := Train(spec, ds)
	var rank *regress.RankError
	if !errors.As(err, &rank) || rank.Col != 2 || !errors.Is(err, regress.ErrSingular) {
		t.Fatalf("err = %v, want RankError{Col: 2}", err)
	}
	if !strings.Contains(err.Error(), "column 2 (twice_bus)") {
		t.Errorf("error %q does not name the collinear term", err)
	}
}

func TestValidateErrors(t *testing.T) {
	mod := &Model{Spec: ChipsetSpec(), Coef: []float64{19.9}}
	if _, err := mod.Validate(nil); !errors.Is(err, ErrNoData) {
		t.Error("nil dataset validated")
	}
	if _, err := mod.Validate(&align.Dataset{}); !errors.Is(err, ErrNoData) {
		t.Error("empty dataset validated")
	}
}

func TestModelString(t *testing.T) {
	mod := &Model{Spec: CPUSpec(), Coef: []float64{9.25, 26.45, 4.31}}
	s := mod.String()
	for _, want := range []string{"cpu (Eq.1)", "percent_active", "uops_per_cycle", "+9.25"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() missing %q: %s", want, s)
		}
	}
}

func TestTrace(t *testing.T) {
	ds := synthDataset(10, func(i int, s *perfctr.Sample) power.Reading {
		var r power.Reading
		r[power.SubChipset] = 19.9
		return r
	})
	mod, err := Train(ChipsetSpec(), ds)
	if err != nil {
		t.Fatal(err)
	}
	measured, modeled := mod.Trace(ds)
	if len(measured) != 10 || len(modeled) != 10 {
		t.Fatal("trace lengths wrong")
	}
	for i := range measured {
		if math.Abs(modeled[i]-19.9) > 1e-9 || measured[i] != 19.9 {
			t.Errorf("trace[%d] = %v/%v", i, measured[i], modeled[i])
		}
	}
}

func TestEstimatorConstruction(t *testing.T) {
	mk := func(spec ModelSpec) *Model {
		coef := make([]float64, len(spec.Terms))
		return &Model{Spec: spec, Coef: coef}
	}
	full := []*Model{mk(CPUSpec()), mk(MemBusSpec()), mk(DiskSpec()), mk(IOSpec()), mk(ChipsetSpec())}
	if _, err := NewEstimator(full...); err != nil {
		t.Fatalf("complete estimator rejected: %v", err)
	}
	if _, err := NewEstimator(full[:4]...); err == nil {
		t.Error("missing subsystem accepted")
	}
	if _, err := NewEstimator(append(full, mk(MemL3Spec()))...); err == nil {
		t.Error("duplicate subsystem accepted")
	}
	if _, err := NewEstimator(nil, nil, nil, nil, nil); err == nil {
		t.Error("nil models accepted")
	}
}

func TestEstimatorEstimateAndPerCPU(t *testing.T) {
	ds := synthDataset(50, func(i int, s *perfctr.Sample) power.Reading {
		m := ExtractMetrics(s)
		var r power.Reading
		r[power.SubCPU] = 9*m[NumCPUs] + 25*m[SumActive] + 4*m[SumUPC]
		r[power.SubChipset] = 19.9
		r[power.SubMemory] = 28 + 0.001*m[TotalBus]
		r[power.SubIO] = 32.7 + m[SumInts]
		r[power.SubDisk] = 21.6 + m[SumDiskInts]
		return r
	})
	est, err := TrainEstimator(TrainingSet{CPU: ds, Memory: ds, Disk: ds, IO: ds, Chipset: ds})
	if err != nil {
		t.Fatal(err)
	}
	s := mkSample(0.6, 1.2, 200, 900, 40, 1.0)
	r := est.Estimate(&s)
	m := ExtractMetrics(&s)
	wantCPU := 9*2.0 + 25*m[SumActive] + 4*m[SumUPC]
	if math.Abs(r[power.SubCPU]-wantCPU) > 0.5 {
		t.Errorf("estimated CPU = %v, want ~%v", r[power.SubCPU], wantCPU)
	}
	if math.Abs(r[power.SubChipset]-19.9) > 0.01 {
		t.Errorf("estimated chipset = %v", r[power.SubChipset])
	}
	// Per-CPU attribution sums to the subsystem estimate.
	per := est.PerCPUPower(&s)
	if len(per) != 2 {
		t.Fatalf("per-CPU len = %d", len(per))
	}
	total := per[0] + per[1]
	if math.Abs(total-r[power.SubCPU]) > 1e-6 {
		t.Errorf("per-CPU sum %v != estimate %v", total, r[power.SubCPU])
	}
	// EstimateMetrics agrees with Estimate.
	if r2 := est.EstimateMetrics(&m); r2 != r {
		t.Error("EstimateMetrics disagrees with Estimate")
	}
	// Model accessor.
	if est.Model(power.SubDisk) == nil || est.Model(power.Subsystem(99)) != nil {
		t.Error("Model accessor broken")
	}
}

func TestTrainEstimatorPropagatesErrors(t *testing.T) {
	if _, err := TrainEstimator(TrainingSet{}); err == nil {
		t.Error("empty training set accepted")
	}
	// With a non-finite memory rail and no chipset data, the memory
	// error comes first: TrainEstimator trains CPU, memory, disk, I/O,
	// chipset, whatever order the subsystems are numbered in.
	good := healthyDataset(40)
	bad := healthyDataset(40)
	bad.Rows[3].Power[power.SubMemory] = math.NaN()
	_, err := TrainEstimator(TrainingSet{CPU: good, Memory: bad, Disk: good, IO: good})
	if !errors.Is(err, ErrNonFinite) {
		t.Errorf("err = %v, want the memory rail's %v", err, ErrNonFinite)
	}
}

func TestRejectedSpecsHaveDistinctInputs(t *testing.T) {
	s := mkSample(0.5, 1, 100, 500, 80, 1.5)
	m := ExtractMetrics(&s)
	for _, spec := range []ModelSpec{
		DiskDMASpec(), DiskUncacheableSpec(), IODMASpec(), IOUncacheableSpec(),
		CPUSpec(), MemL3Spec(), MemBusSpec(), DiskSpec(), IOSpec(), ChipsetSpec(),
	} {
		row := designRow(spec, &m)
		if len(row) == 0 || len(row) != len(spec.Terms) {
			t.Errorf("%s: design row %d columns, %d terms", spec.Name, len(row), len(spec.Terms))
		}
		for i, v := range row {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Errorf("%s: design[%d] = %v", spec.Name, i, v)
			}
		}
	}
}
