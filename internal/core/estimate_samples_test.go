package core

import (
	"math"
	"math/rand"
	"testing"

	"trickledown/internal/iobus"
	"trickledown/internal/perfctr"
	"trickledown/internal/power"
	"trickledown/internal/sim"
)

// randomCount is mostly an ordinary counter delta, sometimes zero, one
// or a count at the top of the uint64 range.
func randomCount(rng *rand.Rand) uint64 {
	switch rng.Intn(10) {
	case 0:
		return 0
	case 1:
		return 1
	case 2:
		return math.MaxUint64
	case 3:
		return math.MaxUint64 - uint64(rng.Intn(1000))
	default:
		return uint64(rng.Int63n(1 << uint(1+rng.Intn(40))))
	}
}

// randomSample has 0–8 CPUs, a quarter of them without cycles, and an
// interrupt matrix that is nil, too short to hold the disk vector,
// ragged, or full.
func randomSample(rng *rand.Rand) perfctr.Sample {
	n := rng.Intn(9)
	s := perfctr.Sample{TargetSeconds: rng.Float64() * 100, IntervalSec: 0.5 + rng.Float64()}
	s.CPUs = make([]perfctr.CPUCounts, n)
	for i := range s.CPUs {
		c := &s.CPUs[i]
		*c = perfctr.CPUCounts{
			Cycles: randomCount(rng), HaltedCycles: randomCount(rng), FetchedUops: randomCount(rng),
			L3LoadMisses: randomCount(rng), L3Misses: randomCount(rng), BusTx: randomCount(rng),
			BusPrefetchTx: randomCount(rng), DMAOther: randomCount(rng), Uncacheable: randomCount(rng),
			TLBMisses: randomCount(rng),
		}
		if rng.Intn(4) == 0 {
			c.Cycles = 0
		}
	}
	var rows int
	switch rng.Intn(4) {
	case 0: // nil
	case 1:
		rows = rng.Intn(int(iobus.VecDisk) + 1) // no disk row
	default:
		rows = int(iobus.NumVectors)
	}
	if rows > 0 {
		s.Ints = make([][]uint64, rows)
		for v := range s.Ints {
			width := n
			if rng.Intn(3) == 0 {
				width = rng.Intn(n + 3) // ragged: shorter or longer than the CPU count
			}
			s.Ints[v] = make([]uint64, width)
			for i := range s.Ints[v] {
				s.Ints[v][i] = randomCount(rng)
			}
		}
	}
	return s
}

// randomEstimator builds an estimator from specs with coefficients that
// include NaN, ±Inf and ±0.
func randomEstimator(t *testing.T, rng *rand.Rand, specs [power.NumSubsystems]ModelSpec) *Estimator {
	t.Helper()
	models := make([]*Model, 0, len(specs))
	for _, spec := range specs {
		coef := make([]float64, len(spec.Terms))
		for k := range coef {
			coef[k] = randomRate(rng)
		}
		models = append(models, &Model{Spec: spec, Coef: coef})
	}
	est, err := NewEstimator(models...)
	if err != nil {
		t.Fatal(err)
	}
	return est
}

// extractAndBatch is the reference: full extraction at the default
// clock, then EstimateBatch.
func extractAndBatch(est *Estimator, ss []perfctr.Sample) []power.Reading {
	ms := make([]Metrics, len(ss))
	for j := range ss {
		ExtractMetricsAtInto(&ms[j], &ss[j], sim.DefaultCoreHz)
	}
	out := make([]power.Reading, len(ss))
	var c Columns
	est.EstimateBatch(out, ms, &c)
	return out
}

// envelopeRates is the reference for RatesOf: the six aggregates of
// full extraction, as the production designs read them.
func envelopeRates(s *perfctr.Sample) Rates {
	m := ExtractMetrics(s)
	return Rates{
		sum(m.PercentActive),
		sum(m.UopsPerCycle),
		m.TotalBusPMC(),
		sum(m.IntsPMC),
		sum(m.DiskIntsPMC),
		mean(m.DMAPMC),
	}
}

// TestEstimateSamplesMatchesExtractAndBatch: EstimateSamples, with
// caller scratch and without, Estimate and EstimateRates read every rail
// of full extraction plus EstimateBatch bit for bit, and RatesOf and
// EstimateRates read every aggregate of full extraction bit for bit. A NaN matches any NaN:
// which payload an add of two NaNs keeps depends on operand order,
// which already differs between dot's one-sample and batch loops. It
// runs the production estimator, which takes the kernel, and
// estimators with one spec swapped, which take the general path: the
// rejected Eq. 2, the DVFS CPU model, a hand-built copy of Eq. 1 that
// carries its Name, and Eq. 1 whose Coef lost a term.
func TestEstimateSamplesMatchesExtractAndBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	prod := ProductionSpecs()
	swapped := func(sub power.Subsystem, spec ModelSpec) [power.NumSubsystems]ModelSpec {
		specs := prod
		specs[sub] = spec
		return specs
	}
	eq1 := CPUSpec()
	cases := []struct {
		name       string
		specs      [power.NumSubsystems]ModelSpec
		shortCoef  bool
		production bool
	}{
		{"production", prod, false, true},
		{"mem-l3", swapped(power.SubMemory, MemL3Spec()), false, false},
		{"cpu-dvfs", swapped(power.SubCPU, CPUDVFSSpec()), false, false},
		{"named-copy", swapped(power.SubCPU, ModelSpec{Name: eq1.Name, Sub: eq1.Sub, Design: eq1.Design, Terms: eq1.Terms}), false, false},
		{"short-coef", prod, true, true},
	}
	var c Columns
	for _, tc := range cases {
		for trial := 0; trial < 30; trial++ {
			est := randomEstimator(t, rng, tc.specs)
			if tc.shortCoef {
				cpu := est.Model(power.SubCPU)
				cpu.Coef = cpu.Coef[:2]
			}
			if est.production != tc.production {
				t.Fatalf("%s: production = %v, want %v", tc.name, est.production, tc.production)
			}
			ss := make([]perfctr.Sample, 1+rng.Intn(2*BatchSize))
			for j := range ss {
				ss[j] = randomSample(rng)
			}
			want := extractAndBatch(est, ss)
			got := make([]power.Reading, len(ss))
			pooled := make([]power.Reading, len(ss))
			est.EstimateSamples(got, ss, &c)
			est.EstimateSamples(pooled, ss, nil)
			for j := range ss {
				rates, ref := RatesOf(&ss[j]), envelopeRates(&ss[j])
				paired, pairedRates := est.EstimateRates(&ss[j])
				for k := range rates {
					for _, v := range []float64{rates[k], pairedRates[k]} {
						if math.Float64bits(v) != math.Float64bits(ref[k]) {
							t.Fatalf("%s trial %d sample %d (%d CPUs) %s: RatesOf or EstimateRates %v, extraction %v",
								tc.name, trial, j, len(ss[j].CPUs), EnvelopeNames()[k], v, ref[k])
						}
					}
				}
				one := est.Estimate(&ss[j])
				for sub := range want[j] {
					for _, v := range []float64{got[j][sub], pooled[j][sub], one[sub], paired[sub]} {
						if !sameBits(v, want[j][sub]) {
							t.Fatalf("%s trial %d sample %d (%d CPUs) %s: %v (%#x), extract+batch %v (%#x)",
								tc.name, trial, j, len(ss[j].CPUs), power.Subsystem(sub),
								v, math.Float64bits(v), want[j][sub], math.Float64bits(want[j][sub]))
						}
					}
				}
			}
		}
	}
}

// TestProductionKernelSkipsDesign: the production estimator evaluates
// its models without calling Design, and an estimator that is not
// production calls it, even when its spec copies a production Name.
func TestProductionKernelSkipsDesign(t *testing.T) {
	calls := 0
	counted := func(spec ModelSpec) ModelSpec {
		inner := spec.Design
		spec.Design = func(cols [][]float64, ms []Metrics) {
			calls++
			inner(cols, ms)
		}
		return spec
	}
	s := mkSample(0.7, 1.1, 120, 600, 150, 30)
	rng := rand.New(rand.NewSource(1))
	prod := ProductionSpecs()
	prod[power.SubCPU] = counted(prod[power.SubCPU]) // keeps Eq. 1's identity
	randomEstimator(t, rng, prod).Estimate(&s)
	if calls != 0 {
		t.Fatalf("production estimator called Design %d times", calls)
	}
	eq1 := CPUSpec()
	prod[power.SubCPU] = counted(ModelSpec{Name: eq1.Name, Sub: eq1.Sub, Design: eq1.Design, Terms: eq1.Terms})
	randomEstimator(t, rng, prod).Estimate(&s)
	if calls != 1 {
		t.Fatalf("named copy of Eq. 1 called Design %d times, want 1", calls)
	}
}

// TestEstimateSamplesLeavesLongCoefToDot: a production model whose
// Coef outgrew its design panics in dot, and EstimateSamples panics the
// same way instead of estimating from the first terms.
func TestEstimateSamplesLeavesLongCoefToDot(t *testing.T) {
	est := handEstimator(t)
	cpu := est.Model(power.SubCPU)
	cpu.Coef = append(cpu.Coef, 1)
	s := mkSample(0.7, 1.1, 120, 600, 150, 30)
	defer func() {
		if recover() == nil {
			t.Fatal("EstimateSamples estimated with a four-term Eq. 1 Coef")
		}
	}()
	est.EstimateSamples(make([]power.Reading, 1), []perfctr.Sample{s}, nil)
}

// TestPerCPUPowerRequiresEquation1: attribution weights each processor
// by Equation 1's coefficients, so an estimator whose CPU model is the
// OS-utilization or DVFS model attributes nothing.
func TestPerCPUPowerRequiresEquation1(t *testing.T) {
	s := mkSample(0.7, 1.1, 120, 600, 150, 30)
	s.OSThreadBusySec = []float64{0.3, 0.2, 0.5, 0.1}
	rng := rand.New(rand.NewSource(2))
	prod := ProductionSpecs()
	if per := randomEstimator(t, rng, prod).PerCPUPower(&s); len(per) != 2 {
		t.Fatalf("Eq. 1 attribution: %v, want 2 processors", per)
	}
	for _, spec := range []ModelSpec{CPUOSUtilSpec(), CPUDVFSSpec()} {
		prod[power.SubCPU] = spec
		est := randomEstimator(t, rng, prod)
		if per := est.PerCPUPower(&s); per != nil {
			t.Errorf("%s: PerCPUPower = %v, want nil", spec.Name, per)
		}
	}
}

// BenchmarkEstimateSamples is one BatchSize chunk of served-shape
// samples (2 CPUs, no interrupt matrix) through EstimateSamples: the
// production estimator's kernel, and the general path of an estimator
// with the rejected Eq. 2 memory model.
func BenchmarkEstimateSamples(b *testing.B) {
	s := mkSample(0.7, 1.1, 120, 600, 150, 30)
	s.Ints = nil
	ss := make([]perfctr.Sample, BatchSize)
	for j := range ss {
		ss[j] = s
	}
	general := handEstimator(b)
	l3 := &Model{Spec: MemL3Spec(), Coef: []float64{1, 0.5, 0.25}}
	general, err := NewEstimator(general.Model(power.SubCPU), general.Model(power.SubChipset), l3,
		general.Model(power.SubIO), general.Model(power.SubDisk))
	if err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct {
		name string
		est  *Estimator
	}{{"production", handEstimator(b)}, {"general", general}} {
		b.Run(bc.name, func(b *testing.B) {
			out := make([]power.Reading, BatchSize)
			var c Columns
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				bc.est.EstimateSamples(out, ss, &c)
			}
		})
	}
}
