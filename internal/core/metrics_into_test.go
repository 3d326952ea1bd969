package core

import (
	"math"
	"reflect"
	"sync"
	"testing"

	"trickledown/internal/perfctr"
	"trickledown/internal/power"
	"trickledown/internal/sim"
)

// exportedEqual compares the exported fields of two Metrics: the
// unexported slab is storage, not a result, and a reused Metrics
// legitimately keeps a larger one.
func exportedEqual(a, b *Metrics) bool {
	va, vb := reflect.ValueOf(a).Elem(), reflect.ValueOf(b).Elem()
	for _, f := range reflect.VisibleFields(va.Type()) {
		if f.IsExported() && !reflect.DeepEqual(va.FieldByIndex(f.Index).Interface(), vb.FieldByIndex(f.Index).Interface()) {
			return false
		}
	}
	return true
}

// TestExtractMetricsAtIntoMatchesFresh: the reusing form must be
// indistinguishable from a fresh extraction, including when the scratch
// Metrics carries stale state from a previous sample — a larger one,
// whose slab is re-carved, and one of the same size, whose slices are
// overwritten in place even where the new sample has no cycles, no OS
// busy times or no disk interrupts.
func TestExtractMetricsAtIntoMatchesFresh(t *testing.T) {
	big := mkSample(0.9, 1.5, 200, 900, 300, 50)
	big.CPUs = append(big.CPUs, big.CPUs[0], big.CPUs[0]) // 4 CPUs
	small := mkSample(0.3, 0.4, 50, 100, 20, 10)
	small.OSBusySec = []float64{0.3, 0.2}
	sparse := mkSample(0.6, 1.2, 80, 300, 40, 20)
	sparse.CPUs[1] = perfctr.CPUCounts{} // zero cycles
	sparse.Ints = nil

	scratch := &Metrics{}
	for _, tc := range []struct {
		name string
		s    *perfctr.Sample
	}{{"big", &big}, {"small after big", &small}, {"sparse after small", &sparse}} {
		ExtractMetricsAtInto(scratch, tc.s, 2.8e9)
		if !exportedEqual(scratch, ExtractMetricsAt(tc.s, 2.8e9)) {
			t.Fatalf("%s: reused scratch differs from fresh extraction", tc.name)
		}
	}
	if scratch.NumCPUs != 2 || len(scratch.UopsPerCycle) != 2 {
		t.Fatalf("scratch not resized: NumCPUs=%d len=%d", scratch.NumCPUs, len(scratch.UopsPerCycle))
	}
	if scratch.OSUtil[0] != 0 || scratch.UopsPerCycle[1] != 0 || scratch.DiskIntsPMC[0] != 0 {
		t.Fatalf("stale values leaked: OSUtil=%v UopsPerCycle=%v DiskIntsPMC=%v",
			scratch.OSUtil, scratch.UopsPerCycle, scratch.DiskIntsPMC)
	}
	for _, v := range scratch.UopsPerCycle {
		if math.IsNaN(v) {
			t.Fatal("NaN in reused extraction")
		}
	}
}

// TestExtractMetricsAtIntoZeroAllocSteadyState: after warm-up the
// reusing form must not allocate — the property internal/serve's
// 100k+ samples/sec hot path depends on.
func TestExtractMetricsAtIntoZeroAllocSteadyState(t *testing.T) {
	s := mkSample(0.7, 1.1, 120, 600, 150, 30)
	scratch := &Metrics{}
	ExtractMetricsAtInto(scratch, &s, 2.8e9) // warm-up sizes the slices
	allocs := testing.AllocsPerRun(100, func() {
		ExtractMetricsAtInto(scratch, &s, 2.8e9)
	})
	if allocs != 0 {
		t.Errorf("steady-state ExtractMetricsAtInto allocates %.1f/op, want 0", allocs)
	}
}

// handEstimator assembles the five production specs with fixed,
// nonzero coefficients: enough to exercise every design row without
// training.
func handEstimator(t testing.TB) *Estimator {
	t.Helper()
	var models []*Model
	for i, spec := range ProductionSpecs() {
		coef := make([]float64, len(spec.Terms))
		for j := range coef {
			coef[j] = float64(i+1) + 0.25*float64(j)
		}
		models = append(models, &Model{Spec: spec, Coef: coef})
	}
	est, err := NewEstimator(models...)
	if err != nil {
		t.Fatal(err)
	}
	return est
}

// TestEstimateMetricsReusedScratchMatchesFresh: predicting through a
// Metrics whose slab holds an earlier sample's rates gives the
// bit-identical reading of a fresh extraction.
func TestEstimateMetricsReusedScratchMatchesFresh(t *testing.T) {
	est := handEstimator(t)
	samples := []perfctr.Sample{
		mkSample(0.9, 1.5, 200, 900, 300, 50),
		mkSample(0.3, 0.4, 50, 100, 20, 10),
		mkSample(0.6, 1.0, 120, 400, 90, 25),
	}
	scratch := &Metrics{}
	for i := range samples {
		ExtractMetricsAtInto(scratch, &samples[i], sim.DefaultCoreHz)
		if got, want := est.EstimateMetrics(scratch), est.Estimate(&samples[i]); got != want {
			t.Errorf("sample %d: reused scratch reads %v, fresh %v", i, got, want)
		}
	}
}

// TestEstimateMetricsZeroAllocSteadyState: with a reused Metrics, the
// one-sample batch is designed in pooled scratch, so estimating
// allocates nothing.
func TestEstimateMetricsZeroAllocSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops pooled scratch at random")
	}
	est := handEstimator(t)
	s := mkSample(0.7, 1.1, 120, 600, 150, 30)
	scratch := &Metrics{}
	ExtractMetricsAtInto(scratch, &s, sim.DefaultCoreHz)
	est.EstimateMetrics(scratch) // warm-up sizes the pooled columns
	allocs := testing.AllocsPerRun(100, func() {
		ExtractMetricsAtInto(scratch, &s, sim.DefaultCoreHz)
		est.EstimateMetrics(scratch)
	})
	if allocs != 0 {
		t.Errorf("steady-state extract+estimate allocates %.1f/op, want 0", allocs)
	}
}

// TestPredictConcurrentMetrics: the design scratch lives in neither the
// Metrics nor the shared Model, so goroutines with their own Metrics
// may predict through one estimator at once (the race detector checks).
func TestPredictConcurrentMetrics(t *testing.T) {
	est := handEstimator(t)
	samples := make([]perfctr.Sample, 8)
	want := make([]power.Reading, len(samples))
	for i := range samples {
		samples[i] = mkSample(0.1*float64(i+1), 0.2*float64(i+1), 40, 300, 50, 20)
		want[i] = est.Estimate(&samples[i])
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			m := &Metrics{}
			for rep := 0; rep < 50; rep++ {
				i := (g + rep) % len(samples)
				ExtractMetricsAtInto(m, &samples[i], sim.DefaultCoreHz)
				if got := est.EstimateMetrics(m); got != want[i] {
					t.Errorf("goroutine %d sample %d: %v, want %v", g, i, got, want[i])
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// BenchmarkEstimateMetrics is the one-sample step: extract into a
// reused Metrics, then predict all five rails.
func BenchmarkEstimateMetrics(b *testing.B) {
	est := handEstimator(b)
	s := mkSample(0.7, 1.1, 120, 600, 150, 30)
	scratch := &Metrics{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ExtractMetricsAtInto(scratch, &s, sim.DefaultCoreHz)
		est.EstimateMetrics(scratch)
	}
}

// declaredFieldSamples are samples that give every Metrics field a
// distinct, finite value: a DVFS operating point below nominal, OS busy
// times, timer and disk interrupt rows, writeback traffic, and a CPU
// without cycles.
func declaredFieldSamples() []perfctr.Sample {
	dvfs := mkSample(0.8, 1.3, 150, 700, 90, 40)
	for i := range dvfs.CPUs {
		c := &dvfs.CPUs[i]
		c.Cycles = c.Cycles * 6 / 10 // f = 0.6
		c.L3Misses = 2 * c.L3LoadMisses
	}
	dvfs.OSBusySec = []float64{0.4, 0.9}
	busy := mkSample(0.5, 0.9, 60, 250, 30, 15)
	busy.OSBusySec = []float64{0.2, 1.4} // the second clamps to 1
	busy.CPUs[0].L3Misses = 3 * busy.CPUs[0].L3LoadMisses
	idle := mkSample(0.1, 0.2, 5, 20, 2, 1)
	idle.CPUs[1] = perfctr.CPUCounts{} // no cycles: zero rates
	idle.OSBusySec = []float64{0.05}
	return []perfctr.Sample{dvfs, busy, idle}
}

// specsUnderTest is every spec a caller can build an estimator from:
// the production five, the selection candidates and every registered
// spec (the rejected and extension models among them).
func specsUnderTest() []ModelSpec {
	prod := ProductionSpecs()
	specs := append([]ModelSpec(nil), prod[:]...)
	specs = append(specs, MemoryCandidates()...)
	specs = append(specs, DiskCandidates()...)
	specs = append(specs, IOCandidates()...)
	for _, name := range SpecNames() {
		spec, err := SpecByName(name)
		if err != nil {
			panic(err)
		}
		specs = append(specs, spec)
	}
	return specs
}

// TestDeclaredFieldsCoverDesign: each spec's Design reads only the
// fields its Reads declares. Extracting just those into Metrics whose
// every other field is NaN yields the design of a full extraction, bit
// for bit; a Design that reads an undeclared field reads the NaN.
func TestDeclaredFieldsCoverDesign(t *testing.T) {
	samples := declaredFieldSamples()
	full := make([]Metrics, len(samples))
	for j := range samples {
		ExtractMetricsAtInto(&full[j], &samples[j], sim.DefaultCoreHz)
	}
	if f := full[0].FreqScale[0]; f == 1 {
		t.Fatalf("DVFS sample extracts FreqScale %v, want below 1", f)
	}
	trimmed := make([]Metrics, len(samples))
	for _, spec := range specsUnderTest() {
		for j := range samples {
			m := &trimmed[j]
			m.carve(len(samples[j].CPUs))
			for k := range m.slab {
				m.slab[k] = math.NaN()
			}
			extractInto(m, &samples[j], sim.DefaultCoreHz, spec.Reads)
		}
		var cf, ct Columns
		want, got := cf.design(&spec, full), ct.design(&spec, trimmed)
		for k := range want {
			for j := range want[k] {
				if math.IsNaN(want[k][j]) {
					t.Fatalf("%s term %s sample %d: full extraction gives NaN", spec.Name, spec.Terms[k], j)
				}
				if math.Float64bits(got[k][j]) != math.Float64bits(want[k][j]) {
					t.Errorf("%s term %s sample %d: %v on declared fields, %v on all",
						spec.Name, spec.Terms[k], j, got[k][j], want[k][j])
				}
			}
		}
	}
}

// TestEstimatorExtractsOnlyItsInputs: the production estimator reads 6
// of the 13 per-CPU fields, its ExtractInto leaves the rest untouched,
// and the readings on its extraction are the readings on a full one.
func TestEstimatorExtractsOnlyItsInputs(t *testing.T) {
	est := handEstimator(t)
	const want = FieldPercentActive | FieldUopsPerCycle | FieldBusTxPMC |
		FieldDMAPMC | FieldIntsPMC | FieldDiskIntsPMC
	if est.reads != want {
		t.Fatalf("production estimator reads %013b, want %013b", est.reads, want)
	}
	samples := declaredFieldSamples()
	full, trimmed := make([]Metrics, len(samples)), make([]Metrics, len(samples))
	for j := range samples {
		ExtractMetricsAtInto(&full[j], &samples[j], sim.DefaultCoreHz)
		trimmed[j].carve(len(samples[j].CPUs))
		for k := range trimmed[j].slab {
			trimmed[j].slab[k] = math.NaN()
		}
		est.ExtractInto(&trimmed[j], &samples[j], sim.DefaultCoreHz)
		if v := trimmed[j].FreqScale[0]; !math.IsNaN(v) {
			t.Fatalf("sample %d: ExtractInto wrote FreqScale %v", j, v)
		}
	}
	var c Columns
	wantR, gotR := make([]power.Reading, len(samples)), make([]power.Reading, len(samples))
	est.EstimateBatch(wantR, full, &c)
	est.EstimateBatch(gotR, trimmed, &c)
	for j := range wantR {
		for s := range wantR[j] {
			if math.Float64bits(gotR[j][s]) != math.Float64bits(wantR[j][s]) {
				t.Errorf("sample %d %s: %v on the estimator's fields, %v on all",
					j, power.Subsystem(s), gotR[j][s], wantR[j][s])
			}
		}
	}
}
