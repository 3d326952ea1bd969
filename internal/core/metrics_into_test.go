package core

import (
	"sync"
	"testing"

	"trickledown/internal/perfctr"
	"trickledown/internal/power"
	"trickledown/internal/sim"
)

// TestExtractMetricsAtIntoMatchesFresh: the reusing form must be
// indistinguishable from a fresh extraction when the scratch row holds
// an earlier sample's features: every feature is written, even where
// the new sample has fewer processors, no cycles, no OS busy times or
// no disk interrupts.
func TestExtractMetricsAtIntoMatchesFresh(t *testing.T) {
	big := mkSample(0.9, 1.5, 200, 900, 300, 50)
	big.CPUs = append(big.CPUs, big.CPUs[0], big.CPUs[0]) // 4 CPUs
	big.OSBusySec = []float64{0.5, 0.5, 0.5, 0.5}
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
		var fresh Metrics
		ExtractMetricsAtInto(&fresh, tc.s, 2.8e9)
		if *scratch != fresh {
			t.Fatalf("%s: reused scratch %v differs from fresh extraction %v", tc.name, *scratch, fresh)
		}
	}
	if scratch[NumCPUs] != 2 || scratch[SumOSUtil] != 0 || scratch[SumDiskInts] != 0 {
		t.Fatalf("stale values leaked: NumCPUs=%v SumOSUtil=%v SumDiskInts=%v",
			scratch[NumCPUs], scratch[SumOSUtil], scratch[SumDiskInts])
	}
}

// TestExtractMetricsAtIntoZeroAllocSteadyState: extracting allocates
// nothing — the property internal/serve's 100k+ samples/sec hot path
// depends on.
func TestExtractMetricsAtIntoZeroAllocSteadyState(t *testing.T) {
	s := mkSample(0.7, 1.1, 120, 600, 150, 30)
	scratch := &Metrics{}
	allocs := testing.AllocsPerRun(100, func() {
		ExtractMetricsAtInto(scratch, &s, 2.8e9)
	})
	if allocs != 0 {
		t.Errorf("ExtractMetricsAtInto allocates %.1f/op, want 0", allocs)
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
// reused row gives the bit-identical reading of Estimate.
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

// TestEstimateMetricsZeroAllocSteadyState: with a reused row, the
// design terms live in pooled scratch, so estimating allocates nothing.
func TestEstimateMetricsZeroAllocSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops pooled scratch at random")
	}
	est := handEstimator(t)
	s := mkSample(0.7, 1.1, 120, 600, 150, 30)
	scratch := &Metrics{}
	ExtractMetricsAtInto(scratch, &s, sim.DefaultCoreHz)
	est.EstimateMetrics(scratch) // warm-up sizes the pooled terms
	allocs := testing.AllocsPerRun(100, func() {
		ExtractMetricsAtInto(scratch, &s, sim.DefaultCoreHz)
		est.EstimateMetrics(scratch)
	})
	if allocs != 0 {
		t.Errorf("steady-state extract+estimate allocates %.1f/op, want 0", allocs)
	}
}

// TestPredictConcurrentMetrics: the design scratch lives in neither the
// row nor the shared Model, so goroutines with their own rows may
// predict through one estimator at once (the race detector checks).
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
