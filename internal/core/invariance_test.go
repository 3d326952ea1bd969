package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"trickledown/internal/align"
	"trickledown/internal/power"
	"trickledown/internal/stats"
)

// invarianceDataset draws n rows of 2- or 4-CPU samples with
// independent rates, and rails that are noisy and partly nonlinear in
// them, so no model fits exactly and every Eq. 6 error is nonzero.
func invarianceDataset(rng *rand.Rand, n int) *align.Dataset {
	ds := &align.Dataset{}
	for i := 0; i < n; i++ {
		act, upc := 0.1+0.9*rng.Float64(), 0.2+2.3*rng.Float64()
		bus, dma, ints := 100+1900*rng.Float64(), 200*rng.Float64(), 0.05+3*rng.Float64()
		s := mkSample(act, upc, 50+400*rng.Float64(), bus, dma, ints)
		if rng.Intn(2) == 0 {
			s.CPUs = append(s.CPUs, s.CPUs...)
		}
		s.TargetSeconds = float64(i + 1)
		var p power.Reading
		cpus := float64(len(s.CPUs))
		p[power.SubCPU] = cpus*(12+25*act+4*upc) + 3*math.Sin(bus/300) + rng.NormFloat64()
		p[power.SubChipset] = 19.9 + 0.3*rng.NormFloat64()
		p[power.SubMemory] = 25 + 0.012*bus + 3e-6*bus*bus + 2*act + 0.5*rng.NormFloat64()
		p[power.SubIO] = 30 + 2*ints + 0.4*ints*ints + math.Sqrt(dma) + 0.3*rng.NormFloat64()
		p[power.SubDisk] = 21 + 0.8*ints + 0.01*dma + 0.2*math.Cos(bus/500) + 0.1*rng.NormFloat64()
		ds.Rows = append(ds.Rows, align.Row{Power: p, Counters: s})
	}
	return ds
}

// scaledSpecs returns the production specs with their equation marks
// cleared, so an estimator runs their Design instead of the kernel, and
// with each Design reading its metrics through scale when scale is not
// nil. scale rescales a copy: Design must not modify its metrics.
func scaledSpecs(scale func(m *Metrics)) [power.NumSubsystems]ModelSpec {
	specs := ProductionSpecs()
	for i := range specs {
		specs[i].eq = 0
		if scale == nil {
			continue
		}
		inner := specs[i].Design
		specs[i].Design = func(d []float64, m *Metrics) {
			scaled := *m
			scale(&scaled)
			inner(d, &scaled)
		}
	}
	return specs
}

// eq6Errors trains the specs on train, estimates every row of valid
// with the estimator they make, and returns each subsystem's Eq. 6
// average error.
func eq6Errors(t *testing.T, specs [power.NumSubsystems]ModelSpec, train, valid *align.Dataset) [power.NumSubsystems]float64 {
	t.Helper()
	models := make([]*Model, 0, len(specs))
	for _, spec := range specs {
		m, err := Train(spec, train)
		if err != nil {
			t.Fatal(err)
		}
		models = append(models, m)
	}
	est, err := NewEstimator(models...)
	if err != nil {
		t.Fatal(err)
	}
	var errs [power.NumSubsystems]float64
	modeled := make([][]float64, power.NumSubsystems)
	measured := make([][]float64, power.NumSubsystems)
	for i := range valid.Rows {
		r := est.Estimate(&valid.Rows[i].Counters)
		for sub := range r {
			modeled[sub] = append(modeled[sub], r[sub])
			measured[sub] = append(measured[sub], valid.Rows[i].Power[sub])
		}
	}
	for sub := range errs {
		if errs[sub], err = stats.AverageError(modeled[sub], measured[sub]); err != nil {
			t.Fatal(err)
		}
	}
	return errs
}

// TestErrorsUnitInvariant is the unit rule on the estimator: rescaling
// one model input by 10^k, k = -6…+6, in training and validation
// alike, or permuting the training rows, leaves every subsystem's Eq. 6
// error unchanged to 1e-9 relative. Features are scaled as floats after
// extraction, so integer counts do not quantize. Own bus transactions
// and DMA are one input here: TotalBus adds them, so they share a unit,
// and rescaling one alone would change the memory model, not its unit.
func TestErrorsUnitInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	train, valid := invarianceDataset(rng, 400), invarianceDataset(rng, 200)
	base := eq6Errors(t, scaledSpecs(nil), train, valid)
	same := func(what string, got [power.NumSubsystems]float64) {
		t.Helper()
		for sub := range got {
			if !(base[sub] > 0) || math.Abs(got[sub]-base[sub]) > 1e-9*base[sub] {
				t.Errorf("%s: %s error %.17g%%, unscaled %.17g%%", what, power.Subsystem(sub), got[sub], base[sub])
			}
		}
	}

	columns := []struct {
		name     string
		features []int
	}{
		{"SumActive", []int{SumActive}},
		{"SumUPC", []int{SumUPC}},
		{"bus+DMA", []int{TotalBus, SumBusTx, MeanDMA}},
		{"SumInts", []int{SumInts}},
		{"SumDiskInts", []int{SumDiskInts}},
	}
	for _, col := range columns {
		for k := -6; k <= 6; k++ {
			c := math.Pow10(k)
			scale := func(m *Metrics) {
				for _, f := range col.features {
					m[f] *= c
				}
			}
			same(fmt.Sprintf("%s x 1e%d", col.name, k), eq6Errors(t, scaledSpecs(scale), train, valid))
		}
	}

	permuted := &align.Dataset{Rows: make([]align.Row, len(train.Rows))}
	for i, j := range rng.Perm(len(train.Rows)) {
		permuted.Rows[i] = train.Rows[j]
	}
	same("permuted training rows", eq6Errors(t, scaledSpecs(nil), permuted, valid))
}
