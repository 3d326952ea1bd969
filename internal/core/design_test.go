package core

import (
	"math"
	"math/rand"
	"testing"

	"trickledown/internal/power"
	"trickledown/internal/regress"
	"trickledown/internal/sim"
)

// designRow returns spec's design terms for one sample: a batch of one.
func designRow(spec ModelSpec, m *Metrics) []float64 {
	var c Columns
	cols := c.design(&spec, []Metrics{*m})
	row := make([]float64, len(cols))
	for k, col := range cols {
		row[k] = col[0]
	}
	return row
}

// rowReference is each registered spec's design row as a per-sample
// append, the formulas the batch Designs replaced. The property test
// holds every batch Design to them bit for bit.
var rowReference = map[string]func(dst []float64, m *Metrics) []float64{
	CPUSpec().Name: func(dst []float64, m *Metrics) []float64 {
		return append(dst, float64(m.NumCPUs), sum(m.PercentActive), sum(m.UopsPerCycle))
	},
	CPUDVFSSpec().Name: func(dst []float64, m *Metrics) []float64 {
		var vSum, actFV, upcFV float64
		for i := 0; i < m.NumCPUs; i++ {
			f := 1.0
			if i < len(m.FreqScale) && m.FreqScale[i] > 0 {
				f = m.FreqScale[i]
			}
			v := power.VoltageScale(f)
			fv2 := f * v * v
			vSum += v
			actFV += m.PercentActive[i] * fv2
			upcFV += m.UopsPerCycle[i] * fv2
		}
		return append(dst, vSum, actFV, upcFV)
	},
	CPUOSUtilSpec().Name: func(dst []float64, m *Metrics) []float64 {
		return append(dst, float64(m.NumCPUs), sum(m.OSUtil))
	},
	MemL3Spec().Name: func(dst []float64, m *Metrics) []float64 {
		x := sum(m.L3LoadPMC)
		return append(dst, 1, x, x*x)
	},
	MemBusSpec().Name: func(dst []float64, m *Metrics) []float64 {
		x := m.TotalBusPMC()
		return append(dst, 1, x, x*x)
	},
	MemBusRWSpec().Name: func(dst []float64, m *Metrics) []float64 {
		x := m.TotalBusPMC()
		w := m.WritebackShare()
		return append(dst, 1, x, x*x, x*w)
	},
	DiskSpec().Name: func(dst []float64, m *Metrics) []float64 {
		i := sum(m.DiskIntsPMC)
		d := mean(m.DMAPMC)
		return append(dst, 1, i, i*i, d, d*d)
	},
	IOSpec().Name: func(dst []float64, m *Metrics) []float64 {
		x := sum(m.IntsPMC)
		return append(dst, 1, x, x*x)
	},
	ChipsetSpec().Name: func(dst []float64, m *Metrics) []float64 {
		return append(dst, 1)
	},
	DiskDMASpec().Name: func(dst []float64, m *Metrics) []float64 {
		d := mean(m.DMAPMC)
		return append(dst, 1, d, d*d)
	},
	DiskUncacheableSpec().Name: func(dst []float64, m *Metrics) []float64 {
		u := sum(m.UncacheablePMC)
		return append(dst, 1, u, u*u)
	},
	IODMASpec().Name: func(dst []float64, m *Metrics) []float64 {
		d := mean(m.DMAPMC)
		return append(dst, 1, d, d*d)
	},
	IOUncacheableSpec().Name: func(dst []float64, m *Metrics) []float64 {
		u := sum(m.UncacheablePMC)
		return append(dst, 1, u, u*u)
	},
}

// sameBits reports whether a and b are the same float64 bit for bit,
// counting any two NaNs as the same: which NaN payload an addition of two
// NaNs keeps depends on the operand order the compiler picks, and Go
// does not specify it.
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

// randomRate is mostly an ordinary rate, sometimes a value that tests
// the arithmetic's edges: NaN, ±Inf, ±0, a subnormal, a huge value.
func randomRate(rng *rand.Rand) float64 {
	switch rng.Intn(16) {
	case 0:
		return math.NaN()
	case 1:
		return math.Inf(1)
	case 2:
		return math.Inf(-1)
	case 3:
		return 0
	case 4:
		return math.Copysign(0, -1)
	case 5:
		return 5e-324
	case 6:
		return 1e300
	case 7:
		return -rng.Float64() * 100
	default:
		return rng.Float64() * math.Pow(10, float64(rng.Intn(7)-2))
	}
}

// randomMetrics fills m for 1–8 CPUs. A quarter of the CPUs read zero
// everywhere, as ExtractMetricsAtInto writes for a zero-cycle CPU.
func randomMetrics(rng *rand.Rand) Metrics {
	n := 1 + rng.Intn(8)
	var m Metrics
	m.carve(n)
	fields := [perCPUMetrics]*[]float64{
		&m.PercentActive, &m.UopsPerCycle, &m.L3LoadPMC, &m.L3AllPMC,
		&m.BusTxPMC, &m.PrefetchPMC, &m.DMAPMC, &m.UncacheablePMC,
		&m.TLBPMC, &m.IntsPMC, &m.DiskIntsPMC, &m.OSUtil, &m.FreqScale,
	}
	for i := 0; i < n; i++ {
		zeroCycles := rng.Intn(4) == 0
		for _, f := range fields {
			(*f)[i] = 0
			if !zeroCycles {
				(*f)[i] = randomRate(rng)
			}
		}
	}
	return m
}

// TestBatchDesignMatchesRowReference: for every registered spec, a batch
// Design followed by the batch dot product equals the per-row reference
// followed by regress.Predict, bit for bit, over random Metrics with
// non-finite and signed-zero rates. Each Design writes every element of
// exactly len(Terms) columns: a column element left at the sentinel, or
// a reference row of another width, fails.
func TestBatchDesignMatchesRowReference(t *testing.T) {
	sentinel := math.Float64frombits(0x7ff4dead0000beef) // a NaN no arithmetic yields
	rng := rand.New(rand.NewSource(21))
	if len(specRegistry) != len(rowReference) {
		t.Fatalf("%d registered specs, %d row references", len(specRegistry), len(rowReference))
	}
	for trial := 0; trial < 40; trial++ {
		ms := make([]Metrics, 1+rng.Intn(300))
		for j := range ms {
			ms[j] = randomMetrics(rng)
		}
		for name := range specRegistry {
			spec, err := SpecByName(name)
			if err != nil {
				t.Fatal(err)
			}
			ref, ok := rowReference[name]
			if !ok {
				t.Fatalf("no row reference for %q", name)
			}
			w := len(spec.Terms)
			cols := make([][]float64, w)
			for k := range cols {
				cols[k] = make([]float64, len(ms))
				for j := range cols[k] {
					cols[k][j] = sentinel
				}
			}
			spec.Design(cols, ms)
			coef := make([]float64, w)
			for k := range coef {
				coef[k] = randomRate(rng)
			}
			got := make([]float64, len(ms))
			dot(got, coef, cols)
			for j := range ms {
				row := ref(nil, &ms[j])
				if len(row) != w {
					t.Fatalf("%s: reference row has %d terms, spec %d", name, len(row), w)
				}
				for k, want := range row {
					if v := cols[k][j]; math.Float64bits(v) != math.Float64bits(want) {
						t.Fatalf("%s trial %d sample %d term %s: batch %v (%#x), row %v (%#x)",
							name, trial, j, spec.Terms[k], v, math.Float64bits(v), want, math.Float64bits(want))
					}
				}
				if want := regress.Predict(coef, row); !sameBits(got[j], want) {
					t.Fatalf("%s trial %d sample %d: batch dot %v, row dot %v", name, trial, j, got[j], want)
				}
			}
		}
	}
}

// TestEstimateBatchMatchesRowReference: one batch through the five
// production models reads, rail for rail, the per-row reference's dot
// product, and so does EstimateMetrics; reusing the columns for a
// shorter batch changes nothing.
func TestEstimateBatchMatchesRowReference(t *testing.T) {
	est := handEstimator(t)
	rng := rand.New(rand.NewSource(7))
	var c Columns
	for _, n := range []int{BatchSize, 1, 37} {
		ms := make([]Metrics, n)
		for j := range ms {
			ms[j] = randomMetrics(rng)
		}
		out := make([]power.Reading, n)
		est.EstimateBatch(out, ms, &c)
		for j := range ms {
			one := est.EstimateMetrics(&ms[j])
			for s, mod := range est.models {
				want := regress.Predict(mod.Coef, rowReference[mod.Spec.Name](nil, &ms[j]))
				for _, got := range []float64{out[j][s], one[s]} {
					if !sameBits(got, want) {
						t.Fatalf("batch of %d sample %d %s: %v, want %v", n, j, power.Subsystem(s), got, want)
					}
				}
			}
		}
	}
}

// BenchmarkEstimateBatch is the live service's estimate step: one
// BatchSize chunk extracted into reused Metrics, then all five rails
// estimated a model at a time. ns/op divided by BatchSize compares with
// BenchmarkEstimateMetrics.
func BenchmarkEstimateBatch(b *testing.B) {
	est := handEstimator(b)
	s := mkSample(0.7, 1.1, 120, 600, 150, 30)
	ms := make([]Metrics, BatchSize)
	out := make([]power.Reading, BatchSize)
	var c Columns
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range ms {
			ExtractMetricsAtInto(&ms[j], &s, sim.DefaultCoreHz)
		}
		est.EstimateBatch(out, ms, &c)
	}
}
