package core

import (
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"trickledown/internal/align"
	"trickledown/internal/iobus"
	"trickledown/internal/perfctr"
	"trickledown/internal/power"
	"trickledown/internal/regress"
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

// randomSample has 0–8 CPUs, a quarter of them without cycles and a
// third clocked inside the DVFS range, an interval that is sometimes
// zero, OS busy times that are nil, short or full and may be negative,
// too long or NaN, and an interrupt matrix that is nil, too short to
// hold the disk vector, ragged, or full.
func randomSample(rng *rand.Rand) perfctr.Sample {
	n := rng.Intn(9)
	s := perfctr.Sample{TargetSeconds: rng.Float64() * 100, IntervalSec: 0.5 + rng.Float64()}
	if rng.Intn(8) == 0 {
		s.IntervalSec = 0
	}
	s.CPUs = make([]perfctr.CPUCounts, n)
	for i := range s.CPUs {
		c := &s.CPUs[i]
		*c = perfctr.CPUCounts{
			Cycles: randomCount(rng), HaltedCycles: randomCount(rng), FetchedUops: randomCount(rng),
			L3LoadMisses: randomCount(rng), L3Misses: randomCount(rng), BusTx: randomCount(rng),
			BusPrefetchTx: randomCount(rng), DMAOther: randomCount(rng), Uncacheable: randomCount(rng),
			TLBMisses: randomCount(rng),
		}
		switch rng.Intn(12) {
		case 0, 1, 2:
			c.Cycles = 0
		case 3, 4, 5, 6:
			c.Cycles = uint64(rng.Float64() * 1.2 * s.IntervalSec * sim.DefaultCoreHz)
		}
	}
	if k := rng.Intn(3); k > 0 {
		s.OSBusySec = make([]float64, n-rng.Intn(n+1)*(k%2))
		for i := range s.OSBusySec {
			s.OSBusySec[i] = (1.4*rng.Float64() - 0.2) * s.IntervalSec
		}
		if len(s.OSBusySec) > 0 && rng.Intn(64) == 0 {
			s.OSBusySec[rng.Intn(len(s.OSBusySec))] = math.NaN()
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

// The reference below is the per-CPU extraction and the model designs
// that the feature row replaced, kept here so the row path is held to
// them bit for bit: refMetrics holds each processor's rates in its own
// slice, refExtract fills them, and refDesigns computes each spec's
// design terms from processor sums and means taken over those slices.

// refMetrics is one sample's per-CPU rates.
type refMetrics struct {
	n                                                  int
	active, upc, l3load, l3all, bus, prefetch, dma, uc []float64
	ints, diskInts, osUtil, freq                       []float64
}

// refExtract is the per-CPU extraction at the given nominal clock: a
// zero-cycle processor reads zero everywhere but its OS utilization.
func refExtract(s *perfctr.Sample, nominalHz float64) *refMetrics {
	n := len(s.CPUs)
	mk := func() []float64 { return make([]float64, n) }
	m := &refMetrics{n: n, active: mk(), upc: mk(), l3load: mk(), l3all: mk(), bus: mk(),
		prefetch: mk(), dma: mk(), uc: mk(), ints: mk(), diskInts: mk(), osUtil: mk(), freq: mk()}
	for i := range m.osUtil {
		u := 0.0
		if s.IntervalSec > 0 && i < len(s.OSBusySec) {
			u = s.OSBusySec[i] / s.IntervalSec
			if u < 0 {
				u = 0
			}
			if u > 1 {
				u = 1
			}
		}
		m.osUtil[i] = u
	}
	var diskRow []uint64
	if int(iobus.VecDisk) < len(s.Ints) {
		diskRow = s.Ints[iobus.VecDisk]
	}
	for i := range s.CPUs {
		c := &s.CPUs[i]
		cyc := float64(c.Cycles)
		if cyc <= 0 {
			continue
		}
		mcyc := cyc / 1e6
		f := 1.0
		if s.IntervalSec > 0 && nominalHz > 0 {
			f = cyc / (s.IntervalSec * nominalHz)
			if f < 0.1 {
				f = 0.1
			}
			if f > 1 {
				f = 1
			}
		}
		m.freq[i] = f
		m.active[i] = 1 - float64(c.HaltedCycles)/cyc
		if m.active[i] < 0 {
			m.active[i] = 0
		}
		m.upc[i] = float64(c.FetchedUops) / cyc
		m.l3load[i] = float64(c.L3LoadMisses) / mcyc
		m.l3all[i] = float64(c.L3Misses) / mcyc
		m.bus[i] = float64(c.BusTx) / mcyc
		m.prefetch[i] = float64(c.BusPrefetchTx) / mcyc
		m.dma[i] = float64(c.DMAOther) / mcyc
		m.uc[i] = float64(c.Uncacheable) / mcyc
		m.ints[i] = float64(s.IntsForCPU(i)) / mcyc
		if i < len(diskRow) {
			m.diskInts[i] = float64(diskRow[i]) / mcyc
		}
	}
	return m
}

func refSum(v []float64) float64 {
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s
}

func refMean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	return refSum(v) / float64(len(v))
}

func refTotalBus(m *refMetrics) float64 { return refSum(m.bus) + refMean(m.dma) }

func refWritebackShare(m *refMetrics) float64 {
	bus := refSum(m.bus)
	if bus <= 0 {
		return 0
	}
	wb := refSum(m.l3all) - refSum(m.l3load)
	if wb < 0 {
		wb = 0
	}
	share := wb / bus
	if share > 1 {
		share = 1
	}
	return share
}

// refQuadratic is 1, x, x².
func refQuadratic(x float64) []float64 { return []float64{1, x, x * x} }

// refDesigns is each registered spec's design row.
var refDesigns = map[string]func(m *refMetrics) []float64{
	CPUSpec().Name: func(m *refMetrics) []float64 {
		return []float64{float64(m.n), refSum(m.active), refSum(m.upc)}
	},
	CPUDVFSSpec().Name: func(m *refMetrics) []float64 {
		var vSum, actFV, upcFV float64
		for i := 0; i < m.n; i++ {
			f := 1.0
			if m.freq[i] > 0 {
				f = m.freq[i]
			}
			v := power.VoltageScale(f)
			fv2 := f * v * v
			vSum += v
			actFV += m.active[i] * fv2
			upcFV += m.upc[i] * fv2
		}
		return []float64{vSum, actFV, upcFV}
	},
	CPUOSUtilSpec().Name: func(m *refMetrics) []float64 { return []float64{float64(m.n), refSum(m.osUtil)} },
	MemL3Spec().Name:     func(m *refMetrics) []float64 { return refQuadratic(refSum(m.l3load)) },
	MemBusSpec().Name:    func(m *refMetrics) []float64 { return refQuadratic(refTotalBus(m)) },
	MemBusRWSpec().Name: func(m *refMetrics) []float64 {
		x := refTotalBus(m)
		return []float64{1, x, x * x, x * refWritebackShare(m)}
	},
	DiskSpec().Name: func(m *refMetrics) []float64 {
		i, d := refSum(m.diskInts), refMean(m.dma)
		return []float64{1, i, i * i, d, d * d}
	},
	IOSpec().Name:              func(m *refMetrics) []float64 { return refQuadratic(refSum(m.ints)) },
	ChipsetSpec().Name:         func(m *refMetrics) []float64 { return []float64{1} },
	DiskDMASpec().Name:         func(m *refMetrics) []float64 { return refQuadratic(refMean(m.dma)) },
	DiskUncacheableSpec().Name: func(m *refMetrics) []float64 { return refQuadratic(refSum(m.uc)) },
	IODMASpec().Name:           func(m *refMetrics) []float64 { return refQuadratic(refMean(m.dma)) },
	IOUncacheableSpec().Name:   func(m *refMetrics) []float64 { return refQuadratic(refSum(m.uc)) },
}

// refStandby is DiskStandbySpec's design over a per-CPU history.
func refStandby(alpha float64, hist []*refMetrics, i int) []float64 {
	acc := 0.0
	if len(hist) > 0 {
		acc = refSum(hist[0].diskInts)
	}
	for j := 1; j <= i; j++ {
		acc += alpha * (refSum(hist[j].diskInts) - acc)
	}
	ints := refSum(hist[i].diskInts)
	d := refMean(hist[i].dma)
	recency := acc / (acc + 0.01)
	return []float64{1, ints, ints * ints, d, recency}
}

// refDot is the dot product of a design row: from 0.0, each product
// rounded before its add, in ascending term order.
func refDot(coef, row []float64) float64 {
	s := 0.0
	for k, c := range coef {
		s += float64(c * row[k])
	}
	return s
}

// refEstimate is the reference reading of one sample.
func refEstimate(est *Estimator, s *perfctr.Sample) (out power.Reading) {
	m := refExtract(s, sim.DefaultCoreHz)
	for sub, mod := range est.models {
		out[sub] = refDot(mod.Coef, refDesigns[mod.Spec.Name](m))
	}
	return out
}

// refRow is every feature of the per-CPU extraction: the processor
// sums and means the designs read, the DVFS sums of the DVFS design, and
// Figure 4's prefetch sum.
func refRow(m *refMetrics) Metrics {
	dvfs := refDesigns[CPUDVFSSpec().Name](m)
	return Metrics{
		NumCPUs:   float64(m.n),
		SumActive: refSum(m.active), SumUPC: refSum(m.upc), TotalBus: refTotalBus(m),
		SumInts: refSum(m.ints), SumDiskInts: refSum(m.diskInts), MeanDMA: refMean(m.dma),
		SumBusTx: refSum(m.bus), SumL3Load: refSum(m.l3load), SumL3All: refSum(m.l3all),
		SumPrefetch: refSum(m.prefetch), SumUncacheable: refSum(m.uc), SumOSUtil: refSum(m.osUtil),
		SumV: dvfs[0], SumActiveFV2: dvfs[1], SumUPCFV2: dvfs[2],
		WBShare: refWritebackShare(m),
	}
}

// randomDataset is n random samples with random finite rails.
func randomDataset(rng *rand.Rand, n int) *align.Dataset {
	ds := &align.Dataset{Rows: make([]align.Row, n)}
	for i := range ds.Rows {
		ds.Rows[i].Counters = randomSample(rng)
		for sub := range ds.Rows[i].Power {
			ds.Rows[i].Power[sub] = rng.Float64() * 100
		}
	}
	return ds
}

// sameErr reports whether two errors are both nil or read the same.
func sameErr(a, b error) bool {
	if a == nil || b == nil {
		return a == b
	}
	return a.Error() == b.Error()
}

// TestEstimateSamplesMatchesExtractAndBatch: on random samples, every
// reading of EstimateSamples, Estimate, EstimateRates and
// EstimateMetrics of ExtractMetrics equals the per-CPU reference's bit
// for bit, every feature of the row equals the reference aggregate at
// the default clock and at a slower one, and RatesOf and EstimateRates
// equal the reference rates. A NaN matches any NaN. It runs the
// production estimator, which takes the kernel, and for every other
// registered spec an estimator with that spec swapped in, which takes
// the row path; so does a hand-built copy of Eq. 1 that carries its
// Name.
func TestEstimateSamplesMatchesExtractAndBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	prod := ProductionSpecs()
	eq1 := CPUSpec()
	type estCase struct {
		name       string
		specs      [power.NumSubsystems]ModelSpec
		production bool
	}
	cases := []estCase{
		{"production", prod, true},
		{"named-copy", prod, false},
	}
	cases[1].specs[power.SubCPU] = ModelSpec{Name: eq1.Name, Sub: eq1.Sub, Design: eq1.Design, Terms: eq1.Terms}
	for name := range specRegistry {
		spec, err := SpecByName(name)
		if err != nil {
			t.Fatal(err)
		}
		specs := prod
		if spec.eq != 0 {
			// A production spec takes the row path beside another
			// subsystem's rejected model.
			other := CPUOSUtilSpec()
			if spec.Sub == power.SubCPU {
				other = MemL3Spec()
			}
			specs[other.Sub] = other
		}
		specs[spec.Sub] = spec
		cases = append(cases, estCase{name, specs, false})
	}
	sort.Slice(cases[2:], func(i, j int) bool { return cases[2+i].name < cases[2+j].name })
	for _, tc := range cases {
		for trial := 0; trial < 10; trial++ {
			est := randomEstimator(t, rng, tc.specs)
			if est.production != tc.production {
				t.Fatalf("%s: production = %v, want %v", tc.name, est.production, tc.production)
			}
			ss := make([]perfctr.Sample, 1+rng.Intn(2*chunkLen))
			for j := range ss {
				ss[j] = randomSample(rng)
			}
			got := make([]power.Reading, len(ss))
			est.EstimateSamples(got, ss)
			paired, pairedRates := make([]power.Reading, len(ss)), make([]Rates, len(ss))
			est.EstimateRates(paired, pairedRates, ss)
			for j := range ss {
				want := refEstimate(est, &ss[j])
				row := ExtractMetrics(&ss[j])
				var slow Metrics // at a slower nominal clock, so DVFS reads other operating points
				ExtractMetricsAtInto(&slow, &ss[j], 2e9)
				ref, refSlow := refRow(refExtract(&ss[j], sim.DefaultCoreHz)), refRow(refExtract(&ss[j], 2e9))
				for f := range ref {
					if !sameBits(row[f], ref[f]) || !sameBits(slow[f], refSlow[f]) {
						t.Fatalf("%s trial %d sample %d (%d CPUs) feature %d: %v and %v, reference %v and %v",
							tc.name, trial, j, len(ss[j].CPUs), f, row[f], slow[f], ref[f], refSlow[f])
					}
				}
				for k := range pairedRates[j] {
					for _, v := range []float64{RatesOf(&ss[j])[k], pairedRates[j][k]} {
						if math.Float64bits(v) != math.Float64bits(ref[SumActive+k]) {
							t.Fatalf("%s trial %d sample %d (%d CPUs) %s: %v, reference %v",
								tc.name, trial, j, len(ss[j].CPUs), EnvelopeNames()[k], v, ref[SumActive+k])
						}
					}
				}
				one, fromRow := est.Estimate(&ss[j]), est.EstimateMetrics(&row)
				for sub := range want {
					for _, v := range []float64{got[j][sub], one[sub], paired[j][sub], fromRow[sub]} {
						if !sameBits(v, want[sub]) {
							t.Fatalf("%s trial %d sample %d (%d CPUs) %s: %v (%#x), reference %v (%#x)",
								tc.name, trial, j, len(ss[j].CPUs), power.Subsystem(sub),
								v, math.Float64bits(v), want[sub], math.Float64bits(want[sub]))
						}
					}
				}
			}
		}
	}
}

// TestTrainAndTraceMatchReference: on random datasets, every registered
// spec trains to the coefficients the per-CPU reference's design rows
// fit, bit for bit (or fails with the same error), and its Trace reads
// the reference dot products of random coefficients; DiskStandbySpec's
// TrainSeq and Trace do the same over a history.
func TestTrainAndTraceMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	if len(specRegistry) != len(refDesigns) {
		t.Fatalf("%d registered specs, %d reference designs", len(specRegistry), len(refDesigns))
	}
	names := make([]string, 0, len(specRegistry))
	for name := range specRegistry {
		names = append(names, name)
	}
	sort.Strings(names)
	for trial := 0; trial < 12; trial++ {
		ds := randomDataset(rng, 2+rng.Intn(40))
		hist := make([]*refMetrics, ds.Len())
		for i := range ds.Rows {
			hist[i] = refExtract(&ds.Rows[i].Counters, sim.DefaultCoreHz)
		}
		check := func(name string, got, want []float64) {
			t.Helper()
			if len(got) != len(want) {
				t.Fatalf("%s trial %d: %d values, reference %d", name, trial, len(got), len(want))
			}
			for i := range want {
				if !sameBits(got[i], want[i]) {
					t.Fatalf("%s trial %d value %d: %v (%#x), reference %v (%#x)", name, trial, i,
						got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
				}
			}
		}
		for _, name := range names {
			spec, _ := SpecByName(name)
			x := make([][]float64, ds.Len())
			y := make([]float64, ds.Len())
			for i := range x {
				x[i], y[i] = refDesigns[name](hist[i]), ds.Rows[i].Power[spec.Sub]
			}
			fit, refErr := fitRows(spec.Name, spec.Sub, spec.Terms, x, y)
			mod, err := Train(spec, ds)
			if !sameErr(err, refErr) {
				t.Fatalf("%s trial %d: Train error %v, reference %v", name, trial, err, refErr)
			}
			if err == nil {
				check(name+" coef", mod.Coef, fit.Coef)
			}
			coef := make([]float64, len(spec.Terms))
			for k := range coef {
				coef[k] = randomRate(rng)
			}
			want := make([]float64, ds.Len())
			for i := range x {
				want[i] = refDot(coef, x[i])
			}
			_, modeled := (&Model{Spec: spec, Coef: coef}).Trace(ds)
			check(name+" trace", modeled, want)
		}
		const alpha = 0.3
		spec := DiskStandbySpec(alpha)
		x := make([][]float64, ds.Len())
		y := make([]float64, ds.Len())
		for i := range x {
			x[i], y[i] = refStandby(alpha, hist, i), ds.Rows[i].Power[spec.Sub]
		}
		fit, refErr := fitRows(spec.Name, spec.Sub, spec.Terms, x, y)
		mod, err := TrainSeq(spec, ds)
		if !sameErr(err, refErr) {
			t.Fatalf("%s trial %d: TrainSeq error %v, reference %v", spec.Name, trial, err, refErr)
		}
		if err != nil {
			continue
		}
		check(spec.Name+" coef", mod.Coef, fit.Coef)
		want := make([]float64, ds.Len())
		for i := range x {
			want[i] = regress.Predict(mod.Coef, x[i])
		}
		_, modeled := mod.Trace(ds)
		check(spec.Name+" trace", modeled, want)
	}
}

// TestProductionKernelSkipsDesign: the production estimator evaluates
// its models without calling Design, and an estimator that is not
// production calls it, even when its spec copies a production Name.
func TestProductionKernelSkipsDesign(t *testing.T) {
	calls := 0
	counted := func(spec ModelSpec) ModelSpec {
		inner := spec.Design
		spec.Design = func(d []float64, m *Metrics) {
			calls++
			inner(d, m)
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

// TestNewEstimatorRejectsCoefWidth: a model whose Coef is shorter or
// longer than its design is refused at construction, so no estimator
// evaluates a design with the wrong coefficients.
func TestNewEstimatorRejectsCoefWidth(t *testing.T) {
	for _, width := range []int{2, 4} {
		models := handEstimator(t).models
		models[power.SubCPU].Coef = make([]float64, width)
		_, err := NewEstimator(models[:]...)
		if err == nil || !strings.Contains(err.Error(), "want 3") {
			t.Errorf("%d-term Eq. 1 Coef: err = %v, want a width error", width, err)
		}
	}
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

// chunkLen is the chunk length tdserve's workers estimate at once.
const chunkLen = 256

// BenchmarkEstimateSamples is one chunkLen chunk of served-shape
// samples (2 CPUs, no interrupt matrix) through EstimateSamples: the
// production estimator's kernel, and the general path of an estimator
// with the rejected Eq. 2 memory model.
func BenchmarkEstimateSamples(b *testing.B) {
	s := mkSample(0.7, 1.1, 120, 600, 150, 30)
	s.Ints = nil
	ss := make([]perfctr.Sample, chunkLen)
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
			out := make([]power.Reading, chunkLen)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				bc.est.EstimateSamples(out, ss)
			}
		})
	}
}
