package core

import (
	"fmt"
	"unsafe"

	"trickledown/internal/align"
	"trickledown/internal/perfctr"
	"trickledown/internal/power"
	"trickledown/internal/sim"
)

// Estimator bundles one fitted model per subsystem into a complete
// sensorless system power meter: feed it 1 Hz counter samples, read back
// all five rails plus the total.
type Estimator struct {
	models [power.NumSubsystems]*Model
	// production is set when every model is its subsystem's production
	// spec, which EstimateSamples then evaluates without Design.
	production bool
	prov       *Provenance
}

// Provenance returns the estimator's fit provenance, or nil when the
// coefficients were assembled without one (hand-built in tests, or
// loaded from a v1 model file).
func (e *Estimator) Provenance() *Provenance { return e.prov }

// SetProvenance attaches fit provenance to the estimator.
func (e *Estimator) SetProvenance(p *Provenance) { e.prov = p }

// NewEstimator builds an estimator from fitted models. Every subsystem
// must be covered exactly once, and every model must have one
// coefficient per design term.
func NewEstimator(models ...*Model) (*Estimator, error) {
	e := &Estimator{}
	for _, m := range models {
		if m == nil {
			return nil, fmt.Errorf("core: nil model")
		}
		idx := int(m.Spec.Sub)
		if idx < 0 || idx >= power.NumSubsystems {
			return nil, fmt.Errorf("core: model %s has invalid subsystem", m.Spec.Name)
		}
		if e.models[idx] != nil {
			return nil, fmt.Errorf("core: duplicate model for %s", m.Spec.Sub)
		}
		if want := len(m.Spec.Terms); len(m.Coef) != want {
			return nil, fmt.Errorf("core: model %q has %d coefficients, want %d",
				m.Spec.Name, len(m.Coef), want)
		}
		e.models[idx] = m
	}
	e.production = true
	for _, s := range power.Subsystems() {
		if e.models[s] == nil {
			return nil, fmt.Errorf("core: no model for %s", s)
		}
		e.production = e.production && e.models[s].Spec.eq == productionEq[s]
	}
	return e, nil
}

// Model returns the fitted model for a subsystem.
func (e *Estimator) Model(s power.Subsystem) *Model {
	if s < 0 || int(s) >= power.NumSubsystems {
		return nil
	}
	return e.models[s]
}

// Estimate returns per-rail power for one counter sample. It views s
// as a batch of one rather than copying it: estimation only reads its
// samples.
func (e *Estimator) Estimate(s *perfctr.Sample) power.Reading {
	var out [1]power.Reading
	e.EstimateRates(out[:], nil, unsafe.Slice(s, 1))
	return out[0]
}

// EstimateSamples writes the estimate of ss[j] to out[j], which must be
// at least len(ss) long. An estimator of the five ProductionSpecs
// evaluates them straight from the counts, one sample at a time: the
// rate pass of RatesOf, then five dot products. Every other estimator
// extracts each sample's row at the default clock and runs the five
// Predicts on it. Either way every rail is bit-identical to
// EstimateMetrics of ExtractMetrics.
func (e *Estimator) EstimateSamples(out []power.Reading, ss []perfctr.Sample) {
	e.EstimateRates(out, nil, ss)
}

// EstimateRates is EstimateSamples that also writes RatesOf(&ss[j]) to
// rs[j] when rs is not nil, computed once for both: by the production
// kernel's rate pass, or as features of the row every other estimator
// extracts. rs, when not nil, must be at least len(ss) long.
func (e *Estimator) EstimateRates(out []power.Reading, rs []Rates, ss []perfctr.Sample) {
	out = out[:len(ss)]
	if e.production {
		// The production kernel: Equations 1, 3, 4 and 5 and the
		// chipset constant with every term in registers. It reproduces
		// ExtractMetricsAtInto followed by each spec's Design and
		// Predict bit for bit: squares are v*v as in the designs, and
		// each dot product starts at 0.0 and adds coef[k]*term[k] in
		// ascending k, each product rounded on its own, as Predict does.
		cpu, chip, mem, io, dsk := e.models[power.SubCPU].Coef, e.models[power.SubChipset].Coef,
			e.models[power.SubMemory].Coef, e.models[power.SubIO].Coef, e.models[power.SubDisk].Coef
		_, _, _, _, _ = cpu[2], chip[0], mem[2], io[2], dsk[4] // one bounds check per call, not per sample
		for j := range ss {
			act, upc, bus, ints, disk, dma := rates(&ss[j])
			if rs != nil {
				rs[j] = Rates{act, upc, bus, ints, disk, dma}
			}
			n := float64(len(ss[j].CPUs))
			o := &out[j]
			o[power.SubCPU] = 0 + float64(cpu[0]*n) + float64(cpu[1]*act) + float64(cpu[2]*upc)
			o[power.SubChipset] = 0 + float64(chip[0]*1)
			o[power.SubMemory] = 0 + float64(mem[0]*1) + float64(mem[1]*bus) + float64(mem[2]*(bus*bus))
			o[power.SubIO] = 0 + float64(io[0]*1) + float64(io[1]*ints) + float64(io[2]*(ints*ints))
			o[power.SubDisk] = 0 + float64(dsk[0]*1) + float64(dsk[1]*disk) + float64(dsk[2]*(disk*disk)) +
				float64(dsk[3]*dma) + float64(dsk[4]*(dma*dma))
		}
		return
	}
	t := termPool.Get().(*terms)
	defer termPool.Put(t)
	for j := range ss {
		ExtractMetricsAtInto(&t.row, &ss[j], sim.DefaultCoreHz)
		if rs != nil {
			rs[j] = Rates(t.row[SumActive : MeanDMA+1])
		}
		out[j] = e.predict(t, &t.row)
	}
}

// predict runs every model's Predict on m, designing in t.
func (e *Estimator) predict(t *terms, m *Metrics) (out power.Reading) {
	for sub, mod := range e.models {
		out[sub] = t.predict(mod, m)
	}
	return out
}

// Rates are the six per-sample aggregates the production designs and
// the drift envelopes read, in EnvelopeNames order: features SumActive
// through MeanDMA of a Metrics row.
type Rates [NumEnvelopeMetrics]float64

// RatesOf is the one rate pass over a sample's processors: the kernel,
// ExtractMetricsAtInto, ComputeEnvelopes and the drift detector all
// read it. Each term comes from the shared per-CPU helpers, the sums
// run in processor order from 0.0, and the mean divides by the
// processor count.
func RatesOf(s *perfctr.Sample) Rates {
	act, upc, bus, ints, disk, dma := rates(s)
	return Rates{act, upc, bus, ints, disk, dma}
}

// rates is RatesOf with each rate in its own result register: the
// kernel calls it once a sample, and returning the array instead slows
// EstimateSamples by about a quarter.
func rates(s *perfctr.Sample) (act, upc, totalBus, ints, disk, meanDMA float64) {
	var bus, dma float64
	diskInts := diskIntsRow(s)
	for i := range s.CPUs {
		c := &s.CPUs[i]
		cyc := float64(c.Cycles)
		if cyc <= 0 {
			// Extraction gives this processor zero rates, and adding
			// +0 leaves a sum of non-negative rates unchanged.
			continue
		}
		mcyc := megacycles(cyc)
		act += activeFraction(c, cyc)
		upc += float64(c.FetchedUops) / cyc
		bus += float64(c.BusTx) / mcyc
		dma += float64(c.DMAOther) / mcyc
		ints += float64(s.IntsForCPU(i)) / mcyc
		disk += diskIntsPMC(diskInts, i, mcyc)
	}
	if len(s.CPUs) > 0 {
		meanDMA = dma / float64(len(s.CPUs))
	}
	return act, upc, bus + meanDMA, ints, disk, meanDMA
}

// EstimateMetrics is Estimate for a sample's extracted row: the five
// models' Predicts. It allocates nothing in steady state, and m may be
// shared by concurrent callers.
func (e *Estimator) EstimateMetrics(m *Metrics) power.Reading {
	t := termPool.Get().(*terms)
	out := e.predict(t, m)
	termPool.Put(t)
	return out
}

// PerCPUPower attributes the CPU subsystem's estimate to individual
// processors using the per-processor terms of Equation 1 — the paper's
// SMP/process-level accounting motivation ("the ability to attribute
// power consumption to a single physical processor within an SMP
// environment is critical"). It returns nil unless the CPU model is
// CPUSpec's Equation 1: another CPU model's coefficients do not weight
// the unhalted fraction and fetch rate of each processor.
func (e *Estimator) PerCPUPower(s *perfctr.Sample) []float64 {
	cm := e.models[power.SubCPU]
	if cm.Spec.eq != eqCPU {
		return nil
	}
	out := make([]float64, len(s.CPUs))
	for i := range s.CPUs {
		c := &s.CPUs[i]
		var act, upc float64
		if cyc := float64(c.Cycles); cyc > 0 {
			act, upc = activeFraction(c, cyc), float64(c.FetchedUops)/cyc
		}
		out[i] = cm.Coef[0] + cm.Coef[1]*act + cm.Coef[2]*upc
	}
	return out
}

// TrainingSet names the dataset used to fit each subsystem, mirroring
// the paper's choices: gcc's staggered ramp for CPU, mcf for the memory
// bus model, DiskLoad for disk and I/O, and any trace for the chipset
// constant.
type TrainingSet struct {
	CPU     *align.Dataset
	Memory  *align.Dataset
	Disk    *align.Dataset
	IO      *align.Dataset
	Chipset *align.Dataset
}

// ProductionSpecs returns the paper's five production models, indexed
// by the subsystem each predicts: Eq. 1 (CPU), the chipset constant,
// Eq. 3 (memory bus), Eq. 5 (I/O) and Eq. 4 (disk). It is the one list
// that training, validation and live refits share.
func ProductionSpecs() [power.NumSubsystems]ModelSpec {
	var out [power.NumSubsystems]ModelSpec
	out[power.SubCPU] = CPUSpec()
	out[power.SubChipset] = ChipsetSpec()
	out[power.SubMemory] = MemBusSpec()
	out[power.SubIO] = IOSpec()
	out[power.SubDisk] = DiskSpec()
	return out
}

// TrainEstimator fits the ProductionSpecs on a training set, each on
// its subsystem's dataset. It trains CPU, memory, disk, I/O and then
// chipset, so when several datasets fail to fit, the error returned is
// the first of them in that order.
func TrainEstimator(ts TrainingSet) (*Estimator, error) {
	specs := ProductionSpecs()
	order := [...]struct {
		sub power.Subsystem
		ds  *align.Dataset
	}{
		{power.SubCPU, ts.CPU},
		{power.SubMemory, ts.Memory},
		{power.SubDisk, ts.Disk},
		{power.SubIO, ts.IO},
		{power.SubChipset, ts.Chipset},
	}
	models := make([]*Model, 0, len(order))
	for _, o := range order {
		m, err := Train(specs[o.sub], o.ds)
		if err != nil {
			return nil, err
		}
		models = append(models, m)
	}
	return NewEstimator(models...)
}
