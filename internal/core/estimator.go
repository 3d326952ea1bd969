package core

import (
	"fmt"

	"trickledown/internal/align"
	"trickledown/internal/perfctr"
	"trickledown/internal/power"
)

// Estimator bundles one fitted model per subsystem into a complete
// sensorless system power meter: feed it 1 Hz counter samples, read back
// all five rails plus the total.
type Estimator struct {
	models [power.NumSubsystems]*Model
	reads  Fields // the union of the models' Spec.Reads
	prov   *Provenance
}

// Provenance returns the estimator's fit provenance, or nil when the
// coefficients were assembled without one (hand-built in tests, or
// loaded from a v1 model file).
func (e *Estimator) Provenance() *Provenance { return e.prov }

// SetProvenance attaches fit provenance to the estimator.
func (e *Estimator) SetProvenance(p *Provenance) { e.prov = p }

// NewEstimator builds an estimator from fitted models. Every subsystem
// must be covered exactly once.
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
		e.models[idx] = m
		e.reads |= m.Spec.Reads
	}
	for _, s := range power.Subsystems() {
		if e.models[s] == nil {
			return nil, fmt.Errorf("core: no model for %s", s)
		}
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

// Estimate returns per-rail power for one counter sample.
func (e *Estimator) Estimate(s *perfctr.Sample) power.Reading {
	return e.EstimateMetrics(ExtractMetrics(s))
}

// ExtractInto is ExtractMetricsAtInto for this estimator's inputs: it
// writes NumCPUs and the fields its models declare they read, and
// leaves the rest of m as it was. Each written field is the same bits
// ExtractMetricsAtInto writes, so EstimateBatch on metrics extracted
// either way returns the same readings.
func (e *Estimator) ExtractInto(m *Metrics, s *perfctr.Sample, nominalHz float64) {
	extractInto(m, s, nominalHz, e.reads)
}

// EstimateMetrics is Estimate for pre-extracted metrics: a batch of
// one through EstimateBatch, in pooled scratch, so it allocates nothing
// in steady state and m may be shared by concurrent callers. A caller
// that owns its scratch saves the pool and the Metrics copy by passing
// a one-element batch to EstimateBatch.
func (e *Estimator) EstimateMetrics(m *Metrics) power.Reading {
	one := getSingle(m)
	var out [1]power.Reading
	e.EstimateBatch(out[:], one.ms[:], &one.cols)
	putSingle(one)
	return out[0]
}

// EstimateBatch writes the estimate of ms[j] to out[j], which must be
// at least len(ms) long. It makes one Design call per model for the
// whole batch, building the columns in c; a caller that reuses ms, out
// and c estimates without allocating. Every rail is bit-identical to
// EstimateMetrics on the same sample.
func (e *Estimator) EstimateBatch(out []power.Reading, ms []Metrics, c *Columns) {
	out = out[:len(ms)]
	if cap(c.rail) < len(ms) {
		c.rail = make([]float64, len(ms))
	}
	rail := c.rail[:len(ms)]
	for sub, mod := range e.models {
		mod.predict(rail, ms, c)
		for j, v := range rail {
			out[j][sub] = v
		}
	}
}

// PerCPUPower attributes the CPU subsystem's estimate to individual
// processors using the per-processor terms of Equation 1 — the paper's
// SMP/process-level accounting motivation ("the ability to attribute
// power consumption to a single physical processor within an SMP
// environment is critical").
func (e *Estimator) PerCPUPower(s *perfctr.Sample) []float64 {
	m := ExtractMetrics(s)
	cm := e.models[power.SubCPU]
	out := make([]float64, m.NumCPUs)
	if len(cm.Coef) < 3 {
		return out
	}
	for i := 0; i < m.NumCPUs; i++ {
		out[i] = cm.Coef[0] + cm.Coef[1]*m.PercentActive[i] + cm.Coef[2]*m.UopsPerCycle[i]
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
