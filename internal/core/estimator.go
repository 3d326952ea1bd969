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

// EstimateMetrics is Estimate for pre-extracted metrics. The design rows
// are built in m's scratch, so with a reused Metrics it allocates
// nothing; m must not be in use by another goroutine.
func (e *Estimator) EstimateMetrics(m *Metrics) power.Reading {
	var out power.Reading
	for i, mod := range e.models {
		out[i] = mod.Predict(m)
	}
	return out
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

// TrainEstimator fits the paper's five production models (Eq. 1, Eq. 3,
// Eq. 4, Eq. 5 and the chipset constant) on a training set.
func TrainEstimator(ts TrainingSet) (*Estimator, error) {
	cpuM, err := Train(CPUSpec(), ts.CPU)
	if err != nil {
		return nil, err
	}
	memM, err := Train(MemBusSpec(), ts.Memory)
	if err != nil {
		return nil, err
	}
	diskM, err := Train(DiskSpec(), ts.Disk)
	if err != nil {
		return nil, err
	}
	ioM, err := Train(IOSpec(), ts.IO)
	if err != nil {
		return nil, err
	}
	chipM, err := Train(ChipsetSpec(), ts.Chipset)
	if err != nil {
		return nil, err
	}
	return NewEstimator(cpuM, memM, diskM, ioM, chipM)
}
