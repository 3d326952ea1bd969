package core

import (
	"encoding/json"
	"fmt"
	"io"

	"trickledown/internal/power"
	"trickledown/internal/regress"
)

// The paper's deployment story is that models are fitted once on an
// instrumented machine and then shipped to uninstrumented ones ("the
// cost of implementation is small"). This file provides the wire format:
// fitted coefficients plus the spec name; the functional forms
// themselves are code, so loading resolves the name against the spec
// registry.

// specRegistry maps persisted spec names to constructors.
var specRegistry = map[string]func() ModelSpec{}

func init() {
	for _, mk := range []func() ModelSpec{
		CPUSpec, CPUDVFSSpec, CPUOSUtilSpec, MemL3Spec, MemBusSpec, MemBusRWSpec, DiskSpec, IOSpec, ChipsetSpec,
		DiskDMASpec, DiskUncacheableSpec, IODMASpec, IOUncacheableSpec,
	} {
		s := mk()
		specRegistry[s.Name] = mk
	}
}

// SpecByName returns the registered model spec with the given name.
func SpecByName(name string) (ModelSpec, error) {
	mk, ok := specRegistry[name]
	if !ok {
		return ModelSpec{}, fmt.Errorf("core: unknown model spec %q", name)
	}
	return mk(), nil
}

// modelJSON is the persisted form of one fitted model.
type modelJSON struct {
	Spec string    `json:"spec"`
	Sub  string    `json:"subsystem"`
	Coef []float64 `json:"coef"`
	R2   float64   `json:"r2,omitempty"`
	N    int       `json:"n,omitempty"`
}

// estimatorJSON is the persisted form of a full estimator.
type estimatorJSON struct {
	Format     string      `json:"format"`
	Provenance *Provenance `json:"provenance,omitempty"`
	Models     []modelJSON `json:"models"`
}

// The wire format is versioned: v1 carried only coefficients, v2 adds
// the provenance block. Save always writes the current version; load
// accepts both so model files shipped by older builds keep working.
const (
	formatName   = "trickledown-models/2"
	formatNameV1 = "trickledown-models/1"
)

// Save writes the estimator's five fitted models as JSON, with fit
// provenance when the estimator carries one.
func (e *Estimator) Save(w io.Writer) error {
	out := estimatorJSON{Format: formatName, Provenance: e.prov}
	for _, s := range power.Subsystems() {
		m := e.Model(s)
		mj := modelJSON{Spec: m.Spec.Name, Sub: s.String(), Coef: m.Coef}
		if m.Fit != nil {
			mj.R2 = m.Fit.R2
			mj.N = m.Fit.N
		}
		out.Models = append(out.Models, mj)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// LoadEstimator reads an estimator previously written with Save.
func LoadEstimator(r io.Reader) (*Estimator, error) {
	var in estimatorJSON
	if err := json.NewDecoder(r).Decode(&in); err != nil {
		return nil, fmt.Errorf("core: decoding models: %w", err)
	}
	if in.Format != formatName && in.Format != formatNameV1 {
		return nil, fmt.Errorf("core: unsupported model format %q", in.Format)
	}
	models := make([]*Model, 0, len(in.Models))
	for _, mj := range in.Models {
		spec, err := SpecByName(mj.Spec)
		if err != nil {
			return nil, err
		}
		// Save labels every model with its subsystem; v1 files may omit
		// the label.
		if mj.Sub != "" && mj.Sub != spec.Sub.String() {
			return nil, fmt.Errorf("core: model %q is labelled subsystem %q, but it models %s",
				mj.Spec, mj.Sub, spec.Sub)
		}
		m := &Model{Spec: spec, Coef: mj.Coef}
		if mj.N > 0 {
			m.Fit = &regress.Fit{Coef: mj.Coef, R2: mj.R2, N: mj.N}
		}
		models = append(models, m)
	}
	est, err := NewEstimator(models...)
	if err != nil {
		return nil, err
	}
	est.SetProvenance(in.Provenance)
	return est, nil
}
