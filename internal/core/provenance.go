package core

import (
	"fmt"
	"math"
	"strings"

	"trickledown/internal/align"
)

// Provenance records where an estimator's coefficients came from. It
// rides along in the persisted model file (schema v2) and in memory on
// the Estimator, so a serving process can always answer "which model is
// live, fit from what data, descended from what" — the observability
// the hot-swap path needs to make a rollback auditable.
type Provenance struct {
	// SchemaVersion is the provenance schema, independent of the file
	// format version (bump when fields change meaning).
	SchemaVersion int `json:"schema_version"`
	// Version names this particular fit: "train-<fingerprint>" for the
	// offline fit, "refit-<n>" for online challengers.
	Version string `json:"version"`
	// TrainedAt is the wall-clock fit time, RFC 3339. Informational
	// only; deterministic pipelines must not branch on it.
	TrainedAt string `json:"trained_at,omitempty"`
	// Fingerprint is the training dataset's FNV-64a fingerprint
	// (align.Fingerprint), tying coefficients to their data.
	Fingerprint string `json:"fingerprint,omitempty"`
	// Envelopes holds per-metric rate envelopes (mean/std of the design
	// inputs over the training data) for residual-free drift detection.
	Envelopes []MetricEnvelope `json:"envelopes,omitempty"`
	// Parent is the Version of the champion this model replaced, empty
	// for the initial offline fit.
	Parent string `json:"parent,omitempty"`
	// Reason says why the fit happened: "offline-train", "drift-refit",
	// "rollback".
	Reason string `json:"reason,omitempty"`
}

// String renders the one-line form tdserve logs at startup.
func (p *Provenance) String() string {
	if p == nil {
		return "provenance{unknown}"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "provenance{v%d %s", p.SchemaVersion, p.Version)
	if p.Fingerprint != "" {
		fmt.Fprintf(&b, " data=%s", p.Fingerprint)
	}
	if p.TrainedAt != "" {
		fmt.Fprintf(&b, " at=%s", p.TrainedAt)
	}
	if p.Parent != "" {
		fmt.Fprintf(&b, " parent=%s", p.Parent)
	}
	if p.Reason != "" {
		fmt.Fprintf(&b, " reason=%s", p.Reason)
	}
	b.WriteString("}")
	return b.String()
}

// ProvenanceSchemaVersion is the current provenance schema.
const ProvenanceSchemaVersion = 1

// MetricEnvelope is the training-time distribution of one scalar metric
// rate: the drift detector compares live values against (Mean, Std) to
// notice workload-mix shifts even when no ground-truth rails arrive.
type MetricEnvelope struct {
	Name string  `json:"name"`
	Mean float64 `json:"mean"`
	Std  float64 `json:"std"`
}

// NumEnvelopeMetrics is the number of scalar rates in Rates.
const NumEnvelopeMetrics = 6

// EnvelopeNames returns the metric names for Rates positions.
func EnvelopeNames() []string {
	return []string{"percent_active", "uops_per_cycle", "bus_tx_total", "ints", "disk_ints", "dma"}
}

// ComputeEnvelopes summarizes a training dataset into per-metric rate
// envelopes. Non-finite rows are skipped (Train would have rejected
// them anyway); a degenerate metric gets Std 0 and the detector treats
// it as uninformative.
func ComputeEnvelopes(ds *align.Dataset) []MetricEnvelope {
	names := EnvelopeNames()
	k := len(names)
	sums := make([]float64, k)
	sqs := make([]float64, k)
	n := 0
	for i := range ds.Rows {
		vals := RatesOf(&ds.Rows[i].Counters)
		finite := true
		for _, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				finite = false
				break
			}
		}
		if !finite {
			continue
		}
		for j, v := range vals {
			sums[j] += v
			sqs[j] += v * v
		}
		n++
	}
	out := make([]MetricEnvelope, k)
	for j, name := range names {
		out[j].Name = name
		if n == 0 {
			continue
		}
		m := sums[j] / float64(n)
		out[j].Mean = m
		v := sqs[j]/float64(n) - m*m
		if v > 0 {
			out[j].Std = math.Sqrt(v)
		}
	}
	return out
}
