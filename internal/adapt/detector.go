// Package adapt is the self-healing estimation layer: it watches a
// serving estimator for model drift, refits challenger models online
// from the live stream, promotes a challenger only through a shadow
// evaluation gate, and hot-swaps the champion with a bounded rollback
// ring. The design goal is that every action is deterministic given
// the input stream and the configured seed — drills replay bit for bit.
package adapt

import (
	"fmt"
	"math"

	"trickledown/internal/core"
)

// PageHinkley is the residual drift detector: the one-sided
// Page-Hinkley statistic on the stream of per-sample error percentages,
// accumulated against a *fixed* reference level delta — the held-out
// error envelope from the blessed GOLDEN corpus, not the stream's own
// running mean. A self-referencing mean would quietly re-baseline to a
// drifted error level and never alarm on a stream that was bad from the
// start; anchoring to the offline envelope makes "persistently worse
// than validation said" the alarm condition, which is exactly the
// paper-bound contract the serving layer cares about.
//
// Non-finite inputs are quarantined: counted, never folded into the
// statistics. A hostile stream can therefore stall detection but never
// poison it into NaN state or a spurious alarm.
type PageHinkley struct {
	delta  float64 // reference error level; excess above it accumulates
	lambda float64 // cumulative excess that raises the alarm

	n   uint64  // accepted observations
	cum float64 // cumulative deviation Σ (x - delta)
	min float64 // smallest cum seen

	quarantined uint64
}

// NewPageHinkley returns a detector alarming when the observed stream
// sustains values above the reference delta long enough for the
// accumulated excess to pass lambda.
func NewPageHinkley(delta, lambda float64) (*PageHinkley, error) {
	if !(delta >= 0) || math.IsInf(delta, 0) {
		return nil, fmt.Errorf("adapt: page-hinkley delta %v must be finite and non-negative", delta)
	}
	if !(lambda > 0) || math.IsInf(lambda, 0) {
		return nil, fmt.Errorf("adapt: page-hinkley lambda %v must be finite and positive", lambda)
	}
	return &PageHinkley{delta: delta, lambda: lambda}, nil
}

// Observe feeds one value and reports whether the alarm fired. After an
// alarm the caller decides what to do; the detector keeps accumulating
// until Reset.
func (d *PageHinkley) Observe(x float64) bool {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		d.quarantined++
		return false
	}
	d.n++
	d.cum += x - d.delta
	if d.cum < d.min {
		d.min = d.cum
	}
	return d.cum-d.min > d.lambda
}

// Reset clears the detector's statistics; the quarantine count is
// lifetime and survives.
func (d *PageHinkley) Reset() {
	d.n = 0
	d.cum = 0
	d.min = 0
}

// Quarantined returns the lifetime count of non-finite inputs dropped
// (not reset by Reset).
func (d *PageHinkley) Quarantined() uint64 { return d.quarantined }

// EnvelopeCUSUM is the residual-free drift detector: one-sided CUSUM
// per training-envelope metric on the absolute z-score of the live
// value against the training mean/std. It notices a workload-mix shift
// even when no measured rails arrive to compute residuals from.
type EnvelopeCUSUM struct {
	envs []core.MetricEnvelope
	k    float64 // per-sample slack in z units
	h    float64 // alarm threshold in z·samples
	cums []float64

	quarantined uint64
}

// NewEnvelopeCUSUM builds a detector over the training envelopes. A nil
// or empty envelope set yields a detector that never alarms (the
// champion predates provenance); callers can still use it uniformly.
func NewEnvelopeCUSUM(envs []core.MetricEnvelope, k, h float64) (*EnvelopeCUSUM, error) {
	if !(k >= 0) || math.IsInf(k, 0) {
		return nil, fmt.Errorf("adapt: cusum slack %v must be finite and non-negative", k)
	}
	if !(h > 0) || math.IsInf(h, 0) {
		return nil, fmt.Errorf("adapt: cusum threshold %v must be finite and positive", h)
	}
	return &EnvelopeCUSUM{
		envs: envs,
		k:    k,
		h:    h,
		cums: make([]float64, len(envs)),
	}, nil
}

// Observe feeds one sample's envelope metrics (core.Rates order) and
// reports whether any metric's CUSUM crossed the threshold, along with
// the offending metric's name. Metrics with zero training std are
// uninformative and skipped; non-finite values are quarantined.
func (d *EnvelopeCUSUM) Observe(vals []float64) (bool, string) {
	if len(d.envs) == 0 {
		return false, ""
	}
	if len(vals) != len(d.envs) {
		d.quarantined++
		return false, ""
	}
	alarm := false
	worst := ""
	for i, v := range vals {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			d.quarantined++
			continue
		}
		std := d.envs[i].Std
		if std <= 0 {
			continue
		}
		z := math.Abs(v-d.envs[i].Mean) / std
		c := d.cums[i] + z - d.k
		if c < 0 {
			c = 0
		}
		d.cums[i] = c
		if c > d.h && !alarm {
			alarm = true
			worst = d.envs[i].Name
		}
	}
	return alarm, worst
}

// Reset zeroes every per-metric accumulator; quarantine survives.
func (d *EnvelopeCUSUM) Reset() {
	for i := range d.cums {
		d.cums[i] = 0
	}
}

// Retarget swaps in a new set of training envelopes (after a model
// swap) and resets the accumulators.
func (d *EnvelopeCUSUM) Retarget(envs []core.MetricEnvelope) {
	d.envs = envs
	d.cums = make([]float64, len(envs))
}

// Quarantined returns the lifetime count of non-finite inputs dropped.
func (d *EnvelopeCUSUM) Quarantined() uint64 { return d.quarantined }

// phaseGate tracks power phases in the measured total (the paper's
// §2.4: phase boundaries are where a workload just moved). A phase is a
// maximal run of samples within threshold Watts of its running mean;
// Manager refits only once the open phase has lasted long enough, so a
// challenger is never fit across a transition.
type phaseGate struct {
	threshold float64
	mean      float64 // the open phase's running total-power mean
	n         int     // samples in the open phase; 0 before the first
}

// observe feeds one sample's measured total. A sample more than
// threshold from the open phase's mean opens a new phase.
func (g *phaseGate) observe(total float64) {
	if g.n == 0 || math.Abs(total-g.mean) > g.threshold {
		g.mean, g.n = total, 1
		return
	}
	g.n++
	g.mean += (total - g.mean) / float64(g.n)
}

// settled reports whether the open phase has lasted at least n samples.
func (g *phaseGate) settled(n int) bool { return g.n >= n }
