package validate

import (
	"fmt"

	"trickledown/internal/align"
	"trickledown/internal/core"
	"trickledown/internal/power"
	"trickledown/internal/stats"
)

// Shadow evaluation: the window-scale metamorphic battery the adapt
// layer runs before promoting a refit challenger. The full Checks suite
// simulates fresh workloads and is far too heavy for a serving process;
// this battery reuses the same model-level invariants (monotonic in the
// dominant event, chipset constant in the hardware envelope, finite
// everywhere) but probes them against the live sliding window the
// challenger was fit on. A model that passes here behaves like a power
// model on the data it is about to serve; whether it beats the champion
// is a separate residual comparison the caller makes.

// ShadowChecks runs the window-scale battery against a candidate
// estimator. The window must be the sliding window the candidate was
// fit from (or any recent slice of live traffic). Results come back in
// a fixed order; all OK means the gate is open.
func ShadowChecks(est *core.Estimator, window *align.Dataset) []CheckResult {
	results := append([]CheckResult{checkWindowFinite(est, window)},
		monotonicChecks("shadow-", est, window)...)
	results = append(results, checkChipsetConstant(est.Model(power.SubChipset)))
	for _, r := range results {
		if r.OK {
			mChecks.With("ok").Inc()
		} else {
			mChecks.With("fail").Inc()
		}
	}
	return results
}

// ShadowOK reduces a battery to a single verdict with the first failing
// check's detail, for flight-recorder notes.
func ShadowOK(results []CheckResult) (bool, string) {
	for _, r := range results {
		if !r.OK {
			return false, fmt.Sprintf("%s: %s", r.Name, r.Detail)
		}
	}
	return true, ""
}

// checkWindowFinite: every estimate over the window must be finite and
// the total positive — the candidate may never serve NaN or negative
// system power on data it has already seen.
func checkWindowFinite(est *core.Estimator, window *align.Dataset) CheckResult {
	const name = "shadow-finite"
	if window.Len() == 0 {
		return CheckResult{Name: name, Detail: "empty window"}
	}
	for i := range window.Rows {
		r := est.Estimate(&window.Rows[i].Counters)
		if sub := r.NonFinite(); sub >= 0 {
			return CheckResult{Name: name, Detail: fmt.Sprintf(
				"row %d rail %s non-finite", i, sub)}
		}
		if r.Total() <= 0 {
			return CheckResult{Name: name, Detail: fmt.Sprintf(
				"row %d total %.3f W not positive", i, r.Total())}
		}
	}
	return CheckResult{Name: name, OK: true,
		Detail: fmt.Sprintf("%d window rows finite and positive", window.Len())}
}

// WindowError computes the paper's Eq. 6 average error of the
// estimator's total power against measured rails over a window, in
// percent. This is the residual criterion the promotion gate compares
// between champion and challenger.
func WindowError(est *core.Estimator, window *align.Dataset) (float64, error) {
	if window.Len() == 0 {
		return 0, fmt.Errorf("validate: window error: empty window")
	}
	modeled := make([]float64, window.Len())
	measured := make([]float64, window.Len())
	for i := range window.Rows {
		modeled[i] = est.Estimate(&window.Rows[i].Counters).Total()
		measured[i] = window.Rows[i].Power.Total()
	}
	// AverageError already reports percent (Eq. 6 includes the ×100).
	return stats.AverageError(modeled, measured)
}
