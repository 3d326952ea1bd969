package core

import (
	"fmt"
	"sort"

	"trickledown/internal/align"
)

// Model selection, mechanizing the paper's Section 3.3.1 procedure:
// "though the initial selection of performance events for modeling is
// dictated by an understanding of subsystem interactions, the final
// selection of which event type(s) to use is determined by the average
// error rate" — candidates are trained on one trace and ranked by
// Equation 6 error on held-out traces, exactly how the paper discarded
// the L3-miss memory model and the DMA/uncacheable disk inputs.

// Candidate reports one spec's cross-validation outcome.
type Candidate struct {
	// Model is the fitted candidate (nil if training failed).
	Model *Model
	// Err is the mean Equation 6 error across the holdout traces.
	Err float64
	// TrainErr is the error on the training trace itself.
	TrainErr float64
	// Failure records why the candidate was dropped, if it was.
	Failure error
}

func (c Candidate) String() string {
	if c.Failure != nil {
		return fmt.Sprintf("FAILED (%v)", c.Failure)
	}
	return fmt.Sprintf("%s: holdout %.2f%% (train %.2f%%)", c.Model.Spec.Name, c.Err, c.TrainErr)
}

// SelectModel trains every candidate spec on train, scores each on the
// holdout traces, and returns the lowest-error survivor plus the full
// ranking (best first; failures last). All specs must target the same
// subsystem. It fails if no candidate survives.
func SelectModel(specs []ModelSpec, train *align.Dataset, holdouts ...*align.Dataset) (*Model, []Candidate, error) {
	if len(specs) == 0 {
		return nil, nil, fmt.Errorf("core: no candidate specs")
	}
	if len(holdouts) == 0 {
		return nil, nil, fmt.Errorf("core: no holdout traces")
	}
	sub := specs[0].Sub
	for _, spec := range specs[1:] {
		if spec.Sub != sub {
			return nil, nil, fmt.Errorf("core: candidates target %s and %s", sub, spec.Sub)
		}
	}
	candidates := make([]Candidate, 0, len(specs))
	for _, spec := range specs {
		c := Candidate{}
		m, err := Train(spec, train)
		if err != nil {
			c.Failure = err
			candidates = append(candidates, c)
			continue
		}
		c.Model = m
		if c.TrainErr, err = m.Validate(train); err != nil {
			c.Failure = err
			c.Model = nil
			candidates = append(candidates, c)
			continue
		}
		var sum float64
		n := 0
		for _, h := range holdouts {
			e, err := m.Validate(h)
			if err != nil {
				c.Failure = err
				break
			}
			sum += e
			n++
		}
		if c.Failure != nil {
			c.Model = nil
			candidates = append(candidates, c)
			continue
		}
		c.Err = sum / float64(n)
		candidates = append(candidates, c)
	}
	sort.SliceStable(candidates, func(i, j int) bool {
		if (candidates[i].Failure == nil) != (candidates[j].Failure == nil) {
			return candidates[i].Failure == nil
		}
		return candidates[i].Err < candidates[j].Err
	})
	if candidates[0].Failure != nil {
		return nil, candidates, fmt.Errorf("core: every candidate failed; first: %w", candidates[0].Failure)
	}
	return candidates[0].Model, candidates, nil
}

// MemoryCandidates returns the paper's memory model candidates in the
// order it considered them. The write-mix extension, MemBusRWSpec, is
// not one of them.
func MemoryCandidates() []ModelSpec {
	return []ModelSpec{MemL3Spec(), MemBusSpec()}
}

// DiskCandidates returns the paper's disk model candidates.
func DiskCandidates() []ModelSpec {
	return []ModelSpec{DiskDMASpec(), DiskUncacheableSpec(), DiskSpec()}
}

// IOCandidates returns the paper's I/O model candidates.
func IOCandidates() []ModelSpec {
	return []ModelSpec{IODMASpec(), IOUncacheableSpec(), IOSpec()}
}
