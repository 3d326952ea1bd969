package align

import (
	"fmt"
	"math"
	"sort"

	"trickledown/internal/daq"
	"trickledown/internal/perfctr"
	"trickledown/internal/telemetry"
)

// Robust-merge telemetry: how much repair the degraded path had to do.
// Zero across the board means the instrumentation chain behaved and
// MergeRobust reduced to the strict pairing.
var (
	mRepairedWindows = telemetry.NewCounter("align_windows_interpolated_total",
		"aligned rows whose power was interpolated across a missing/bad window")
	mDroppedRows = telemetry.NewCounter("align_rows_dropped_total",
		"counter samples dropped for lack of a repairable power window")
	mBadWindows = telemetry.NewCounter("align_bad_windows_total",
		"DAQ windows rejected for NaN/Inf readings or timestamps")
	mDupSyncs = telemetry.NewCounter("align_dup_syncs_total",
		"spurious/duplicate sync edges collapsed into their neighbor window")
)

// Quality summarizes what MergeRobust had to repair — the data-quality
// report an operator reads before trusting a degraded trace. A zero
// Quality (except Samples and Matched) means the logs paired cleanly.
type Quality struct {
	// Samples is how many counter samples the merge considered.
	Samples int
	// Matched rows paired directly with a healthy power window.
	Matched int
	// Interpolated rows had their power linearly interpolated across an
	// isolated missing or rejected window.
	Interpolated int
	// Dropped counter samples had no repairable window (long gaps, edge
	// gaps, or broken timestamps) and were excluded from the dataset.
	Dropped int
	// BadWindows is how many DAQ windows were rejected outright for
	// NaN/Inf readings or a non-finite timestamp.
	BadWindows int
	// DupSyncs is how many spurious (duplicate) sync edges were collapsed
	// into the neighboring window.
	DupSyncs int
	// OutOfOrder is how many DAQ records arrived with a timestamp behind
	// their predecessor and were re-sorted.
	OutOfOrder int
}

// Degraded reports whether any repair or rejection happened at all.
func (q Quality) Degraded() bool {
	return q.Interpolated > 0 || q.Dropped > 0 || q.BadWindows > 0 ||
		q.DupSyncs > 0 || q.OutOfOrder > 0
}

// String renders the summary in one log-friendly line.
func (q Quality) String() string {
	return fmt.Sprintf("samples=%d matched=%d interpolated=%d dropped=%d bad_windows=%d dup_syncs=%d out_of_order=%d",
		q.Samples, q.Matched, q.Interpolated, q.Dropped, q.BadWindows, q.DupSyncs, q.OutOfOrder)
}

// maxInterpGap is the longest run of consecutive missing windows the
// robust merge will interpolate across. Longer outages carry no power
// information worth inventing; those samples are dropped instead.
const maxInterpGap = 2

// MergeRobust pairs DAQ records with counter samples like Merge, but
// survives a degraded instrumentation chain instead of erroring or —
// worse — silently mispairing:
//
//   - DAQ records are re-sorted by timestamp (out-of-order arrival) and
//     spurious sync edges closer than half a sampling period to their
//     predecessor are collapsed into one sample-weighted window;
//   - windows containing NaN/Inf readings (dead or unplugged sense
//     channel) are rejected rather than fit;
//   - pairing is by timestamp proximity rather than strict order, so a
//     dropped sync pulse desynchronizes one window, not the whole tail
//     of the trace;
//   - samples left without a window (dropped pulses, rejected windows)
//     get their power linearly interpolated from the neighboring matched
//     rows when the gap is isolated (≤ 2 windows), and are dropped
//     otherwise.
//
// The returned Quality reports every repair; callers should surface it
// instead of fitting models to a degraded trace blind. On healthy input
// the result is row-for-row identical to Merge. The timestamp pairing
// tolerates the DAQ's ppm-level clock skew for runs up to a few hours;
// it is not a substitute for the sync pulse over unbounded drift.
func MergeRobust(records []daq.Record, samples []perfctr.Sample) (*Dataset, Quality, error) {
	var q Quality
	// 1. Sanitize the DAQ log: finite timestamps, ascending order,
	// spurious edges collapsed, NaN/Inf windows rejected.
	recs := make([]daq.Record, 0, len(records))
	for _, r := range records {
		if math.IsNaN(r.DAQSeconds) || math.IsInf(r.DAQSeconds, 0) {
			q.BadWindows++
			continue
		}
		recs = append(recs, r)
	}
	for i := 1; i < len(recs); i++ {
		if recs[i].DAQSeconds < recs[i-1].DAQSeconds {
			q.OutOfOrder++
		}
	}
	if q.OutOfOrder > 0 {
		sort.SliceStable(recs, func(i, j int) bool { return recs[i].DAQSeconds < recs[j].DAQSeconds })
	}

	// 2. Sanitize the counter log: finite, strictly increasing
	// timestamps (a broken timebase entry is dropped, not propagated).
	smps := make([]perfctr.Sample, 0, len(samples))
	for _, s := range samples {
		bad := math.IsNaN(s.TargetSeconds) || math.IsInf(s.TargetSeconds, 0) ||
			(len(smps) > 0 && s.TargetSeconds <= smps[len(smps)-1].TargetSeconds)
		if bad {
			q.Dropped++
			continue
		}
		smps = append(smps, s)
	}
	q.Samples = len(samples)
	if len(smps) == 0 {
		mDroppedRows.Add(uint64(q.Dropped))
		return nil, q, fmt.Errorf("%w: no usable counter samples", ErrMismatch)
	}

	// Pairing tolerance: just under half the nominal sampling period, so
	// a window can never be claimed by two samples.
	tol := 0.45 * medianInterval(smps)

	// Collapse duplicate sync edges: a window closing within tol of its
	// predecessor is a spurious pulse; merge it in, weighted by sample
	// count, so the combined window still averages the right ADC reads.
	recs = collapseDuplicates(recs, tol, &q)

	// Reject NaN/Inf windows after collapsing (a tiny spurious window
	// cannot hide a dead channel by dilution: NaN poisons the merge).
	good := recs[:0]
	for _, r := range recs {
		if r.Mean.NonFinite() >= 0 {
			q.BadWindows++
			continue
		}
		good = append(good, r)
	}
	recs = good

	// 3. Timestamp pairing. missing[i] marks rows needing power repair.
	rows := make([]Row, 0, len(smps))
	missing := make([]bool, 0, len(smps))
	j := 0
	for _, s := range smps {
		for j < len(recs) && recs[j].DAQSeconds < s.TargetSeconds-tol {
			// An unclaimed window (its sample was dropped above, or the
			// counter log lost an entry): skip it.
			j++
		}
		if j < len(recs) && math.Abs(recs[j].DAQSeconds-s.TargetSeconds) <= tol {
			rows = append(rows, Row{Power: recs[j].Mean, Counters: s})
			missing = append(missing, false)
			q.Matched++
			j++
		} else {
			rows = append(rows, Row{Counters: s})
			missing = append(missing, true)
		}
	}

	// 4. Repair isolated gaps by per-rail linear interpolation between
	// the bounding matched rows; drop longer or edge gaps.
	keep := make([]bool, len(rows))
	for i := range keep {
		keep[i] = true
	}
	for i := 0; i < len(rows); {
		if !missing[i] {
			i++
			continue
		}
		start := i
		for i < len(rows) && missing[i] {
			i++
		}
		gap := i - start
		prev, next := start-1, i
		if gap <= maxInterpGap && prev >= 0 && next < len(rows) {
			for k := start; k < i; k++ {
				frac := float64(k-prev) / float64(next-prev)
				for rail := range rows[k].Power {
					lo, hi := rows[prev].Power[rail], rows[next].Power[rail]
					rows[k].Power[rail] = lo + frac*(hi-lo)
				}
			}
			q.Interpolated += gap
		} else {
			for k := start; k < i; k++ {
				keep[k] = false
			}
			q.Dropped += gap
		}
	}
	out := &Dataset{Rows: make([]Row, 0, len(rows))}
	for i, r := range rows {
		if keep[i] {
			out.Rows = append(out.Rows, r)
		}
	}

	mRepairedWindows.Add(uint64(q.Interpolated))
	mDroppedRows.Add(uint64(q.Dropped))
	mBadWindows.Add(uint64(q.BadWindows))
	mDupSyncs.Add(uint64(q.DupSyncs))
	if out.Len() == 0 {
		return nil, q, fmt.Errorf("%w: %d power windows and %d counter samples share no alignable region",
			ErrMismatch, len(records), len(samples))
	}
	return out, q, nil
}

// medianInterval estimates the nominal sampling period from the counter
// log (1.0 when a single sample leaves nothing to estimate from).
func medianInterval(smps []perfctr.Sample) float64 {
	if len(smps) < 2 {
		return 1.0
	}
	diffs := make([]float64, 0, len(smps)-1)
	for i := 1; i < len(smps); i++ {
		diffs = append(diffs, smps[i].TargetSeconds-smps[i-1].TargetSeconds)
	}
	sort.Float64s(diffs)
	return diffs[len(diffs)/2]
}

// collapseDuplicates merges each record closer than tol to its
// predecessor into that predecessor as a sample-weighted mean.
func collapseDuplicates(recs []daq.Record, tol float64, q *Quality) []daq.Record {
	if len(recs) < 2 {
		return recs
	}
	out := recs[:1]
	for _, r := range recs[1:] {
		last := &out[len(out)-1]
		if r.DAQSeconds-last.DAQSeconds >= tol {
			out = append(out, r)
			continue
		}
		q.DupSyncs++
		total := last.Samples + r.Samples
		if total > 0 {
			wa := float64(last.Samples) / float64(total)
			wb := float64(r.Samples) / float64(total)
			for rail := range last.Mean {
				last.Mean[rail] = wa*last.Mean[rail] + wb*r.Mean[rail]
			}
		}
		last.Samples = total
		last.DAQSeconds = r.DAQSeconds
	}
	return out
}
