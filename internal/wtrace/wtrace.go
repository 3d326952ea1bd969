// Package wtrace records and replays workload event-rate traces.
//
// A trace captures, at the simulation slice rate, the per-interval
// demand every thread of a workload placed on the machine — the
// per-interval performance-event *rates* the paper's trickle-down
// models consume, upstream of the architectural machinery that turns
// demand into counters. Because the models (Eq. 2-7) are
// workload-agnostic functions of those rates, a recorded trace replayed
// through sim/machine/cluster/serve reproduces the original run
// bit-for-bit: per-thread generator RNG streams are independent
// rng.Split() children, so a replay generator that consumes no
// randomness perturbs nothing else.
//
// Traces are serialized in the versioned, self-describing WTR1 format
// (see codec.go): a canonical JSON header (schema version, workload
// name, sample rate, metric names, per-thread start offsets, total
// sample count), run-length-encoded per-thread demand streams, and an
// FNV-1a 64 fingerprint trailer. Decoding is strict: unknown versions,
// unknown metrics, NaN/Inf rates, non-monotonic timestamps and
// fingerprint mismatches are all rejected.
package wtrace

import (
	"fmt"
	"math"

	"trickledown/internal/sim"
	"trickledown/internal/workload"
)

// Version is the WTR1 schema version this package writes and the only
// one it accepts.
const Version = 1

// Header is the self-describing trace preamble. It is serialized as
// canonical JSON (the exact bytes `encoding/json` produces for this
// struct) so that encode(decode(trace)) is byte-identical.
type Header struct {
	// Workload names what was recorded (a registry name or a free-form
	// label for mixed placements).
	Workload string `json:"workload"`
	// RatePerSec is the demand sampling rate (1/slice; 1000 for the
	// default 1 ms slice).
	RatePerSec float64 `json:"rate_per_sec"`
	// Threads is the number of recorded demand streams.
	Threads int `json:"threads"`
	// Starts holds each stream's start offset in machine seconds
	// (the Placement.StartSec stagger of the recorded run).
	Starts []float64 `json:"starts"`
	// Metrics names the demand fields, in stream column order. Decode
	// rejects any list that is not exactly Metrics() — the trace is
	// self-describing, not self-extending.
	Metrics []string `json:"metrics"`
	// Samples is the total interval count across all streams (the sum
	// of every run's length), cross-checked at decode.
	Samples uint64 `json:"samples"`
	// ChipsetDomainBias carries the recorded workload's chipset
	// measurement bias (see workload.Spec) so a replay reproduces the
	// ground-truth chipset rail bit-for-bit.
	ChipsetDomainBias float64 `json:"chipset_bias"`
}

// Run is one run-length-encoded span of identical demand: N consecutive
// intervals starting at generator-local time T (seconds) all demanded D.
type Run struct {
	T float64
	N uint32
	D workload.Demand
}

// Trace is an in-memory decoded trace: one run-list per thread.
// Streams may be empty (a thread whose start offset exceeded the
// recorded duration demands nothing).
type Trace struct {
	Header  Header
	Streams [][]Run
}

// Metrics returns the canonical demand metric names, in the column
// order of the WTR1 binary stream. The two boolean demand fields
// (RandomIO, Sync) travel in a flags byte and are not listed.
func Metrics() []string {
	return []string{
		"active", "uops_per_cycle", "spec_activity", "l2_per_uop",
		"l3_miss_per_kuop", "dirty_evict_frac", "prefetchability",
		"tlb_miss_per_muop", "uc_per_mcycle", "write_frac",
		"mem_locality", "disk_read_bytes", "disk_write_bytes",
		"net_rx_bytes", "net_tx_bytes",
	}
}

// numMetrics is the float column count of a demand record.
const numMetrics = 15

// demandValues flattens a Demand into the canonical metric columns plus
// the boolean flags byte.
func demandValues(d *workload.Demand) (v [numMetrics]float64, flags uint8) {
	v = [numMetrics]float64{
		d.Active, d.UopsPerCycle, d.SpecActivity, d.L2PerUop,
		d.L3MissPerKuop, d.DirtyEvictFrac, d.Prefetchability,
		d.TLBMissPerMuop, d.UCPerMcycle, d.WriteFrac,
		d.MemLocality, d.DiskReadBytes, d.DiskWriteBytes,
		d.NetRxBytes, d.NetTxBytes,
	}
	if d.RandomIO {
		flags |= flagRandomIO
	}
	if d.Sync {
		flags |= flagSync
	}
	return v, flags
}

// demandFromValues is the inverse of demandValues.
func demandFromValues(v *[numMetrics]float64, flags uint8) workload.Demand {
	return workload.Demand{
		Active: v[0], UopsPerCycle: v[1], SpecActivity: v[2],
		L2PerUop: v[3], L3MissPerKuop: v[4], DirtyEvictFrac: v[5],
		Prefetchability: v[6], TLBMissPerMuop: v[7], UCPerMcycle: v[8],
		WriteFrac: v[9], MemLocality: v[10], DiskReadBytes: v[11],
		DiskWriteBytes: v[12], NetRxBytes: v[13], NetTxBytes: v[14],
		RandomIO: flags&flagRandomIO != 0,
		Sync:     flags&flagSync != 0,
	}
}

const (
	flagRandomIO uint8 = 1 << 0
	flagSync     uint8 = 1 << 1
	flagsKnown         = flagRandomIO | flagSync
)

// Validate checks the structural invariants shared by encode and
// decode: a finite positive rate, consistent thread/start/stream
// counts, the canonical metric list, finite demand values, strictly
// monotonic non-overlapping run timestamps, and an exact sample total.
func (tr *Trace) Validate() error {
	h := &tr.Header
	if h.Workload == "" {
		return fmt.Errorf("wtrace: empty workload name")
	}
	if !(h.RatePerSec > 0) || math.IsInf(h.RatePerSec, 0) {
		return fmt.Errorf("wtrace: invalid sample rate %v", h.RatePerSec)
	}
	if h.Threads < 1 {
		return fmt.Errorf("wtrace: need at least one thread, got %d", h.Threads)
	}
	if len(h.Starts) != h.Threads {
		return fmt.Errorf("wtrace: %d starts for %d threads", len(h.Starts), h.Threads)
	}
	for i, s := range h.Starts {
		if math.IsNaN(s) || math.IsInf(s, 0) || s < 0 {
			return fmt.Errorf("wtrace: invalid start %v for thread %d", s, i)
		}
	}
	if math.IsNaN(h.ChipsetDomainBias) || math.IsInf(h.ChipsetDomainBias, 0) {
		return fmt.Errorf("wtrace: invalid chipset bias %v", h.ChipsetDomainBias)
	}
	want := Metrics()
	if len(h.Metrics) != len(want) {
		return fmt.Errorf("wtrace: %d metrics, want %d", len(h.Metrics), len(want))
	}
	for i, m := range h.Metrics {
		if m != want[i] {
			return fmt.Errorf("wtrace: metric %d is %q, want %q", i, m, want[i])
		}
	}
	if len(tr.Streams) != h.Threads {
		return fmt.Errorf("wtrace: %d streams for %d threads", len(tr.Streams), h.Threads)
	}
	half := 0.5 / h.RatePerSec
	var total uint64
	for ti, runs := range tr.Streams {
		prevEnd := math.Inf(-1)
		prevT := math.Inf(-1)
		for ri := range runs {
			r := &runs[ri]
			if r.N < 1 {
				return fmt.Errorf("wtrace: thread %d run %d has zero length", ti, ri)
			}
			if math.IsNaN(r.T) || math.IsInf(r.T, 0) || r.T < 0 {
				return fmt.Errorf("wtrace: thread %d run %d has invalid time %v", ti, ri, r.T)
			}
			if r.T <= prevT || r.T < prevEnd-half {
				return fmt.Errorf("wtrace: thread %d run %d time %v not monotonic", ti, ri, r.T)
			}
			v, _ := demandValues(&r.D)
			for mi, f := range v {
				if math.IsNaN(f) || math.IsInf(f, 0) {
					return fmt.Errorf("wtrace: thread %d run %d metric %s is %v", ti, ri, want[mi], f)
				}
			}
			prevT = r.T
			prevEnd = r.T + float64(r.N)/h.RatePerSec
			total += uint64(r.N)
		}
	}
	if total != h.Samples {
		return fmt.Errorf("wtrace: header claims %d samples, streams hold %d", h.Samples, total)
	}
	return nil
}

// Intervals returns the total interval count of one thread's stream.
func (tr *Trace) Intervals(thread int) int64 {
	if thread < 0 || thread >= len(tr.Streams) {
		return 0
	}
	var n int64
	for _, r := range tr.Streams[thread] {
		n += int64(r.N)
	}
	return n
}

// Duration returns the trace length in machine seconds: the latest
// stream end (start offset + recorded intervals / rate). A stream with
// no intervals, a thread the recorded run never started, ends nothing.
func (tr *Trace) Duration() float64 {
	var d float64
	for ti := range tr.Streams {
		n := tr.Intervals(ti)
		if n == 0 {
			continue
		}
		end := tr.Header.Starts[ti] + float64(n)/tr.Header.RatePerSec
		if end > d {
			d = end
		}
	}
	return d
}

// Generator returns a replay generator for one thread's stream. The
// generator implements workload.Generator, consumes no RNG, and holds
// only a cursor over the shared read-only run list, so one Trace can
// feed many machines concurrently (each via its own Generator).
// Past the end of the stream the generator repeats the final interval's
// demand.
func (tr *Trace) Generator(thread int) (*Replay, error) {
	if thread < 0 || thread >= len(tr.Streams) {
		return nil, fmt.Errorf("wtrace: thread %d out of range [0,%d)", thread, len(tr.Streams))
	}
	return &Replay{
		runs:  tr.Streams[thread],
		rate:  tr.Header.RatePerSec,
		total: tr.Intervals(thread),
	}, nil
}

// Replay plays one recorded stream back as a workload.Generator. It
// maps the slice time t to an interval index by rounding t*rate, and
// keeps a run cursor so sequential stepping is O(1) per slice
// (out-of-order times fall back to a rescan from the stream head).
type Replay struct {
	runs     []Run
	rate     float64
	total    int64
	run      int   // cursor: current run index
	runStart int64 // cursor: interval index of runs[run]'s first interval
}

// Demand implements workload.Generator. It consumes no randomness, so
// replayed threads leave every other RNG stream of the machine (drift,
// chipset coupling, DAQ noise, co-placed live generators) untouched —
// the property the byte-identical replay guarantee rests on.
func (g *Replay) Demand(t float64, env workload.Env, rng *sim.RNG) workload.Demand {
	if g.total == 0 {
		return workload.Demand{}
	}
	i := int64(math.Floor(t*g.rate + 0.5))
	if i < 0 {
		i = 0
	}
	if i >= g.total {
		i = g.total - 1
	}
	if i < g.runStart {
		g.run, g.runStart = 0, 0
	}
	for i >= g.runStart+int64(g.runs[g.run].N) {
		g.runStart += int64(g.runs[g.run].N)
		g.run++
	}
	return g.runs[g.run].D
}

// Recorder captures per-thread demand streams from a live run. Wrap
// each placed generator before the run; after Server.Run, Trace()
// yields the finished trace. A Recorder belongs to one single-threaded
// machine run and is not safe for concurrent use.
type Recorder struct {
	workload string
	rate     float64
	bias     float64
	starts   []float64
	streams  [][]Run
	wrapped  []bool
}

// SetChipsetBias records the run's chipset domain bias (for a single
// workload its spec's bias; for mixed placements the machine's average
// over distinct workloads) so replays reproduce the chipset rail.
func (r *Recorder) SetChipsetBias(b float64) { r.bias = b }

// NewRecorder prepares a recorder for a run with the given stream
// count. ratePerSec must be the machine's slice rate (1/Config.Slice).
func NewRecorder(workloadName string, ratePerSec float64, threads int) (*Recorder, error) {
	if workloadName == "" {
		return nil, fmt.Errorf("wtrace: empty workload name")
	}
	if !(ratePerSec > 0) || math.IsInf(ratePerSec, 0) {
		return nil, fmt.Errorf("wtrace: invalid sample rate %v", ratePerSec)
	}
	if threads < 1 {
		return nil, fmt.Errorf("wtrace: need at least one thread, got %d", threads)
	}
	return &Recorder{
		workload: workloadName,
		rate:     ratePerSec,
		starts:   make([]float64, threads),
		streams:  make([][]Run, threads),
		wrapped:  make([]bool, threads),
	}, nil
}

// Wrap returns a pass-through generator that records stream `thread`
// while delegating to g. startSec is the placement's start offset,
// stored in the trace header so replay can reproduce the stagger.
func (r *Recorder) Wrap(thread int, startSec float64, g workload.Generator) (workload.Generator, error) {
	if thread < 0 || thread >= len(r.streams) {
		return nil, fmt.Errorf("wtrace: thread %d out of range [0,%d)", thread, len(r.streams))
	}
	if r.wrapped[thread] {
		return nil, fmt.Errorf("wtrace: thread %d wrapped twice", thread)
	}
	if math.IsNaN(startSec) || math.IsInf(startSec, 0) || startSec < 0 {
		return nil, fmt.Errorf("wtrace: invalid start %v for thread %d", startSec, thread)
	}
	r.wrapped[thread] = true
	r.starts[thread] = startSec
	return &recordGen{rec: r, thread: thread, inner: g}, nil
}

// Trace assembles and validates the recorded trace.
func (r *Recorder) Trace() (*Trace, error) {
	tr := &Trace{
		Header: Header{
			Workload:          r.workload,
			RatePerSec:        r.rate,
			Threads:           len(r.streams),
			Starts:            append([]float64(nil), r.starts...),
			Metrics:           Metrics(),
			ChipsetDomainBias: r.bias,
		},
		Streams: make([][]Run, len(r.streams)),
	}
	var total uint64
	for i, runs := range r.streams {
		tr.Streams[i] = append([]Run(nil), runs...)
		for _, run := range runs {
			total += uint64(run.N)
		}
	}
	tr.Header.Samples = total
	if err := tr.Validate(); err != nil {
		return nil, err
	}
	return tr, nil
}

// recordGen tees one thread's demand stream into the recorder.
type recordGen struct {
	rec    *Recorder
	thread int
	inner  workload.Generator
}

func (g *recordGen) Demand(t float64, env workload.Env, rng *sim.RNG) workload.Demand {
	d := g.inner.Demand(t, env, rng)
	g.rec.observe(g.thread, t, d)
	return d
}

// observe appends one interval to a stream, merging into the previous
// run when the demand is identical and the interval is contiguous.
func (r *Recorder) observe(thread int, t float64, d workload.Demand) {
	s := &r.streams[thread]
	half := 0.5 / r.rate
	if n := len(*s); n > 0 {
		last := &(*s)[n-1]
		expected := last.T + float64(last.N)/r.rate
		if d == last.D && math.Abs(t-expected) <= half && last.N < math.MaxUint32 {
			last.N++
			return
		}
	}
	*s = append(*s, Run{T: t, N: 1, D: d})
}

// RecordSpec wraps a workload spec so every instance it makes is
// recorded. The recorder must have been sized with threads ==
// spec.Instances; instance i records stream i with the spec's stagger.
func RecordSpec(spec workload.Spec, rec *Recorder) (workload.Spec, error) {
	if len(rec.streams) != spec.Instances {
		return workload.Spec{}, fmt.Errorf("wtrace: recorder has %d streams for %d instances", len(rec.streams), spec.Instances)
	}
	rec.SetChipsetBias(spec.ChipsetDomainBias)
	inner := spec.Make
	out := spec
	out.Steady = nil // the recorder needs every slice's demand
	out.Make = func(instance int, rng *sim.RNG) workload.Generator {
		g := inner(instance, rng)
		w, err := rec.Wrap(instance, float64(instance)*spec.StaggerSec, g)
		if err != nil {
			// Duplicate or out-of-range instance: record nothing rather
			// than corrupt the trace; the run itself is unaffected.
			return g
		}
		return w
	}
	return out, nil
}
