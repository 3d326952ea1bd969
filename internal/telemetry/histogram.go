package telemetry

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// DefBuckets are the default histogram bounds (seconds), spanning
// microsecond fold latencies through multi-minute experiment spans.
var DefBuckets = []float64{
	1e-6, 1e-5, 1e-4, 1e-3, 5e-3, 0.025, 0.1, 0.5, 1, 5, 30, 120,
}

// Histogram counts observations into fixed buckets. Observe is two
// atomic operations (bucket increment + CAS sum add); quantiles are
// estimated at read time by linear interpolation inside the bucket that
// holds the target rank.
type Histogram struct {
	desc
	bounds    []float64       // upper bounds, ascending; +Inf implicit
	counts    []atomic.Uint64 // len(bounds)+1; last is the overflow bucket
	sum       atomic.Uint64   // float64 bits
	count     atomic.Uint64
	nonfinite atomic.Uint64 // NaN/±Inf observations dropped, never bucketed
	// ex holds the last exemplar to land in each bucket (nil until one
	// does); exposed only in the OpenMetrics rendering.
	ex []atomic.Pointer[exemplar]
}

// exemplar ties one observation to a trace: the bucket's OpenMetrics
// `# {trace_id="..."} value timestamp` annotation, so a p99 bucket
// links directly to a reconstructable trace in /debug/tracez.
type exemplar struct {
	ref   string  // trace ID
	value float64 // the exact observed value
	unix  float64 // observation time, unix seconds
}

func newHistogram(name, help string, bounds []float64) *Histogram {
	if len(bounds) == 0 {
		bounds = DefBuckets
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("telemetry: histogram %q bounds not ascending", name))
		}
	}
	return &Histogram{
		desc:   desc{name, help},
		bounds: append([]float64(nil), bounds...),
		counts: make([]atomic.Uint64, len(bounds)+1),
		ex:     make([]atomic.Pointer[exemplar], len(bounds)+1),
	}
}

// NewHistogram registers a histogram on r. Nil or empty bounds use
// DefBuckets.
func (r *Registry) NewHistogram(name, help string, bounds []float64) *Histogram {
	h := newHistogram(name, help, bounds)
	r.register(h)
	return h
}

// NewHistogram registers a histogram on the Default registry.
func NewHistogram(name, help string, bounds []float64) *Histogram {
	return defaultRegistry.NewHistogram(name, help, bounds)
}

// Observe records one value. Non-finite values (NaN, ±Inf) are counted
// in NonFinite and otherwise dropped: `v > bounds[i]` is false for NaN,
// which would silently file it in the first bucket, and a single NaN
// added to sum would poison the running mean forever.
func (h *Histogram) Observe(v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		h.nonfinite.Add(1)
		return
	}
	h.counts[h.bucketIndex(v)].Add(1)
	h.count.Add(1)
	atomicAddFloat(&h.sum, v)
}

// bucketIndex finds the bucket holding v. Bucket lists are short
// (≤ ~12); a linear scan beats binary search at this size and keeps
// the code branch-predictable.
func (h *Histogram) bucketIndex(v float64) int {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	return i
}

// ObserveExemplar records v like Observe and additionally remembers
// (traceRef, v, now) as the landing bucket's exemplar. It allocates,
// so callers use it only on sampled requests; the unsampled hot path
// stays on Observe.
func (h *Histogram) ObserveExemplar(v float64, traceRef string) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		h.nonfinite.Add(1)
		return
	}
	i := h.bucketIndex(v)
	h.counts[i].Add(1)
	h.count.Add(1)
	atomicAddFloat(&h.sum, v)
	h.ex[i].Store(&exemplar{ref: traceRef, value: v, unix: float64(time.Now().UnixNano()) / 1e9})
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// NonFinite returns the number of NaN/±Inf observations dropped.
func (h *Histogram) NonFinite() uint64 { return h.nonfinite.Load() }

// Overflow returns the number of observations above the largest finite
// bound — the saturation mass Quantile refuses to disguise as a finite
// latency.
func (h *Histogram) Overflow() uint64 { return h.counts[len(h.bounds)].Load() }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// Quantile estimates the p-quantile (0 < p < 1) from the bucket counts,
// interpolating linearly within the holding bucket. It returns 0 with no
// observations. When the rank lands in the overflow bucket it returns
// +Inf: there is no finite upper bound to interpolate toward, and
// reporting the largest finite bound would make a saturated p99 under
// overload read as healthy — exactly when shedding logic needs the
// truth.
func (h *Histogram) Quantile(p float64) float64 {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	rank := p * float64(total)
	cum := 0.0
	for i := range h.counts {
		c := float64(h.counts[i].Load())
		if cum+c >= rank && c > 0 {
			lo := 0.0
			if i > 0 {
				lo = h.bounds[i-1]
			}
			if i == len(h.bounds) {
				return math.Inf(1)
			}
			hi := h.bounds[i]
			return lo + (hi-lo)*(rank-cum)/c
		}
		cum += c
	}
	if h.counts[len(h.bounds)].Load() > 0 {
		// Float rounding walked the cursor past every bucket while mass
		// sits in overflow; saturation still must not read as finite.
		return math.Inf(1)
	}
	return h.bounds[len(h.bounds)-1]
}

func (h *Histogram) kind() Kind { return KindHistogram }

func (h *Histogram) samples(points map[string]float64) {
	points[h.metricName+"_count"] = float64(h.Count())
	points[h.metricName+"_sum"] = h.Sum()
	points[h.metricName+"_p50"] = h.Quantile(0.50)
	points[h.metricName+"_p95"] = h.Quantile(0.95)
	points[h.metricName+"_p99"] = h.Quantile(0.99)
	points[h.metricName+"_overflow"] = float64(h.Overflow())
	points[h.metricName+"_nonfinite"] = float64(h.NonFinite())
}

func (h *Histogram) expose(w writer, exemplars bool) {
	exposeHeader(w, h)
	h.exposeSeries(w, "", exemplars)
}

// exposeSeries writes the _bucket/_sum/_count lines, with extraLabel
// (`name="value",` form) spliced into each label set for vec members.
// With exemplars set, each bucket line that has a recorded exemplar is
// followed by the OpenMetrics `# {trace_id="..."} value timestamp`
// annotation; the classic v0.0.4 rendering must never include these,
// since pre-OpenMetrics parsers reject the syntax.
func (h *Histogram) exposeSeries(w writer, extraLabel string, exemplars bool) {
	cum := uint64(0)
	for i, b := range h.bounds {
		cum += h.counts[i].Load()
		fmt.Fprintf(w, "%s_bucket{%sle=\"%g\"} %d", h.metricName, extraLabel, b, cum)
		h.exposeExemplar(w, i, exemplars)
	}
	cum += h.counts[len(h.bounds)].Load()
	fmt.Fprintf(w, "%s_bucket{%sle=\"+Inf\"} %d", h.metricName, extraLabel, cum)
	h.exposeExemplar(w, len(h.bounds), exemplars)
	if extraLabel == "" {
		fmt.Fprintf(w, "%s_sum %g\n", h.metricName, h.Sum())
		fmt.Fprintf(w, "%s_count %d\n", h.metricName, h.Count())
		fmt.Fprintf(w, "%s_overflow %d\n", h.metricName, h.Overflow())
		fmt.Fprintf(w, "%s_nonfinite %d\n", h.metricName, h.NonFinite())
	} else {
		braced := "{" + extraLabel[:len(extraLabel)-1] + "}"
		fmt.Fprintf(w, "%s_sum%s %g\n", h.metricName, braced, h.Sum())
		fmt.Fprintf(w, "%s_count%s %d\n", h.metricName, braced, h.Count())
		fmt.Fprintf(w, "%s_overflow%s %d\n", h.metricName, braced, h.Overflow())
		fmt.Fprintf(w, "%s_nonfinite%s %d\n", h.metricName, braced, h.NonFinite())
	}
}

// exposeExemplar terminates a bucket line: with exemplars enabled and
// bucket i holding one, it appends the OpenMetrics annotation before
// the newline, otherwise it writes the bare newline.
func (h *Histogram) exposeExemplar(w writer, i int, exemplars bool) {
	if exemplars {
		if e := h.ex[i].Load(); e != nil {
			fmt.Fprintf(w, " # {trace_id=\"%s\"} %g %.3f", escapeLabelValue(e.ref), e.value, e.unix)
		}
	}
	fmt.Fprint(w, "\n")
}

// CounterVec is a family of counters keyed by one label. With is a
// read-locked map lookup; hot paths should call it once and cache the
// returned *Counter.
type CounterVec struct {
	desc
	label string
	mu    sync.RWMutex
	m     map[string]*Counter
}

// NewCounterVec registers a labeled counter family on r.
func (r *Registry) NewCounterVec(name, help, label string) *CounterVec {
	v := &CounterVec{desc: desc{name, help}, label: label, m: make(map[string]*Counter)}
	r.register(v)
	return v
}

// NewCounterVec registers a labeled counter family on the Default
// registry.
func NewCounterVec(name, help, label string) *CounterVec {
	return defaultRegistry.NewCounterVec(name, help, label)
}

// With returns the counter for the given label value, creating it on
// first use.
func (v *CounterVec) With(value string) *Counter {
	v.mu.RLock()
	c, ok := v.m[value]
	v.mu.RUnlock()
	if ok {
		return c
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if c, ok = v.m[value]; ok {
		return c
	}
	c = &Counter{desc: desc{v.metricName, v.metricHelp}}
	v.m[value] = c
	return c
}

func (v *CounterVec) kind() Kind { return KindCounter }

func (v *CounterVec) snapshotMap() map[string]*Counter {
	v.mu.RLock()
	defer v.mu.RUnlock()
	out := make(map[string]*Counter, len(v.m))
	for k, c := range v.m {
		out[k] = c
	}
	return out
}

func (v *CounterVec) samples(points map[string]float64) {
	for val, c := range v.snapshotMap() {
		points[fmt.Sprintf("%s{%s=%q}", v.metricName, v.label, val)] = float64(c.Value())
	}
}

func (v *CounterVec) expose(w writer, _ bool) {
	exposeHeader(w, v)
	m := v.snapshotMap()
	for _, val := range sortedLabelValues(m) {
		fmt.Fprintf(w, "%s{%s=\"%s\"} %d\n", v.metricName, v.label, escapeLabelValue(val), m[val].Value())
	}
}

// HistogramVec is a family of histograms keyed by one label (span
// durations by span name). Same locking contract as CounterVec.
type HistogramVec struct {
	desc
	label  string
	bounds []float64
	mu     sync.RWMutex
	m      map[string]*Histogram
}

// NewHistogramVec registers a labeled histogram family on r. Nil or
// empty bounds use DefBuckets.
func (r *Registry) NewHistogramVec(name, help, label string, bounds []float64) *HistogramVec {
	if len(bounds) == 0 {
		bounds = DefBuckets
	}
	v := &HistogramVec{
		desc:   desc{name, help},
		label:  label,
		bounds: append([]float64(nil), bounds...),
		m:      make(map[string]*Histogram),
	}
	r.register(v)
	return v
}

// NewHistogramVec registers a labeled histogram family on the Default
// registry.
func NewHistogramVec(name, help, label string, bounds []float64) *HistogramVec {
	return defaultRegistry.NewHistogramVec(name, help, label, bounds)
}

// With returns the histogram for the given label value, creating it on
// first use.
func (v *HistogramVec) With(value string) *Histogram {
	v.mu.RLock()
	h, ok := v.m[value]
	v.mu.RUnlock()
	if ok {
		return h
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if h, ok = v.m[value]; ok {
		return h
	}
	h = newHistogram(v.metricName, v.metricHelp, v.bounds)
	v.m[value] = h
	return h
}

func (v *HistogramVec) kind() Kind { return KindHistogram }

func (v *HistogramVec) snapshotMap() map[string]*Histogram {
	v.mu.RLock()
	defer v.mu.RUnlock()
	out := make(map[string]*Histogram, len(v.m))
	for k, h := range v.m {
		out[k] = h
	}
	return out
}

func (v *HistogramVec) samples(points map[string]float64) {
	for val, h := range v.snapshotMap() {
		base := fmt.Sprintf("%s{%s=%q}", v.metricName, v.label, val)
		points[base+"_count"] = float64(h.Count())
		points[base+"_sum"] = h.Sum()
		points[base+"_p50"] = h.Quantile(0.50)
		points[base+"_p95"] = h.Quantile(0.95)
		points[base+"_p99"] = h.Quantile(0.99)
		points[base+"_overflow"] = float64(h.Overflow())
		points[base+"_nonfinite"] = float64(h.NonFinite())
	}
}

func (v *HistogramVec) expose(w writer, exemplars bool) {
	exposeHeader(w, v)
	m := v.snapshotMap()
	for _, val := range sortedLabelValues(m) {
		m[val].exposeSeries(w, fmt.Sprintf("%s=\"%s\",", v.label, escapeLabelValue(val)), exemplars)
	}
}
