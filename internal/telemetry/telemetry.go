// Package telemetry is the simulator's self-observation layer: a
// dependency-free metrics registry (counters, gauges, fixed-bucket
// histograms and labeled families, all updated with atomic operations),
// lightweight span timing for run phases, a Prometheus-style text
// exposition served next to expvar and pprof, and structured slog
// progress logging.
//
// The paper's whole premise is that a running system should expose its
// internals through cheap always-on counters; this package applies the
// same discipline to the simulator itself. Instrumented packages declare
// their metrics once at init time on the Default registry and update
// them from hot paths with single atomic operations — no locks, no
// allocation, no formatting until somebody actually scrapes /metrics.
//
// # Cost budget
//
// Counter.Add/Inc and Gauge.Add are one atomic RMW. FloatCounter.Add and
// Histogram.Observe are a CAS loop (one iteration when uncontended).
// Vec.With takes a read lock only on first lookup per label; callers on
// hot paths should cache the returned metric. The simulation slice path
// performs a handful of atomic adds per slice and batches engine-level
// counters every cancel-check interval, keeping the overhead well under
// the 2% regression budget on the cluster benchmarks.
package telemetry

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Kind identifies what a metric is, for exposition TYPE lines.
type Kind int

const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	}
	return "untyped"
}

// metric is anything the registry can expose.
type metric interface {
	name() string
	help() string
	kind() Kind
	// samples appends flattened (suffix/labels, value) points; see
	// Snapshot for the flattening rules.
	samples(points map[string]float64)
	// expose writes the metric in Prometheus text format. exemplars
	// selects the OpenMetrics rendering, which appends `# {...}`
	// exemplar annotations to histogram bucket lines.
	expose(w writer, exemplars bool)
}

// writer is the subset of io.Writer + fmt use sites need; kept tiny so
// expose implementations stay allocation-conscious.
type writer interface {
	Write(p []byte) (int, error)
}

// Registry holds named metrics in registration order. All methods are
// safe for concurrent use; metric updates themselves never touch the
// registry lock.
type Registry struct {
	mu      sync.RWMutex
	ordered []metric
	byName  map[string]metric
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]metric)}
}

// defaultRegistry is the process-wide registry every package-level
// constructor registers on.
var defaultRegistry = NewRegistry()

// register adds m, panicking on a duplicate name: metrics are declared
// once at package init, so a collision is a programming error.
func (r *Registry) register(m metric) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.byName[m.name()]; dup {
		panic(fmt.Sprintf("telemetry: duplicate metric %q", m.name()))
	}
	r.byName[m.name()] = m
	r.ordered = append(r.ordered, m)
}

// metricsInOrder returns a stable copy of the registered metrics.
func (r *Registry) metricsInOrder() []metric {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return append([]metric(nil), r.ordered...)
}

// Snapshot flattens every metric to name → value. Plain counters and
// gauges appear under their name; labeled families under
// name{label="value"}; histograms contribute name_count, name_sum and
// name_p50/p95/p99. The map is a point-in-time copy safe to use from
// tests and reports.
func (r *Registry) Snapshot() map[string]float64 {
	out := make(map[string]float64)
	for _, m := range r.metricsInOrder() {
		m.samples(out)
	}
	return out
}

// Snapshot flattens the Default registry; see Registry.Snapshot.
func Snapshot() map[string]float64 { return defaultRegistry.Snapshot() }

// Counter is a monotonically increasing integer count.
type Counter struct {
	desc
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

func (c *Counter) kind() Kind { return KindCounter }
func (c *Counter) samples(points map[string]float64) {
	points[c.metricName] = float64(c.v.Load())
}
func (c *Counter) expose(w writer, _ bool) {
	exposeHeader(w, c)
	fmt.Fprintf(w, "%s %d\n", c.metricName, c.v.Load())
}

// FloatCounter is a monotonically increasing float count (simulated
// seconds, Joules, ...). Add is a CAS loop — one iteration when
// uncontended — so batch hot-path additions where possible.
type FloatCounter struct {
	desc
	bits atomic.Uint64
}

// Add adds v (v must be non-negative to keep the counter monotonic).
func (c *FloatCounter) Add(v float64) { atomicAddFloat(&c.bits, v) }

// Value returns the current total.
func (c *FloatCounter) Value() float64 { return math.Float64frombits(c.bits.Load()) }

func (c *FloatCounter) kind() Kind { return KindCounter }
func (c *FloatCounter) samples(points map[string]float64) {
	points[c.metricName] = c.Value()
}
func (c *FloatCounter) expose(w writer, _ bool) {
	exposeHeader(w, c)
	fmt.Fprintf(w, "%s %g\n", c.metricName, c.Value())
}

// Gauge is a value that can go up and down.
type Gauge struct {
	desc
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adds delta (may be negative).
func (g *Gauge) Add(delta float64) { atomicAddFloat(&g.bits, delta) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

func (g *Gauge) kind() Kind { return KindGauge }
func (g *Gauge) samples(points map[string]float64) {
	points[g.metricName] = g.Value()
}
func (g *Gauge) expose(w writer, _ bool) {
	exposeHeader(w, g)
	fmt.Fprintf(w, "%s %g\n", g.metricName, g.Value())
}

// atomicAddFloat adds delta to the float64 stored in bits.
func atomicAddFloat(bits *atomic.Uint64, delta float64) {
	for {
		old := bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// desc carries the shared name/help metadata.
type desc struct {
	metricName string
	metricHelp string
}

func (d desc) name() string { return d.metricName }
func (d desc) help() string { return d.metricHelp }

func exposeHeader(w writer, m metric) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", m.name(), escapeHelp(m.help()), m.name(), m.kind())
}

// escapeHelp escapes HELP text per the Prometheus text format v0.0.4:
// backslash and newline only. The fast path (no special characters)
// returns the input unchanged.
func escapeHelp(s string) string {
	if !strings.ContainsAny(s, "\\\n") {
		return s
	}
	var b strings.Builder
	b.Grow(len(s) + 8)
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '\\':
			b.WriteString(`\\`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteByte(s[i])
		}
	}
	return b.String()
}

// escapeLabelValue escapes a label value per the text format: backslash,
// double quote and newline. Note this is narrower than Go's %q — the
// Prometheus parser knows exactly three escapes, so rendering a tab as
// \t (as %q would) produces a line scrapers reject.
func escapeLabelValue(s string) string {
	if !strings.ContainsAny(s, "\\\"\n") {
		return s
	}
	var b strings.Builder
	b.Grow(len(s) + 8)
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteByte(s[i])
		}
	}
	return b.String()
}

// NewCounter registers a counter on r.
func (r *Registry) NewCounter(name, help string) *Counter {
	c := &Counter{desc: desc{name, help}}
	r.register(c)
	return c
}

// NewFloatCounter registers a float counter on r.
func (r *Registry) NewFloatCounter(name, help string) *FloatCounter {
	c := &FloatCounter{desc: desc{name, help}}
	r.register(c)
	return c
}

// NewGauge registers a gauge on r.
func (r *Registry) NewGauge(name, help string) *Gauge {
	g := &Gauge{desc: desc{name, help}}
	r.register(g)
	return g
}

// NewCounter registers a counter on the Default registry.
func NewCounter(name, help string) *Counter { return defaultRegistry.NewCounter(name, help) }

// NewFloatCounter registers a float counter on the Default registry.
func NewFloatCounter(name, help string) *FloatCounter {
	return defaultRegistry.NewFloatCounter(name, help)
}

// NewGauge registers a gauge on the Default registry.
func NewGauge(name, help string) *Gauge { return defaultRegistry.NewGauge(name, help) }

// sortedLabelValues returns the keys of m in sorted order, so exposition
// output is deterministic.
func sortedLabelValues[M any](m map[string]M) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
