package telemetry

import "time"

// Span metrics live on the Default registry so every instrumented phase
// in the process shares one family: a duration histogram and a start
// counter labeled by span name, plus a live gauge of open spans.
var (
	spanDurations = NewHistogramVec("span_duration_seconds",
		"wall-clock duration of completed run phases", "span", nil)
	spanStarts = NewCounterVec("spans_started_total",
		"run phases entered, by span name", "span")
	spansActive = NewGauge("spans_active",
		"run phases currently open (started and not yet ended)")
)

// Span is one timed run phase. Create with StartSpan, finish with End.
// A Span is not reusable and End must be called exactly once (typically
// `defer telemetry.StartSpan("x").End()`). It is a small value, not a
// pointer, so spans on hot paths cost no heap allocation.
type Span struct {
	name  string
	start time.Time
}

// StartSpan opens a named phase timer ("cluster.run",
// "experiments.table1", ...). The name becomes the span label on the
// shared span_duration_seconds family.
func StartSpan(name string) Span {
	spanStarts.With(name).Inc()
	spansActive.Add(1)
	return Span{name: name, start: time.Now()}
}

// End closes the span, records its duration and returns it.
func (s Span) End() time.Duration {
	d := time.Since(s.start)
	spansActive.Add(-1)
	spanDurations.With(s.name).Observe(d.Seconds())
	return d
}
