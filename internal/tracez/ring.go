package tracez

import (
	"sort"
	"time"
)

// ring is a fixed-capacity overwrite buffer of completed traces. Push
// and snapshot run under the recorder's mutex; completion is off the
// ingest hot path, so a plain ring beats anything cleverer.
type ring struct {
	buf  []*Trace
	next int
	n    int
}

func newRing(capacity int) *ring {
	return &ring{buf: make([]*Trace, capacity)}
}

func (r *ring) push(t *Trace) {
	r.buf[r.next] = t
	r.next = (r.next + 1) % len(r.buf)
	if r.n < len(r.buf) {
		r.n++
	}
}

// list returns the retained traces, newest first.
func (r *ring) list() []*Trace {
	out := make([]*Trace, 0, r.n)
	for i := 0; i < r.n; i++ {
		idx := (r.next - 1 - i + len(r.buf)) % len(r.buf)
		out = append(out, r.buf[idx])
	}
	return out
}

// topK retains the slowestK slowest traces for one stage. slowestK is
// single-digit, so a linear min-replace over a small slice is both the
// simplest and the fastest structure. The zero value is empty.
type topK struct {
	traces  []*Trace
	weights []time.Duration
}

// offer considers t (with stage duration d) for the table.
func (s *topK) offer(t *Trace, d time.Duration) {
	if d <= 0 {
		return
	}
	if len(s.traces) < slowestK {
		s.traces = append(s.traces, t)
		s.weights = append(s.weights, d)
		return
	}
	minI := 0
	for i := 1; i < len(s.weights); i++ {
		if s.weights[i] < s.weights[minI] {
			minI = i
		}
	}
	if d > s.weights[minI] {
		s.traces[minI] = t
		s.weights[minI] = d
	}
}

// list returns the retained traces, slowest first.
func (s *topK) list() []*Trace {
	type pair struct {
		t *Trace
		d time.Duration
	}
	ps := make([]pair, len(s.traces))
	for i := range s.traces {
		ps[i] = pair{s.traces[i], s.weights[i]}
	}
	sort.Slice(ps, func(a, b int) bool { return ps[a].d > ps[b].d })
	out := make([]*Trace, len(ps))
	for i := range ps {
		out[i] = ps[i].t
	}
	return out
}

// EventJSON is one event in the wire-ready snapshot, with its time as
// an offset from the trace start (stable across machines and easier to
// read than absolute stamps).
type EventJSON struct {
	Kind     string  `json:"kind"`
	OffsetUs float64 `json:"offset_us"`
	Arg      int64   `json:"arg,omitempty"`
	Note     string  `json:"note,omitempty"`
}

// TraceJSON is one completed trace in the wire-ready snapshot.
type TraceJSON struct {
	ID      string    `json:"id"`
	Node    string    `json:"node,omitempty"`
	Client  string    `json:"client,omitempty"`
	Start   time.Time `json:"start"`
	Outcome string    `json:"outcome"`
	Anomaly bool      `json:"anomaly,omitempty"`
	// Per-stage durations in milliseconds; zero when the stage's
	// bracketing events were not recorded.
	AdmissionMs float64     `json:"admission_ms"`
	QueueMs     float64     `json:"queue_ms"`
	ServiceMs   float64     `json:"service_ms"`
	E2EMs       float64     `json:"e2e_ms"`
	Events      []EventJSON `json:"events,omitempty"`
	Dropped     int         `json:"events_dropped,omitempty"`
}

func traceJSON(t *Trace) TraceJSON {
	d := t.Durations()
	tj := TraceJSON{
		ID:          t.ID.String(),
		Node:        t.Node,
		Client:      t.Client,
		Start:       t.Start,
		Outcome:     t.Outcome,
		Anomaly:     t.Outcome != "ok",
		AdmissionMs: d[StageAdmission].Seconds() * 1e3,
		QueueMs:     d[StageQueue].Seconds() * 1e3,
		ServiceMs:   d[StageService].Seconds() * 1e3,
		E2EMs:       d[StageE2E].Seconds() * 1e3,
		Dropped:     t.dropped,
	}
	for _, ev := range t.Events() {
		tj.Events = append(tj.Events, EventJSON{
			Kind:     ev.Kind.String(),
			OffsetUs: ev.At.Sub(t.Start).Seconds() * 1e6,
			Arg:      ev.Arg,
			Note:     ev.Note,
		})
	}
	return tj
}

// Snapshot is the full /debug/tracez payload.
type Snapshot struct {
	Stats   Stats                  `json:"stats"`
	Recent  []TraceJSON            `json:"recent"`
	Errored []TraceJSON            `json:"errored"`
	Slowest map[string][]TraceJSON `json:"slowest"`
}

// Snapshot renders every retention view, newest/slowest first.
func (r *Recorder) Snapshot() Snapshot {
	r.mu.Lock()
	recent := r.recent.list()
	errored := r.errored.list()
	var slowest [NumStages][]*Trace
	for s := 0; s < NumStages; s++ {
		slowest[s] = r.slowest[s].list()
	}
	r.mu.Unlock()

	snap := Snapshot{
		Stats:   r.Stats(),
		Recent:  make([]TraceJSON, 0, len(recent)),
		Errored: make([]TraceJSON, 0, len(errored)),
		Slowest: make(map[string][]TraceJSON, NumStages),
	}
	for _, t := range recent {
		snap.Recent = append(snap.Recent, traceJSON(t))
	}
	for _, t := range errored {
		snap.Errored = append(snap.Errored, traceJSON(t))
	}
	for s := 0; s < NumStages; s++ {
		js := make([]TraceJSON, 0, len(slowest[s]))
		for _, t := range slowest[s] {
			js = append(js, traceJSON(t))
		}
		snap.Slowest[Stage(s).String()] = js
	}
	return snap
}
