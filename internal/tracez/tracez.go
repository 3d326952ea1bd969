// Package tracez is request-scoped tracing for the live pipeline: a
// 128-bit trace context minted at the producer (or at admission),
// carried through every stage of a request's journey as timestamped
// events, and retained in fixed-size ring buffers served by a
// /debug/tracez endpoint. Where internal/telemetry answers "what are
// the aggregate latency quantiles", tracez answers "what happened to
// *that* batch" — the one that shed, quarantined, or landed in the p99
// tail.
//
// Retention policy is head-based sampling (a configurable rate decided
// deterministically from the trace ID, so producer and server agree
// without coordination) plus always-keep-on-anomaly: a shed,
// rate-limited, quarantined or slow-outlier request is recorded even
// when the sampler said no, because the interesting requests are
// precisely the ones a uniform sample misses. Completed traces land in
// three bounded views — recent, errored, and slowest-per-stage — so
// memory is fixed no matter how long the service runs.
//
// The hot-path contract mirrors the rest of the repo: deciding *not*
// to trace costs no allocation and a handful of arithmetic ops. A
// trace is built only once its request is known to be kept (Sampled,
// anomalous, or Slow), from timestamps the request carried, so
// allocation happens only on the kept path.
package tracez

import (
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"trickledown/internal/stats"
	"trickledown/internal/telemetry"
)

// Package-wide telemetry: one picture of tracing activity per process,
// regardless of how many recorders exist.
var (
	mTracesStarted = telemetry.NewCounter("tracez_traces_started_total",
		"traces opened (sampled at the head, anomalous or slow)")
	mTracesFinished = telemetry.NewCounter("tracez_traces_finished_total",
		"traces completed and filed into the retention rings")
	mTracesAnomaly = telemetry.NewCounter("tracez_traces_anomaly_total",
		"completed traces kept by the always-keep-on-anomaly rule")
	mEventsDropped = telemetry.NewCounter("tracez_events_dropped_total",
		"events discarded because a trace hit its fixed event capacity")
)

// TraceID is a 128-bit request identity, rendered as 32 hex digits.
type TraceID [16]byte

// String renders the ID as lowercase hex.
func (id TraceID) String() string {
	var buf [32]byte
	hex.Encode(buf[:], id[:])
	return string(buf[:])
}

// IsZero reports whether the ID is the all-zero (absent) identity.
func (id TraceID) IsZero() bool { return id == TraceID{} }

// idState seeds the allocation-free ID generator. Trace IDs need
// uniqueness, not cryptographic strength; a SplitMix64 walk from a
// per-process random-ish origin gives both goroutine-safety (one atomic
// add) and zero allocation.
var idState atomic.Uint64

func init() {
	idState.Store(uint64(time.Now().UnixNano()) ^ uint64(os.Getpid())<<32 ^ 0x9e3779b97f4a7c15)
}

// NewTraceID mints a fresh ID. Allocation-free.
func NewTraceID() TraceID {
	s := idState.Add(2)
	x, y := s, s+1
	hi, lo := stats.SplitMix64(&x), stats.SplitMix64(&y)
	var id TraceID
	for i := 0; i < 8; i++ {
		id[i] = byte(hi >> (8 * i))
		id[8+i] = byte(lo >> (8 * i))
	}
	return id
}

// Context is the trace identity a request carries across the wire and
// through the pipeline: who it is, and whether the head-based sampler
// elected to record its events.
type Context struct {
	ID      TraceID
	Sampled bool
}

// EventKind names a stage in the request journey.
type EventKind uint8

const (
	// EvAdmitted: admission control (size bound, rate limit, queue
	// bound) let the batch in, at the time it read the clock; arg =
	// batch samples.
	EvAdmitted EventKind = iota
	// EvEnqueued: accepted into the bounded queue; arg = queue depth at
	// enqueue (the overload signal at the moment of admission).
	EvEnqueued
	// EvScheduled: an estimation worker picked the batch up; arg = worker id.
	EvScheduled
	// EvEstimated: the subsystem estimators ran and every estimate was
	// finite.
	EvEstimated
	// EvDeparted: results folded into node state; arg = samples estimated.
	EvDeparted
	// EvShed: rejected at admission; arg = samples, note = reason. It
	// ends the trace in place of the stage that refused the request.
	EvShed
	// EvQuarantine: a node or sample set was quarantined; arg = count,
	// note = cause. On the serve journey it takes EvEstimated's place.
	EvQuarantine
	// EvNote: free-form annotation.
	EvNote
	// EvDecoded: an /ingest body was read and decoded; arg = batch
	// samples. It falls between ARRIVED and ADMITTED.
	EvDecoded
)

var eventKindNames = [...]string{
	EvAdmitted:   "ADMITTED",
	EvEnqueued:   "ENQUEUED",
	EvScheduled:  "SCHEDULED",
	EvEstimated:  "ESTIMATED",
	EvDeparted:   "DEPARTED",
	EvShed:       "SHED",
	EvQuarantine: "QUARANTINE",
	EvNote:       "NOTE",
	EvDecoded:    "DECODED",
}

func (k EventKind) String() string {
	if int(k) < len(eventKindNames) {
		return eventKindNames[k]
	}
	return fmt.Sprintf("EVENT(%d)", int(k))
}

// MaxEvents is the fixed per-trace event capacity. Twelve covers the
// serve journey (decode, admit, enqueue, schedule, estimate, depart) plus
// retries and annotations; past it events are counted dropped, never
// grown — a trace is a bounded record, not a log.
const MaxEvents = 12

// Event is one timestamped stage marker.
type Event struct {
	Kind EventKind
	At   time.Time
	Arg  int64
	Note string
}

// Trace is one request's recorded journey. Events live in a fixed
// inline array so recording is a stamp, not an append-and-grow.
type Trace struct {
	ID     TraceID
	Node   string
	Client string
	Start  time.Time
	// End and Outcome are set at Finish. Outcome "ok" is the happy path;
	// anything else ("shed:queue_full", "rate_limited", "quarantine",
	// "slow", ...) marks the trace anomalous and always-kept.
	End     time.Time
	Outcome string

	events  [MaxEvents]Event
	n       int
	dropped int
}

// AddAt stamps an event at an explicit time. Every trace is built this
// way: the live service from the timestamps a batch carried through its
// journey, once the journey is over, and low-volume callers (cluster
// runs, experiment cells) at time.Now as they go.
func (t *Trace) AddAt(kind EventKind, at time.Time, arg int64, note string) {
	if t.n >= MaxEvents {
		t.dropped++
		mEventsDropped.Inc()
		return
	}
	t.events[t.n] = Event{Kind: kind, At: at, Arg: arg, Note: note}
	t.n++
}

// Events returns the recorded events, oldest first. The slice aliases
// the trace's storage; callers must not retain it past Finish.
func (t *Trace) Events() []Event { return t.events[:t.n] }

// eventAt returns the time of the first event of the given kind.
func (t *Trace) eventAt(kind EventKind) (time.Time, bool) {
	for i := 0; i < t.n; i++ {
		if t.events[i].Kind == kind {
			return t.events[i].At, true
		}
	}
	return time.Time{}, false
}

// Stage indexes the derived per-stage durations.
type Stage int

const (
	// StageAdmission is ARRIVED→QUEUED: the body read and decode, the
	// rate limit and the queue bound. ARRIVED is stamped when the
	// request reaches the handler, before its body is read.
	StageAdmission Stage = iota
	// StageQueue is QUEUED→SCHEDULED (wait for an estimation worker).
	StageQueue
	// StageService is SCHEDULED→DEPARTED (batched estimation).
	StageService
	// StageE2E is ARRIVED→DEPARTED end to end.
	StageE2E
	numStages
)

// NumStages is the number of derived stage durations.
const NumStages = int(numStages)

var stageNames = [NumStages]string{"admission", "queue", "service", "e2e"}

func (s Stage) String() string {
	if int(s) < NumStages {
		return stageNames[s]
	}
	return fmt.Sprintf("STAGE(%d)", int(s))
}

// Durations derives the per-stage durations from the recorded events.
// A stage whose bracketing events are absent reports zero.
func (t *Trace) Durations() [NumStages]time.Duration {
	var d [NumStages]time.Duration
	queued, hasQ := t.eventAt(EvEnqueued)
	sched, hasS := t.eventAt(EvScheduled)
	dep, hasD := t.eventAt(EvDeparted)
	if hasQ {
		d[StageAdmission] = queued.Sub(t.Start)
	}
	if hasQ && hasS {
		d[StageQueue] = sched.Sub(queued)
	}
	if hasS && hasD {
		d[StageService] = dep.Sub(sched)
	}
	if !t.End.IsZero() {
		d[StageE2E] = t.End.Sub(t.Start)
	}
	return d
}

// Config configures a Recorder. The zero value records nothing but
// anomalies.
type Config struct {
	// SampleRate is the head-based sampling probability, clamped to
	// [0,1] with NaN read as 0, decided deterministically from the trace
	// ID.
	SampleRate float64
	// SlowThreshold promotes a trace whose e2e exceeds it to always-kept
	// anomaly status ("slow"); zero disables the promotion.
	SlowThreshold time.Duration
}

// ringSize bounds each retention view in traces, and slowestK is how
// many slowest traces are kept per stage.
const (
	ringSize = 256
	slowestK = 8
)

func (c Config) withDefaults() Config {
	if c.SampleRate < 0 || math.IsNaN(c.SampleRate) {
		c.SampleRate = 0
	}
	if c.SampleRate > 1 {
		c.SampleRate = 1
	}
	return c
}

// Recorder owns the sampling decision and the bounded retention rings.
// All methods are safe for concurrent use.
type Recorder struct {
	cfg Config // fixed at construction

	mu      sync.Mutex
	recent  *ring
	errored *ring
	slowest [NumStages]topK

	started  atomic.Uint64
	finished atomic.Uint64
	anomaly  atomic.Uint64
	slowSeen atomic.Uint64
}

// NewRecorder returns a recorder with bounded retention per cfg.
func NewRecorder(cfg Config) *Recorder {
	cfg = cfg.withDefaults()
	r := &Recorder{
		cfg:     cfg,
		recent:  newRing(ringSize),
		errored: newRing(ringSize),
	}
	return r
}

// defaultRecorder is the process-wide recorder used by the batch
// pipeline (cluster runs, experiment cells); the live service creates
// its own so its ring bounds are per-server configuration.
var defaultRecorder = NewRecorder(Config{})

// Default returns the process-wide recorder.
func Default() *Recorder { return defaultRecorder }

// SampleRate returns the head-sampling rate.
func (r *Recorder) SampleRate() float64 { return r.cfg.SampleRate }

// Sampled is the deterministic head-based decision for an ID: the low
// 64 ID bits, read as a uniform draw, land under rate. Producer and
// server reach the same verdict for the same ID and rate without any
// coordination. Allocation-free.
func (r *Recorder) Sampled(id TraceID) bool {
	rate := r.SampleRate()
	if rate <= 0 {
		return false
	}
	if rate >= 1 {
		return true
	}
	var lo uint64
	for i := 0; i < 8; i++ {
		lo |= uint64(id[8+i]) << (8 * i)
	}
	// Mix before comparing: sequential splitmix outputs are already
	// uniform, but wire-supplied IDs may not be.
	return float64(stats.SplitMix64(&lo))/float64(math.MaxUint64) < rate
}

// Mint creates a fresh context: new ID plus this recorder's sampling
// verdict. Allocation-free — the unsampled hot path pays two atomic
// ops and a hash.
func (r *Recorder) Mint() Context {
	id := NewTraceID()
	return Context{ID: id, Sampled: r.Sampled(id)}
}

// StartAt opens a trace for a request the caller keeps: a sampled,
// anomalous or Slow service batch, or any cluster run or experiment
// cell.
func (r *Recorder) StartAt(id TraceID, node, client string, start time.Time) *Trace {
	r.started.Add(1)
	mTracesStarted.Inc()
	return &Trace{ID: id, Node: node, Client: client, Start: start}
}

// Slow reports whether an end-to-end latency exceeds the slow
// threshold. It is the one slow test: Finish relabels such an ok trace
// "slow", and a caller asks it before building a trace for an unsampled
// request, so a fast unsampled one costs no allocation.
func (r *Recorder) Slow(e2e time.Duration) bool {
	return r.cfg.SlowThreshold > 0 && e2e > r.cfg.SlowThreshold
}

// Finish completes a trace and files it into the retention views. An
// empty outcome means "ok"; a non-"ok" outcome, or an e2e over the slow
// threshold, marks the trace anomalous (always kept in the errored
// ring).
func (r *Recorder) Finish(t *Trace) {
	if t.End.IsZero() {
		t.End = time.Now()
	}
	if t.Outcome == "" {
		t.Outcome = "ok"
	}
	if t.Outcome == "ok" && r.Slow(t.End.Sub(t.Start)) {
		t.Outcome = "slow"
		r.slowSeen.Add(1)
	}
	anomalous := t.Outcome != "ok"
	mTracesFinished.Inc()
	if anomalous {
		mTracesAnomaly.Inc()
	}
	d := t.Durations()
	// The counts move in the critical section that files the trace, so
	// a Snapshot taken after Stats reads n lists every one of them that
	// its rings still hold.
	r.mu.Lock()
	r.recent.push(t)
	r.finished.Add(1)
	if anomalous {
		r.errored.push(t)
		r.anomaly.Add(1)
	}
	for s := 0; s < NumStages; s++ {
		r.slowest[s].offer(t, d[s])
	}
	r.mu.Unlock()
}

// Stats is the recorder's own bookkeeping.
type Stats struct {
	SampleRate float64 `json:"sample_rate"`
	Started    uint64  `json:"started"`
	Finished   uint64  `json:"finished"`
	Anomalies  uint64  `json:"anomalies"`
	Slow       uint64  `json:"slow"`
}

// Stats snapshots the recorder counters.
func (r *Recorder) Stats() Stats {
	return Stats{
		SampleRate: r.SampleRate(),
		Started:    r.started.Load(),
		Finished:   r.finished.Load(),
		Anomalies:  r.anomaly.Load(),
		Slow:       r.slowSeen.Load(),
	}
}
