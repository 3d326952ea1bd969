package tracez

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"trickledown/internal/telemetry"
)

var (
	mFlightEvents = telemetry.NewCounter("tracez_flight_events_total",
		"structured events recorded into the flight ring")
	mBundleDumps = telemetry.NewCounter("tracez_bundle_dumps_total",
		"diagnostics bundles written to disk")
	mBundleSuppressed = telemetry.NewCounter("tracez_bundle_suppressed_total",
		"bundle triggers suppressed by the dump rate limit")
)

// FlightEvent is one entry in the always-on flight ring: what happened,
// when, and optionally which trace it concerned.
type FlightEvent struct {
	Seq    uint64    `json:"seq"`
	At     time.Time `json:"at"`
	Kind   string    `json:"kind"`
	Detail string    `json:"detail,omitempty"`
	Arg    int64     `json:"arg,omitempty"`
	Trace  string    `json:"trace,omitempty"`
}

// flightSlot is one ring slot with its own lock, so concurrent writers
// only contend when they land on the same slot — which at any sane ring
// size means the ring has wrapped ringSize events in one instant.
type flightSlot struct {
	mu sync.Mutex
	ev FlightEvent
}

// FlightRecorder is a process-lifetime ring of recent structured
// events: cheap enough to leave on always (one atomic add plus an
// uncontended slot lock per note), sized so the last few thousand
// decisions are reconstructable when something goes wrong. It is the
// black box the diagnostics bundle reads out.
type FlightRecorder struct {
	slots  []flightSlot
	cursor atomic.Uint64
}

// NewFlightRecorder returns a ring of n slots (default 1024 when n<=0).
func NewFlightRecorder(n int) *FlightRecorder {
	if n <= 0 {
		n = 1024
	}
	return &FlightRecorder{slots: make([]flightSlot, n)}
}

// defaultFlight is the process-wide flight ring.
var defaultFlight = NewFlightRecorder(0)

// Flight returns the process-wide flight recorder.
func Flight() *FlightRecorder { return defaultFlight }

// Note records an event.
func (f *FlightRecorder) Note(kind, detail string, arg int64) {
	f.note(FlightEvent{Kind: kind, Detail: detail, Arg: arg})
}

// NoteTrace records an event tied to a trace ID.
func (f *FlightRecorder) NoteTrace(kind, detail string, arg int64, id TraceID) {
	f.note(FlightEvent{Kind: kind, Detail: detail, Arg: arg, Trace: id.String()})
}

func (f *FlightRecorder) note(ev FlightEvent) {
	ev.Seq = f.cursor.Add(1)
	ev.At = time.Now()
	slot := &f.slots[(ev.Seq-1)%uint64(len(f.slots))]
	slot.mu.Lock()
	slot.ev = ev
	slot.mu.Unlock()
	mFlightEvents.Inc()
}

// Events returns the retained events, oldest first.
func (f *FlightRecorder) Events() []FlightEvent {
	last := f.cursor.Load()
	n := uint64(len(f.slots))
	start := uint64(1)
	if last > n {
		start = last - n + 1
	}
	out := make([]FlightEvent, 0, last-start+1)
	for seq := start; seq <= last; seq++ {
		slot := &f.slots[(seq-1)%n]
		slot.mu.Lock()
		ev := slot.ev
		slot.mu.Unlock()
		// A slot overwritten by a newer event than the one we wanted (the
		// ring advanced mid-read) is skipped, not misordered.
		if ev.Seq == seq {
			out = append(out, ev)
		}
	}
	return out
}

// Bundler writes diagnostics bundles: a directory per trigger holding
// the flight ring, a tracez snapshot, the full telemetry exposition,
// and a goroutine dump. Triggers are rate-limited so a flapping
// degraded flag produces one bundle per MinInterval, not one per flap.
type Bundler struct {
	// Dir is the directory bundles are created under.
	Dir string
	// MinInterval is the minimum wall-clock spacing between bundles
	// (default 30s).
	MinInterval time.Duration

	rec    *Recorder
	flight *FlightRecorder
	last   atomic.Int64 // unix nanos of the last dump
}

// NewBundler wires a bundler to a recorder and flight ring (nil args
// fall back to the process-wide defaults).
func NewBundler(dir string, rec *Recorder, flight *FlightRecorder) *Bundler {
	if rec == nil {
		rec = Default()
	}
	if flight == nil {
		flight = Flight()
	}
	return &Bundler{Dir: dir, MinInterval: 30 * time.Second, rec: rec, flight: flight}
}

// Trigger writes a bundle for the given reason, returning its
// directory. Within MinInterval of the previous dump it returns ""
// with no error (suppressed). Safe for concurrent use; concurrent
// triggers produce at most one bundle.
func (b *Bundler) Trigger(reason string) (string, error) {
	min := b.MinInterval
	if min <= 0 {
		min = 30 * time.Second
	}
	now := time.Now()
	last := b.last.Load()
	if last != 0 && now.Sub(time.Unix(0, last)) < min {
		mBundleSuppressed.Inc()
		return "", nil
	}
	if !b.last.CompareAndSwap(last, now.UnixNano()) {
		mBundleSuppressed.Inc()
		return "", nil
	}
	return DumpBundle(b.Dir, reason, b.rec, b.flight)
}

// DumpBundle writes one diagnostics bundle under dir, unconditionally:
//
//	flight.json      the flight ring, oldest first
//	tracez.json      the recorder's retention views
//	metrics.prom     the full telemetry text exposition
//	goroutines.txt   stacks of every goroutine
//	meta.json        reason, time, pid
//
// It returns the created bundle directory.
func DumpBundle(dir, reason string, rec *Recorder, flight *FlightRecorder) (string, error) {
	if rec == nil {
		rec = Default()
	}
	if flight == nil {
		flight = Flight()
	}
	name := fmt.Sprintf("tddiag_%s_%s", time.Now().UTC().Format("20060102T150405.000"), sanitizeReason(reason))
	bundle := filepath.Join(dir, name)
	if err := os.MkdirAll(bundle, 0o755); err != nil {
		return "", fmt.Errorf("tracez: create bundle dir: %w", err)
	}
	if err := writeJSON(filepath.Join(bundle, "meta.json"), map[string]any{
		"reason": reason,
		"time":   time.Now().UTC().Format(time.RFC3339Nano),
		"pid":    os.Getpid(),
	}); err != nil {
		return "", err
	}
	if err := writeJSON(filepath.Join(bundle, "flight.json"), flight.Events()); err != nil {
		return "", err
	}
	if err := writeJSON(filepath.Join(bundle, "tracez.json"), rec.Snapshot()); err != nil {
		return "", err
	}
	mf, err := os.Create(filepath.Join(bundle, "metrics.prom"))
	if err != nil {
		return "", fmt.Errorf("tracez: bundle metrics: %w", err)
	}
	werr := telemetry.WriteText(mf)
	if cerr := mf.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		return "", fmt.Errorf("tracez: bundle metrics: %w", werr)
	}
	// Grow the stack buffer until the dump fits; 1 MiB covers hundreds
	// of goroutines and doubling converges fast past that.
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, len(buf)*2)
	}
	if err := os.WriteFile(filepath.Join(bundle, "goroutines.txt"), buf, 0o644); err != nil {
		return "", fmt.Errorf("tracez: bundle goroutines: %w", err)
	}
	mBundleDumps.Inc()
	return bundle, nil
}

func writeJSON(path string, v any) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("tracez: bundle %s: %w", filepath.Base(path), err)
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	werr := enc.Encode(v)
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		return fmt.Errorf("tracez: bundle %s: %w", filepath.Base(path), werr)
	}
	return nil
}

// sanitizeReason keeps bundle directory names shell-friendly.
func sanitizeReason(reason string) string {
	if reason == "" {
		return "manual"
	}
	out := make([]byte, 0, len(reason))
	for i := 0; i < len(reason) && len(out) < 40; i++ {
		c := reason[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '-', c == '_':
			out = append(out, c)
		default:
			out = append(out, '_')
		}
	}
	return string(out)
}
