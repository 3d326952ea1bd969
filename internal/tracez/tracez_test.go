package tracez

import (
	"encoding/hex"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestTraceIDRoundTrip(t *testing.T) {
	id := NewTraceID()
	if id.IsZero() {
		t.Fatal("NewTraceID returned the zero ID")
	}
	s := id.String()
	if len(s) != 32 {
		t.Fatalf("String() = %q, want 32 hex chars", s)
	}
	var back TraceID
	if _, err := hex.Decode(back[:], []byte(s)); err != nil {
		t.Fatalf("String() = %q is not hex: %v", s, err)
	}
	if back != id {
		t.Fatalf("round trip: got %v, want %v", back, id)
	}
}

func TestNewTraceIDUnique(t *testing.T) {
	seen := make(map[TraceID]bool)
	for i := 0; i < 10000; i++ {
		id := NewTraceID()
		if seen[id] {
			t.Fatalf("duplicate ID %s after %d mints", id, i)
		}
		seen[id] = true
	}
}

// TestSampledDeterministicAndProportional: the head-based decision is a
// pure function of (ID, rate) — so a producer and the server agree —
// and the sampled fraction tracks the configured rate.
func TestSampledDeterministicAndProportional(t *testing.T) {
	r := NewRecorder(Config{SampleRate: 0.1})
	const n = 20000
	sampled := 0
	for i := 0; i < n; i++ {
		id := NewTraceID()
		first := r.Sampled(id)
		if second := r.Sampled(id); second != first {
			t.Fatalf("Sampled(%s) flapped %v -> %v", id, first, second)
		}
		if first {
			sampled++
		}
	}
	got := float64(sampled) / n
	if math.Abs(got-0.1) > 0.02 {
		t.Errorf("sampled fraction %.4f at rate 0.1, want within ±0.02", got)
	}

	if NewRecorder(Config{SampleRate: 0}).Sampled(NewTraceID()) {
		t.Error("rate 0 sampled something")
	}
	if !NewRecorder(Config{SampleRate: 1}).Sampled(NewTraceID()) {
		t.Error("rate 1 skipped something")
	}
	for _, rate := range []float64{math.NaN(), -1, 7} {
		want := 0.0
		if rate > 1 {
			want = 1
		}
		if got := NewRecorder(Config{SampleRate: rate}).SampleRate(); got != want {
			t.Errorf("rate %g stored as %g, want clamped to %g", rate, got, want)
		}
	}
}

// TestHotPathAllocFree gates the tentpole contract: deciding not to
// trace — mint, sample check, slow check — must not allocate, because
// it runs per ingest request with sampling disabled.
func TestHotPathAllocFree(t *testing.T) {
	r := NewRecorder(Config{SampleRate: 0, SlowThreshold: time.Second})
	allocs := testing.AllocsPerRun(1000, func() {
		ctx := r.Mint()
		if ctx.Sampled || r.Sampled(ctx.ID) || r.Slow(time.Millisecond) {
			t.Fatal("rate-0 recorder kept a fast request")
		}
	})
	if allocs != 0 {
		t.Errorf("unsampled trace path allocates %.1f/op, want 0", allocs)
	}
}

func TestTraceEventsAndDurations(t *testing.T) {
	r := NewRecorder(Config{SampleRate: 1})
	start := time.Now()
	tr := r.StartAt(NewTraceID(), "n1", "c1", start)
	tr.AddAt(EvAdmitted, start.Add(5*time.Microsecond), 64, "")
	tr.AddAt(EvEnqueued, start.Add(10*time.Microsecond), 3, "")
	tr.AddAt(EvScheduled, start.Add(110*time.Microsecond), 1, "")
	tr.AddAt(EvDeparted, start.Add(310*time.Microsecond), 64, "")
	tr.End = start.Add(310 * time.Microsecond)
	r.Finish(tr)

	d := tr.Durations()
	if d[StageAdmission] != 10*time.Microsecond {
		t.Errorf("admission = %v, want 10µs", d[StageAdmission])
	}
	if d[StageQueue] != 100*time.Microsecond {
		t.Errorf("queue = %v, want 100µs", d[StageQueue])
	}
	if d[StageService] != 200*time.Microsecond {
		t.Errorf("service = %v, want 200µs", d[StageService])
	}
	if d[StageE2E] != 310*time.Microsecond {
		t.Errorf("e2e = %v, want 310µs", d[StageE2E])
	}
	if tr.Outcome != "ok" {
		t.Errorf("outcome %q, want ok", tr.Outcome)
	}
}

func TestEventCapacityBounded(t *testing.T) {
	r := NewRecorder(Config{})
	tr := r.StartAt(NewTraceID(), "n", "", time.Now())
	for i := 0; i < MaxEvents+5; i++ {
		tr.AddAt(EvNote, tr.Start, int64(i), "")
	}
	if len(tr.Events()) != MaxEvents {
		t.Errorf("events = %d, want capped at %d", len(tr.Events()), MaxEvents)
	}
	if tr.dropped != 5 {
		t.Errorf("dropped = %d, want 5", tr.dropped)
	}
}

// TestRingsBoundedAndOrdered: retention never exceeds ringSize and the
// recent view is newest-first.
func TestRingsBoundedAndOrdered(t *testing.T) {
	r := NewRecorder(Config{SampleRate: 1})
	for i := 0; i <= ringSize; i++ {
		tr := r.StartAt(NewTraceID(), "n", "", time.Now())
		tr.AddAt(EvNote, tr.Start, int64(i), "")
		r.Finish(tr)
	}
	snap := r.Snapshot()
	if len(snap.Recent) != ringSize {
		t.Fatalf("recent = %d traces, want ring bound %d", len(snap.Recent), ringSize)
	}
	for i := 0; i < len(snap.Recent)-1; i++ {
		a, b := snap.Recent[i].Events[0].Arg, snap.Recent[i+1].Events[0].Arg
		if a <= b {
			t.Errorf("recent not newest-first: %d before %d", a, b)
		}
	}
	if snap.Recent[0].Events[0].Arg != ringSize {
		t.Errorf("newest trace arg = %d, want %d", snap.Recent[0].Events[0].Arg, ringSize)
	}
}

// TestAnomalyAlwaysKept: with sampling off, anomalies still land in the
// errored ring — the always-keep rule.
func TestAnomalyAlwaysKept(t *testing.T) {
	r := NewRecorder(Config{SampleRate: 0})
	id := NewTraceID()
	tr := r.StartAt(id, "node-x", "client-y", time.Now())
	tr.AddAt(EvShed, tr.Start, 256, "shed:queue_full")
	tr.Outcome = "shed:queue_full"
	r.Finish(tr)

	snap := r.Snapshot()
	if len(snap.Errored) != 1 {
		t.Fatalf("errored = %d traces, want 1", len(snap.Errored))
	}
	got := snap.Errored[0]
	if got.ID != id.String() || got.Outcome != "shed:queue_full" || !got.Anomaly {
		t.Errorf("anomaly trace = %+v", got)
	}
	if st := r.Stats(); st.Anomalies != 1 {
		t.Errorf("anomalies = %d, want 1", st.Anomalies)
	}
}

// TestSlowPromotion: an ok trace over the slow threshold is re-labelled
// "slow" and kept in the errored ring.
func TestSlowPromotion(t *testing.T) {
	r := NewRecorder(Config{SampleRate: 1, SlowThreshold: time.Millisecond})
	start := time.Now().Add(-10 * time.Millisecond)
	tr := r.StartAt(NewTraceID(), "n", "", start)
	r.Finish(tr)

	fast := r.StartAt(NewTraceID(), "n", "", time.Now())
	fast.End = fast.Start.Add(10 * time.Microsecond)
	r.Finish(fast)

	snap := r.Snapshot()
	if len(snap.Errored) != 1 || snap.Errored[0].Outcome != "slow" {
		t.Fatalf("errored = %+v, want exactly the slow trace", snap.Errored)
	}
	if st := r.Stats(); st.Slow != 1 {
		t.Errorf("slow = %d, want 1", st.Slow)
	}
	// Slow is the same test, strictly past the threshold; a zero
	// threshold keeps nothing for being slow.
	if r.Slow(time.Millisecond) || !r.Slow(time.Millisecond+1) {
		t.Error("Slow disagrees with the 1ms threshold")
	}
	if NewRecorder(Config{}).Slow(time.Hour) {
		t.Error("a recorder without a threshold calls an hour slow")
	}
}

// TestSlowestPerStage: the per-stage top-K really holds the slowest
// traces for that stage, slowest first.
func TestSlowestPerStage(t *testing.T) {
	r := NewRecorder(Config{SampleRate: 1})
	start := time.Now()
	const n = slowestK + 3
	for i := 1; i <= n; i++ {
		tr := r.StartAt(NewTraceID(), "n", "", start)
		tr.AddAt(EvEnqueued, start.Add(time.Duration(i)*time.Millisecond), 0, "")
		tr.AddAt(EvScheduled, start.Add(time.Duration(i+1)*time.Millisecond), 0, "")
		tr.AddAt(EvDeparted, start.Add(time.Duration(2*i+1)*time.Millisecond), 0, "")
		tr.End = start.Add(time.Duration(2*i+1) * time.Millisecond)
		r.Finish(tr)
	}
	snap := r.Snapshot()
	adm := snap.Slowest["admission"]
	if len(adm) != slowestK {
		t.Fatalf("slowest admission = %d, want top-%d", len(adm), slowestK)
	}
	// Admission duration is i ms; the slowest are n, n-1, ...
	for want, j := n, 0; j < slowestK; want, j = want-1, j+1 {
		if math.Abs(adm[j].AdmissionMs-float64(want)) > 0.001 {
			t.Errorf("slowest[%d].AdmissionMs = %.3f, want %d", j, adm[j].AdmissionMs, want)
		}
	}
	if len(snap.Slowest["e2e"]) != slowestK {
		t.Errorf("slowest e2e = %d, want %d", len(snap.Slowest["e2e"]), slowestK)
	}
}

func TestConcurrentRecording(t *testing.T) {
	r := NewRecorder(Config{SampleRate: 1})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				tr := r.StartAt(NewTraceID(), "n", "", time.Now())
				tr.AddAt(EvAdmitted, time.Now(), int64(i), "")
				tr.AddAt(EvDeparted, time.Now(), int64(i), "")
				r.Finish(tr)
			}
		}()
	}
	wg.Wait()
	st := r.Stats()
	if st.Finished != 1600 {
		t.Errorf("finished = %d, want 1600", st.Finished)
	}
	if got := len(r.Snapshot().Recent); got != ringSize {
		t.Errorf("recent = %d, want ring bound %d", got, ringSize)
	}
}

// TestStatsNeverRunAheadOfRings: while goroutines finish traces, a
// Snapshot taken after Stats reports n finished (a anomalous) lists at
// least min(n, ring size) recent and min(a, ring size) errored traces.
// A fresh recorder each round keeps n below the ring size, where a
// count that moves before its push shows.
func TestStatsNeverRunAheadOfRings(t *testing.T) {
	const writers, perWriter = 4, 60 // 240 traces, inside one ring
	for round := 0; round < 50; round++ {
		r := NewRecorder(Config{SampleRate: 1})
		var wg sync.WaitGroup
		for g := 0; g < writers; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < perWriter; i++ {
					tr := r.StartAt(NewTraceID(), "n", "", time.Now())
					tr.AddAt(EvAdmitted, time.Now(), int64(i), "")
					if i%2 == 0 {
						tr.Outcome = "quarantine"
					}
					r.Finish(tr)
				}
			}()
		}
		done := make(chan struct{})
		go func() { wg.Wait(); close(done) }()
		for finished := false; !finished; {
			select {
			case <-done:
				finished = true
			default:
			}
			st := r.Stats()
			snap := r.Snapshot()
			if got, want := len(snap.Recent), min(int(st.Finished), ringSize); got < want {
				t.Fatalf("round %d: Stats reports %d finished, the following Snapshot lists %d recent", round, st.Finished, got)
			}
			if got, want := len(snap.Errored), min(int(st.Anomalies), ringSize); got < want {
				t.Fatalf("round %d: Stats reports %d anomalies, the following Snapshot lists %d errored", round, st.Anomalies, got)
			}
		}
	}
}

func TestHandlerJSONAndHTML(t *testing.T) {
	r := NewRecorder(Config{SampleRate: 1})
	tr := r.StartAt(NewTraceID(), "node-7", "client-a", time.Now())
	tr.AddAt(EvAdmitted, tr.Start, 10, "")
	r.Finish(tr)
	shed := r.StartAt(NewTraceID(), "node-8", "", time.Now())
	shed.AddAt(EvShed, shed.Start, 99, "rate_limited")
	shed.Outcome = "rate_limited"
	r.Finish(shed)

	srv := httptest.NewServer(r.Handler())
	defer srv.Close()

	body := fetch(t, srv.URL+"?format=json")
	var snap Snapshot
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatalf("JSON view did not parse: %v\n%s", err, body)
	}
	if len(snap.Recent) != 2 || len(snap.Errored) != 1 {
		t.Errorf("recent=%d errored=%d, want 2/1", len(snap.Recent), len(snap.Errored))
	}

	body = fetch(t, srv.URL+"?view=errored&format=json")
	var errView Snapshot
	if err := json.Unmarshal([]byte(body), &errView); err != nil {
		t.Fatalf("errored JSON view: %v", err)
	}
	if len(errView.Recent) != 0 || len(errView.Errored) != 1 {
		t.Errorf("view=errored returned recent=%d errored=%d", len(errView.Recent), len(errView.Errored))
	}

	body = fetch(t, srv.URL)
	for _, want := range []string{"<html>", "node-7", "rate_limited", "ADMITTED"} {
		if !strings.Contains(body, want) {
			t.Errorf("HTML view missing %q", want)
		}
	}
}

func fetch(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: read: %v", url, err)
	}
	return string(b)
}
