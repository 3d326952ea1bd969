package serve

import (
	"encoding/json"
	"math"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"trickledown/internal/perfctr"
	"trickledown/internal/telemetry"
	"trickledown/internal/tracez"
)

// drainTraces polls the recorder until at least want traces finished
// (workers run async) or the deadline passes.
func drainTraces(t *testing.T, rec *tracez.Recorder, want uint64) tracez.Snapshot {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if rec.Stats().Finished >= want {
			return rec.Snapshot()
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("only %d traces finished, want %d", rec.Stats().Finished, want)
	return tracez.Snapshot{}
}

func eventKinds(tr tracez.TraceJSON) []string {
	out := make([]string, len(tr.Events))
	for i, ev := range tr.Events {
		out[i] = ev.Kind
	}
	return out
}

func TestSampledTraceRecordsFullJourney(t *testing.T) {
	s := newServer(t, Config{Estimator: testEstimator(t), Workers: 1, TraceSampleRate: 1})
	tc := s.rec.Mint()
	if !tc.Sampled {
		t.Fatal("rate-1 mint not sampled")
	}
	if err := s.Ingest("c1", "node-a", mkBatch(4, 2, 100), nil, tc); err != nil {
		t.Fatalf("Ingest: %v", err)
	}
	snap := drainTraces(t, s.rec, 1)
	if len(snap.Recent) != 1 {
		t.Fatalf("recent = %d traces, want 1", len(snap.Recent))
	}
	tr := snap.Recent[0]
	if tr.ID != tc.ID.String() {
		t.Errorf("trace ID = %s, want the minted %s", tr.ID, tc.ID)
	}
	if tr.Outcome != "ok" || tr.Anomaly {
		t.Errorf("outcome = %q anomaly=%v, want ok/false", tr.Outcome, tr.Anomaly)
	}
	want := []string{"ADMITTED", "ENQUEUED", "SCHEDULED", "ESTIMATED", "DEPARTED"}
	got := eventKinds(tr)
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("event chain = %v, want %v", got, want)
	}
	// DEPARTED carries the batch size; the stage durations are derived.
	if last := tr.Events[len(tr.Events)-1]; last.Arg != 4 {
		t.Errorf("DEPARTED arg = %d, want 4 samples", last.Arg)
	}
	if tr.E2EMs <= 0 {
		t.Errorf("e2e duration = %gms, want > 0", tr.E2EMs)
	}

	// The sampled batch fed the latency histograms through the exemplar
	// path: the OpenMetrics rendering must link a bucket to this trace.
	var buf strings.Builder
	if err := telemetry.WriteOpenMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `trace_id="`+tc.ID.String()+`"`) {
		t.Error("OpenMetrics exposition lacks an exemplar for the sampled trace")
	}
}

func TestHTTPTracezEndpoint(t *testing.T) {
	s := newServer(t, Config{Estimator: testEstimator(t), Workers: 1, TraceSampleRate: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	buf, err := perfctr.EncodeBatchExt(nil, "node-h", mkBatch(3, 1, 50),
		perfctr.TraceExt{ID: [16]byte(tracez.NewTraceID()), Sampled: true})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Post(ts.URL+"/ingest", "application/octet-stream", strings.NewReader(string(buf)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 202 {
		t.Fatalf("ingest = %d, want 202", resp.StatusCode)
	}
	drainTraces(t, s.rec, 1)

	body := httpGet(t, ts.URL+"/debug/tracez?format=json&view=recent", 200)
	var snap tracez.Snapshot
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatalf("tracez JSON: %v", err)
	}
	if len(snap.Recent) != 1 || snap.Recent[0].Node != "node-h" {
		t.Fatalf("tracez recent = %+v, want one node-h trace", snap.Recent)
	}
	if html := httpGet(t, ts.URL+"/debug/tracez", 200); !strings.Contains(html, "node-h") {
		t.Error("tracez HTML view missing the trace")
	}
}

func TestShedAnomalyAlwaysKeptAndBundled(t *testing.T) {
	diag := t.TempDir()
	inj := &blockingInjector{release: make(chan struct{})}
	s := newServer(t, Config{
		Estimator: testEstimator(t), Workers: 1, QueueDepth: 1,
		TraceSampleRate: 0, DiagDir: diag,
	})
	s.SetFaultInjector(inj)
	defer close(inj.release)

	// Wedge the single worker, fill the queue, then overflow it.
	var shedID tracez.TraceID
	deadline := time.Now().Add(5 * time.Second)
	for {
		tc := s.rec.Mint()
		if err := s.Ingest("c1", "node-s", mkBatch(1, 1, 10), nil, tc); err == ErrQueueFull {
			shedID = tc.ID
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("queue never filled")
		}
	}

	snap := s.rec.Snapshot()
	if len(snap.Errored) != 1 {
		t.Fatalf("errored = %d traces, want the shed anomaly", len(snap.Errored))
	}
	tr := snap.Errored[0]
	if tr.ID != shedID.String() || tr.Outcome != "shed:queue_full" || !tr.Anomaly {
		t.Errorf("shed trace = %+v, want always-kept shed:queue_full for %s", tr, shedID)
	}
	if kinds := eventKinds(tr); len(kinds) != 1 || kinds[0] != "SHED" {
		t.Errorf("shed events = %v, want [SHED]", kinds)
	}

	// Entering shedding must have triggered a diagnostics bundle.
	bundleDeadline := time.Now().Add(5 * time.Second)
	for s.LastDiagBundle() == "" {
		if time.Now().After(bundleDeadline) {
			t.Fatal("no diagnostics bundle after shed transition")
		}
		time.Sleep(5 * time.Millisecond)
	}
	bundle := s.LastDiagBundle()
	if !strings.HasPrefix(bundle, diag) {
		t.Errorf("bundle %q outside DiagDir %q", bundle, diag)
	}
	if _, err := os.Stat(filepath.Join(bundle, "tracez.json")); err != nil {
		t.Errorf("bundle missing tracez.json: %v", err)
	}
	if s.Stats().LastDiagBundle != bundle {
		t.Error("Stats does not report the bundle path")
	}
}

func TestUnsampledQuarantineReconstructed(t *testing.T) {
	s := newServer(t, Config{Estimator: nanEstimator(t), Workers: 1, TraceSampleRate: 0})
	tc := s.rec.Mint()
	if tc.Sampled {
		t.Fatal("rate-0 mint sampled")
	}
	if err := s.Ingest("c1", "node-q", mkBatch(3, 1, 7), nil, tc); err != nil {
		t.Fatalf("Ingest: %v", err)
	}
	snap := drainTraces(t, s.rec, 1)
	if len(snap.Errored) != 1 {
		t.Fatalf("errored = %d, want the reconstructed quarantine trace", len(snap.Errored))
	}
	tr := snap.Errored[0]
	if tr.ID != tc.ID.String() || tr.Outcome != "quarantine" {
		t.Errorf("trace = id %s outcome %q, want %s / quarantine", tr.ID, tr.Outcome, tc.ID)
	}
	kinds := eventKinds(tr)
	if strings.Join(kinds, ",") != "ADMITTED,ENQUEUED,SCHEDULED,QUARANTINE,DEPARTED" {
		t.Errorf("reconstructed chain = %v", kinds)
	}
	for _, ev := range tr.Events {
		if ev.Kind == "QUARANTINE" && ev.Arg != 3 {
			t.Errorf("QUARANTINE arg = %d, want all 3 samples", ev.Arg)
		}
	}
}

func TestUnsampledSlowOutlierPromoted(t *testing.T) {
	s := newServer(t, Config{
		Estimator: testEstimator(t), Workers: 1,
		TraceSampleRate: 0, SlowTrace: time.Nanosecond,
	})
	if err := s.Ingest("c1", "node-slow", mkBatch(2, 1, 3), nil, tracez.Context{}); err != nil {
		t.Fatalf("Ingest: %v", err)
	}
	snap := drainTraces(t, s.rec, 1)
	if len(snap.Errored) != 1 || snap.Errored[0].Outcome != "slow" {
		t.Fatalf("errored = %+v, want one slow-promoted trace", snap.Errored)
	}
}

// TestIngestUnsampledAllocs is the hot-path gate from the acceptance
// criteria: with sampling disabled, admitting a batch must not allocate
// per sample — the whole Ingest call is bounded by the one batch header
// allocation (plus measurement noise), no matter the batch size.
func TestIngestUnsampledAllocs(t *testing.T) {
	s, err := New(Config{
		Estimator: testEstimator(t), QueueDepth: 1 << 14, TraceSampleRate: 0,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Never started: batches park in the queue, isolating admission cost.
	samples := mkBatch(64, 2, 0)
	allocs := testing.AllocsPerRun(100, func() {
		if err := s.Ingest("bench-client", "bench-node", samples, nil, tracez.Context{}); err != nil {
			t.Fatalf("Ingest: %v", err)
		}
	})
	// One allocation for the batch header; anything scaling with the 64
	// samples would push this far past the bound.
	if allocs > 2 {
		t.Errorf("Ingest allocations = %g per 64-sample batch, want <= 2", allocs)
	}
}

// TestShedBatchesSkipLatencyHistograms is the satellite-4 coverage:
// under forced shedding, queue-wait observations come only from
// admitted batches, and shed batches never contribute to the
// service-time series. The histograms are process-wide, so the test
// asserts on count deltas.
func TestShedBatchesSkipLatencyHistograms(t *testing.T) {
	inj := &blockingInjector{release: make(chan struct{})}
	s := newServer(t, Config{
		Estimator: testEstimator(t), Workers: 1, QueueDepth: 2, TraceSampleRate: 0,
	})
	s.SetFaultInjector(inj)

	// Wedge the worker and fill the queue: these are the admitted
	// batches. The first must leave the queue before the fill starts, or
	// the worker frees a slot that one overflow batch then takes.
	if err := s.Ingest("c1", "node-hist", mkBatch(1, 1, 5), nil, tracez.Context{}); err != nil {
		t.Fatalf("Ingest: %v", err)
	}
	admitted := 1
	deadline := time.Now().Add(5 * time.Second)
	for s.QueueDepth() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("worker never picked up the first batch")
		}
		time.Sleep(time.Millisecond)
	}
	for {
		err := s.Ingest("c1", "node-hist", mkBatch(1, 1, 5), nil, tracez.Context{})
		if err == ErrQueueFull {
			break
		}
		if err != nil {
			t.Fatalf("Ingest: %v", err)
		}
		admitted++
		if time.Now().After(deadline) {
			t.Fatal("queue never filled")
		}
	}

	qwBefore, svBefore, e2eBefore := mQueueWait.Count(), mService.Count(), mE2E.Count()
	shed := 0
	for i := 0; i < 5; i++ {
		if err := s.Ingest("c1", "node-hist", mkBatch(1, 1, 5), nil, tracez.Context{}); err == ErrQueueFull {
			shed++
		}
	}
	if shed != 5 {
		t.Fatalf("shed %d of 5 overflow batches", shed)
	}
	if qw, sv, e2e := mQueueWait.Count(), mService.Count(), mE2E.Count(); qw != qwBefore || sv != svBefore || e2e != e2eBefore {
		t.Errorf("shed batches moved histogram counts: queue_wait +%d service +%d e2e +%d",
			qw-qwBefore, sv-svBefore, e2e-e2eBefore)
	}

	// Release the workers; exactly the admitted batches flow through.
	close(inj.release)
	closeServer(t, s)
	if got := mQueueWait.Count() - qwBefore; got != uint64(admitted) {
		t.Errorf("queue-wait observations = %d, want the %d admitted batches", got, admitted)
	}
	if got := mService.Count() - svBefore; got != uint64(admitted) {
		t.Errorf("service observations = %d, want %d", got, admitted)
	}
}

// TestTraceBuilderOneTimeline: for one fixed batch timeline, the
// sampled, slow, quarantined and shed traces agree event for event
// (kinds, times and args): slow matches sampled exactly, quarantined
// swaps ESTIMATED for QUARANTINE, and shed keeps DECODED and ends in
// SHED at the refused enqueue.
func TestTraceBuilderOneTimeline(t *testing.T) {
	s, err := New(Config{Estimator: testEstimator(t), SlowTrace: 200 * time.Microsecond})
	if err != nil {
		t.Fatal(err)
	}
	t0 := time.Now()
	at := func(us int) time.Time { return t0.Add(time.Duration(us) * time.Microsecond) }
	timeline := func(sampled bool) *batch {
		return &batch{
			node: "node-t", client: "c1", samples: mkBatch(4, 1, 0),
			arrived: at(0), decoded: at(10), admitted: at(12), queued: at(15), depth: 3,
			scheduled: at(100), worker: 1, departed: at(300),
			tc: tracez.Context{ID: tracez.NewTraceID(), Sampled: sampled},
		}
	}
	type ev struct {
		kind string
		us   float64
		arg  int64
	}
	journey := []ev{{"DECODED", 10, 4}, {"ADMITTED", 12, 4}, {"ENQUEUED", 15, 3},
		{"SCHEDULED", 100, 1}, {"ESTIMATED", 300, 0}, {"DEPARTED", 300, 4}}
	quarantined := append([]ev(nil), journey...)
	quarantined[4] = ev{"QUARANTINE", 300, 3}
	shed := []ev{journey[0], {"SHED", 15, 4}}

	sampled := timeline(true)
	sampled.departed = at(150) // under the slow threshold
	fast := append([]ev(nil), journey...)
	fast[4].us, fast[5].us = 150, 150
	slow := timeline(false)
	bad := timeline(false)
	bad.bad = 3
	refused := timeline(false)
	refused.departed = refused.queued
	s.fileTrace(sampled, "")
	s.fileTrace(slow, "")
	s.fileTrace(bad, "")
	s.fileTrace(refused, "queue_full")

	recent := s.rec.Snapshot().Recent // newest first
	for i, c := range []struct {
		name, outcome string
		want          []ev
	}{
		{"shed", "shed:queue_full", shed},
		{"quarantined", "quarantine", quarantined},
		{"slow", "slow", journey},
		{"sampled", "ok", fast},
	} {
		tr := recent[i]
		if tr.Outcome != c.outcome || tr.Client != "c1" || tr.Node != "node-t" {
			t.Errorf("%s: outcome %q client %q node %q, want %q c1 node-t", c.name, tr.Outcome, tr.Client, tr.Node, c.outcome)
		}
		var got []ev
		for _, e := range tr.Events {
			got = append(got, ev{e.Kind, math.Round(e.OffsetUs), e.Arg})
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s: events %v, want %v", c.name, got, c.want)
		}
	}
}

// TestSlowTraceMatchesSampledJourney drives two /ingest batches through
// a wedged worker, one sampled by its producer and one kept only for
// being slow. Both traces carry the same journey in time order, and the
// slow one's ENQUEUED holds the backlog it queued behind.
func TestSlowTraceMatchesSampledJourney(t *testing.T) {
	inj := &blockingInjector{release: make(chan struct{})}
	s := newServer(t, Config{
		Estimator: testEstimator(t), Workers: 1, TraceSampleRate: 0, SlowTrace: time.Nanosecond,
	})
	s.SetFaultInjector(inj)
	if err := s.Ingest("c1", "node-w", mkBatch(1, 1, 0), nil, tracez.Context{}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for s.QueueDepth() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("worker never picked up the wedging batch")
		}
		time.Sleep(time.Millisecond)
	}
	h := s.Handler()
	var ids [2]tracez.TraceID
	for i, sampled := range []bool{true, false} {
		ids[i] = tracez.NewTraceID()
		wire, err := perfctr.EncodeBatchExt(nil, "node-w", mkBatch(3, 1, 10),
			perfctr.TraceExt{ID: [16]byte(ids[i]), Sampled: sampled})
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("POST", "/ingest", strings.NewReader(string(wire))))
		if rec.Code != 202 {
			t.Fatalf("ingest %d = %d, want 202", i, rec.Code)
		}
	}
	close(inj.release)
	snap := drainTraces(t, s.rec, 3)
	byID := map[string]tracez.TraceJSON{}
	for _, tr := range snap.Recent {
		byID[tr.ID] = tr
	}
	want := "DECODED,ADMITTED,ENQUEUED,SCHEDULED,ESTIMATED,DEPARTED"
	for i, id := range ids {
		tr, ok := byID[id.String()]
		if !ok {
			t.Fatalf("batch %d: no trace for %s", i, id)
		}
		if got := strings.Join(eventKinds(tr), ","); got != want {
			t.Errorf("batch %d: events %s, want %s", i, got, want)
		}
		for j, e := range tr.Events {
			if j > 0 && e.OffsetUs < tr.Events[j-1].OffsetUs {
				t.Errorf("batch %d: %s at %.1fµs before %s at %.1fµs", i,
					e.Kind, e.OffsetUs, tr.Events[j-1].Kind, tr.Events[j-1].OffsetUs)
			}
			if e.Kind == "ENQUEUED" && e.Arg != int64(i) {
				t.Errorf("batch %d: ENQUEUED depth %d, want %d", i, e.Arg, i)
			}
		}
	}
}

// TestShedIngestTraceKeepsDecoded: a batch /ingest decodes and then
// sheds for a full queue is traced from ARRIVED through DECODED to SHED.
func TestShedIngestTraceKeepsDecoded(t *testing.T) {
	inj := &blockingInjector{release: make(chan struct{})}
	s := newServer(t, Config{Estimator: testEstimator(t), Workers: 1, QueueDepth: 1, TraceSampleRate: 0})
	s.SetFaultInjector(inj)
	defer close(inj.release)
	h := s.Handler()
	wire := ingestFrame(t, "node-s", 2)
	deadline := time.Now().Add(5 * time.Second)
	for {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("POST", "/ingest", strings.NewReader(string(wire))))
		if rec.Code == 429 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("queue never filled")
		}
	}
	snap := s.rec.Snapshot()
	if len(snap.Errored) != 1 {
		t.Fatalf("errored = %d traces, want the shed one", len(snap.Errored))
	}
	tr := snap.Errored[0]
	if got := strings.Join(eventKinds(tr), ","); got != "DECODED,SHED" || tr.Outcome != "shed:queue_full" {
		t.Fatalf("shed trace: events %s outcome %q, want DECODED,SHED shed:queue_full", got, tr.Outcome)
	}
	if d, shed := tr.Events[0], tr.Events[1]; d.OffsetUs <= 0 || shed.OffsetUs < d.OffsetUs || d.Arg != 2 || shed.Arg != 2 {
		t.Errorf("shed trace events %+v, want DECODED after ARRIVED and SHED after DECODED, both for 2 samples", tr.Events)
	}
}
