package serve

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"trickledown/internal/perfctr"
)

// failingReader yields its bytes, then err instead of io.EOF: a body
// whose producer went away mid-send.
type failingReader struct {
	data []byte
	err  error
}

func (f *failingReader) Read(p []byte) (int, error) {
	if len(f.data) == 0 {
		return 0, f.err
	}
	n := copy(p, f.data)
	f.data = f.data[n:]
	return n, nil
}

// ingestFrame encodes n samples for one node with an unsampled trace
// context, the shape producers send.
func ingestFrame(tb testing.TB, node string, n int) []byte {
	tb.Helper()
	wire, err := perfctr.EncodeBatchExt(nil, node, mkBatch(n, 2, 0), perfctr.TraceExt{ID: [16]byte{1}})
	if err != nil {
		tb.Fatal(err)
	}
	return wire
}

func TestIngestBodyErrorsMapToStatus(t *testing.T) {
	s := newServer(t, Config{Estimator: testEstimator(t), Workers: 1, QueueDepth: 8})
	h := s.Handler()
	wire := ingestFrame(t, "n", 16)
	cases := []struct {
		name   string
		body   io.Reader
		length int64
		want   int
	}{
		{"reader fails mid-body", &failingReader{data: wire[:len(wire)/2], err: errors.New("connection reset")},
			int64(len(wire)), http.StatusBadRequest},
		{"body shorter than Content-Length", bytes.NewReader(wire[:len(wire)/2]),
			int64(len(wire)), http.StatusBadRequest},
		{"Content-Length over the limit", bytes.NewReader(wire), maxBodyBytes + 1, http.StatusRequestEntityTooLarge},
		{"complete declared body", bytes.NewReader(wire), int64(len(wire)), http.StatusAccepted},
		{"chunked body", bytes.NewReader(wire), -1, http.StatusAccepted},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req := httptest.NewRequest(http.MethodPost, "/ingest", tc.body)
			req.ContentLength = tc.length
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			if rec.Code != tc.want {
				t.Errorf("status %d (%s), want %d", rec.Code, strings.TrimSpace(rec.Body.String()), tc.want)
			}
		})
	}
}

// TestIngestClientAbortIs400: over a real connection, a producer that
// half-closes before sending its declared Content-Length gets 400.
func TestIngestClientAbortIs400(t *testing.T) {
	s := newServer(t, Config{Estimator: testEstimator(t), Workers: 1, QueueDepth: 8})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	wire := ingestFrame(t, "n", 16)

	conn, err := net.Dial("tcp", ts.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	fmt.Fprintf(conn, "POST /ingest HTTP/1.1\r\nHost: x\r\nContent-Length: %d\r\n\r\n", len(wire))
	conn.Write(wire[:len(wire)/3])
	conn.(*net.TCPConn).CloseWrite()
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		t.Fatalf("reading response: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("truncated body: status %d, want 400", resp.StatusCode)
	}
}

// TestIngestDeclaredLengthDoesNotSizeBuffer: a client that declares a
// body near the limit and then sends only a few bytes costs memory in
// proportion to what it sent, not to what it declared.
func TestIngestDeclaredLengthDoesNotSizeBuffer(t *testing.T) {
	const sent = 4 << 10
	const maxAmplification = 64
	s := newServer(t, Config{Estimator: testEstimator(t), Workers: 1, QueueDepth: 8})
	h := s.Handler()
	wire := ingestFrame(t, "n", 256)
	for _, declared := range []int64{maxBodyBytes, maxPooledBody} {
		req := httptest.NewRequest(http.MethodPost, "/ingest",
			&failingReader{data: wire[:sent], err: io.ErrUnexpectedEOF})
		req.ContentLength = declared
		rec := httptest.NewRecorder()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		h.ServeHTTP(rec, req)
		runtime.ReadMemStats(&after)
		if rec.Code != http.StatusBadRequest {
			t.Errorf("declared %d: status %d, want 400", declared, rec.Code)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got > maxAmplification*sent {
			t.Errorf("declared %d, sent %d: allocated %d bytes, want <= %d",
				declared, sent, got, maxAmplification*sent)
		}
	}
}

// TestIngestPooledBodyNotAliased: a batch still queued must not change
// when the next request's body reuses its pooled buffer.
func TestIngestPooledBodyNotAliased(t *testing.T) {
	est := testEstimator(t)
	s := newUnstarted(t, Config{Estimator: est, Workers: 1, QueueDepth: 8})
	h := s.Handler()

	first := mkBatch(32, 2, 100)
	second := mkBatch(32, 2, 900)
	for i := range second {
		second[i].CPUs[0].FetchedUops *= 3
	}
	for _, b := range []struct {
		node    string
		samples []perfctr.Sample
	}{{"first", first}, {"second", second}} {
		wire, err := perfctr.EncodeBatchFull(nil, b.node, b.samples, perfctr.TraceExt{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/ingest", bytes.NewReader(wire)))
		if rec.Code != http.StatusAccepted {
			t.Fatalf("%s: status %d", b.node, rec.Code)
		}
	}
	s.Start()
	closeServer(t, s)
	for node, want := range map[string]float64{
		"first":  est.Estimate(&first[len(first)-1]).Total(),
		"second": est.Estimate(&second[len(second)-1]).Total(),
	} {
		np, ok := s.NodePower(node)
		if !ok {
			t.Fatalf("node %s missing", node)
		}
		if np.Power["Total"] != want {
			t.Errorf("%s: total %v, want %v", node, np.Power["Total"], want)
		}
	}
}

// TestIngestRecycledDecoderMatchesFresh: a batch decoded into storage
// that two earlier batches used must estimate exactly like a fresh
// decode. The first two wait on an unstarted server's queue so neither
// decoder can go back to the pool early; the third, shaped
// differently, reuses theirs once both are estimated.
func TestIngestRecycledDecoderMatchesFresh(t *testing.T) {
	est := testEstimator(t)
	s := newUnstarted(t, Config{Estimator: est, Workers: 1, QueueDepth: 8})
	h := s.Handler()
	post := func(node string, samples []perfctr.Sample) {
		t.Helper()
		wire, err := perfctr.EncodeBatchFull(nil, node, samples, perfctr.TraceExt{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/ingest", bytes.NewReader(wire)))
		if rec.Code != http.StatusAccepted {
			t.Fatalf("%s: status %d", node, rec.Code)
		}
	}

	first := mkBatch(32, 2, 100)
	second := mkBatch(32, 2, 900)
	for i := range second {
		second[i].CPUs[0].FetchedUops *= 3
	}
	third := mkBatch(8, 4, 2000)
	for i := range third {
		third[i].CPUs[3].FetchedUops /= 2
	}
	post("first", first)
	post("second", second)
	s.Start()
	waitEstimated(t, s, uint64(len(first)+len(second)))
	post("third", third)
	closeServer(t, s)
	for node, want := range map[string]float64{
		"first":  est.Estimate(&first[len(first)-1]).Total(),
		"second": est.Estimate(&second[len(second)-1]).Total(),
		"third":  est.Estimate(&third[len(third)-1]).Total(),
	} {
		np, ok := s.NodePower(node)
		if !ok {
			t.Fatalf("node %s missing", node)
		}
		if np.Power["Total"] != want {
			t.Errorf("%s: total %v, want %v", node, np.Power["Total"], want)
		}
	}
}

// TestHandleIngestAllocs gates the whole request path — pooled body
// read, slab decode, admission — for a 256-sample frame. Its workers
// never start, so no batch's decoder goes back to the pool and every
// request builds a fresh one: what remains is that decoder's storage
// (node, samples and CPU slab), the batch header, and the recorder
// and request plumbing the test builds. The steady state of a started
// server, where decoders are recycled, is TestHandleIngestSteadyBytes.
func TestHandleIngestAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops pooled body buffers at random")
	}
	const maxAllocs = 12
	s, err := New(Config{Estimator: testEstimator(t), QueueDepth: 1 << 10})
	if err != nil {
		t.Fatal(err)
	}
	// Never started: batches park in the queue, isolating the handler.
	h := s.Handler()
	wire := ingestFrame(t, "n", 256)
	body := bytes.NewReader(wire)
	req := httptest.NewRequest(http.MethodPost, "/ingest", body)
	req.Header.Set("X-Client-ID", "c")
	allocs := testing.AllocsPerRun(100, func() {
		body.Reset(wire)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusAccepted {
			t.Fatalf("status %d", rec.Code)
		}
	})
	if allocs > maxAllocs {
		t.Errorf("handler path: %.0f allocs per 256-sample ingest, want <= %d", allocs, maxAllocs)
	}
}

// TestHandleIngestSteadyBytes gates what a started server allocates per
// 256-sample ingest once its body buffers and decoders are recycled:
// the batch header, the trace bookkeeping and the recorder plumbing,
// not the ~74 KB a fresh decode of the frame costs. Each request is
// estimated before the next is sent, so the decoder it carried is back
// in the pool when the next one arrives.
func TestHandleIngestSteadyBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops pooled decoders at random")
	}
	const (
		maxBytes = 4 << 10
		warmup   = 20
		runs     = 200
	)
	s := newServer(t, Config{Estimator: testEstimator(t), Workers: 1, QueueDepth: 8})
	h := s.Handler()
	wire := ingestFrame(t, "n", 256)
	body := bytes.NewReader(wire)
	req := httptest.NewRequest(http.MethodPost, "/ingest", body)
	req.Header.Set("X-Client-ID", "c")
	sent := uint64(0)
	ingest := func() {
		body.Reset(wire)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusAccepted {
			t.Fatalf("status %d", rec.Code)
		}
		sent += 256
		waitEstimated(t, s, sent)
	}
	for i := 0; i < warmup; i++ {
		ingest()
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		ingest()
	}
	runtime.ReadMemStats(&after)
	got := (after.TotalAlloc - before.TotalAlloc) / runs
	t.Logf("%d bytes per 256-sample ingest (ceiling %d)", got, maxBytes)
	if got > maxBytes {
		t.Errorf("steady state: %d bytes per 256-sample ingest, want <= %d", got, maxBytes)
	}
}

// BenchmarkHandleIngest drives a 256-sample frame through the handler
// on a recorder, with workers estimating behind it through the
// production models, the path tdserve serves.
func BenchmarkHandleIngest(b *testing.B) {
	s, err := New(Config{Estimator: productionEstimator(b), QueueDepth: 1 << 10})
	if err != nil {
		b.Fatal(err)
	}
	s.Start()
	defer closeServer(b, s)
	h := s.Handler()
	wire := ingestFrame(b, "n", 256)
	body := bytes.NewReader(wire)
	req := httptest.NewRequest(http.MethodPost, "/ingest", body)
	b.ReportAllocs()
	b.SetBytes(int64(len(wire)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		body.Reset(wire)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusAccepted && rec.Code != http.StatusTooManyRequests {
			b.Fatalf("status %d", rec.Code)
		}
	}
}

// stallingReader sleeps once before yielding its bytes: a producer
// whose body arrives after its headers.
type stallingReader struct {
	stall time.Duration
	data  io.Reader
}

func (s *stallingReader) Read(p []byte) (int, error) {
	if s.stall > 0 {
		time.Sleep(s.stall)
		s.stall = 0
	}
	return s.data.Read(p)
}

// TestAdmissionStageIncludesBodyRead: ARRIVED is stamped before the
// handler reads the body, so a sampled batch whose body stalls 20 ms
// shows at least that much in its DECODED event, in its admission
// stage, which runs on past DECODED, and in e2e.
func TestAdmissionStageIncludesBodyRead(t *testing.T) {
	const stall = 20 * time.Millisecond
	s := newServer(t, Config{Estimator: testEstimator(t), Workers: 1})
	wire, err := perfctr.EncodeBatchExt(nil, "n", mkBatch(16, 2, 0),
		perfctr.TraceExt{ID: [16]byte{9}, Sampled: true})
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodPost, "/ingest",
		&stallingReader{stall: stall, data: bytes.NewReader(wire)})
	rec := httptest.NewRecorder()
	decodes := s.Stats().Decode.Count
	s.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusAccepted {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	snap := drainTraces(t, s.rec, 1)
	if len(snap.Recent) != 1 {
		t.Fatalf("recent = %d traces, want 1", len(snap.Recent))
	}
	tr := snap.Recent[0]
	if got, want := eventKinds(tr), []string{"DECODED", "ADMITTED", "ENQUEUED"}; len(got) < 3 || !reflect.DeepEqual(got[:3], want) {
		t.Fatalf("events %v, want %v first", got, want)
	}
	decodeMs := tr.Events[0].OffsetUs / 1e3
	if ms := float64(stall) / 1e6; decodeMs < ms || tr.AdmissionMs < decodeMs || tr.E2EMs < tr.AdmissionMs {
		t.Errorf("decode %.3f ms, admission %.3f ms, e2e %.3f ms; want %.0f ms of body stall <= decode <= admission <= e2e",
			decodeMs, tr.AdmissionMs, tr.E2EMs, ms)
	}
	if got := s.Stats().Decode.Count; got <= decodes {
		t.Errorf("statz decode count %d after the request, %d before", got, decodes)
	}
}
