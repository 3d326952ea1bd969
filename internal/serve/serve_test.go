package serve

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"trickledown/internal/adapt"
	"trickledown/internal/core"
	"trickledown/internal/perfctr"
	"trickledown/internal/pool"
	"trickledown/internal/power"
	"trickledown/internal/tracez"
)

// constModel returns a fitted model predicting base + slope*sum(uops
// per cycle) for one subsystem — deterministic, hand-checkable, and
// dependent on the sample so round-trip tests prove real estimation
// happened rather than a constant being echoed back.
func testModel(sub power.Subsystem, base, slope float64) *core.Model {
	return &core.Model{
		Spec: core.ModelSpec{
			Name: fmt.Sprintf("test-%s", sub),
			Sub:  sub,
			Design: func(cols [][]float64, ms []core.Metrics) {
				for j := range ms {
					var upc float64
					for _, v := range ms[j].UopsPerCycle {
						upc += v
					}
					cols[0][j], cols[1][j] = 1, upc
				}
			},
			Terms: []string{"const", "upc"},
		},
		Coef: []float64{base, slope},
	}
}

// testEstimator builds a five-subsystem estimator from testModel fits.
func testEstimator(t testing.TB) *core.Estimator {
	t.Helper()
	models := make([]*core.Model, 0, power.NumSubsystems)
	for i, sub := range power.Subsystems() {
		models = append(models, testModel(sub, 10+float64(i), 2+float64(i)))
	}
	est, err := core.NewEstimator(models...)
	if err != nil {
		t.Fatalf("NewEstimator: %v", err)
	}
	return est
}

// nanEstimator's every rail predicts NaN: the poisoned-model case the
// non-finite quarantine exists for.
func nanEstimator(t *testing.T) *core.Estimator {
	t.Helper()
	models := make([]*core.Model, 0, power.NumSubsystems)
	for _, sub := range power.Subsystems() {
		models = append(models, testModel(sub, math.NaN(), 0))
	}
	est, err := core.NewEstimator(models...)
	if err != nil {
		t.Fatalf("NewEstimator: %v", err)
	}
	return est
}

// mkSample fabricates a plausible counter sample at target time t.
func mkSample(t float64, ncpu int, seed uint64) perfctr.Sample {
	s := perfctr.Sample{
		TargetSeconds: t,
		IntervalSec:   1,
		CPUs:          make([]perfctr.CPUCounts, ncpu),
	}
	for i := range s.CPUs {
		base := seed + uint64(i)*1000
		s.CPUs[i] = perfctr.CPUCounts{
			Cycles:        2_800_000_000,
			HaltedCycles:  700_000_000,
			FetchedUops:   1_000_000_000 + base*1_000,
			L3LoadMisses:  100_000 + base,
			L3Misses:      150_000 + base,
			TLBMisses:     5_000,
			BusTx:         200_000 + base,
			BusPrefetchTx: 40_000,
			DMAOther:      30_000,
			Uncacheable:   1_000,
		}
	}
	return s
}

func mkBatch(n, ncpu int, t0 float64) []perfctr.Sample {
	out := make([]perfctr.Sample, n)
	for i := range out {
		out[i] = mkSample(t0+float64(i), ncpu, uint64(i)*17+1)
	}
	return out
}

// blockingInjector implements perfctr.FaultInjector and parks every
// perturb call until released — the test lever that wedges estimation
// workers to fill the queue deterministically.
type blockingInjector struct{ release chan struct{} }

func (b *blockingInjector) PerturbCounts(t float64, cpu int, c *perfctr.CPUCounts) {
	<-b.release
}

func newServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	s.Start()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = s.Close(ctx)
	})
	return s
}

func closeServer(t testing.TB, s *Server) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Close(ctx); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

func TestIngestEstimatesMatchDirect(t *testing.T) {
	est := testEstimator(t)
	s := newServer(t, Config{Estimator: est, Workers: 2, QueueDepth: 16})

	batch := mkBatch(10, 2, 100)
	// The server owns samples after Ingest; keep a copy for the oracle.
	oracle := make([]perfctr.Sample, len(batch))
	copy(oracle, batch)
	if err := s.Ingest("c1", "node-a", batch, nil, tracez.Context{}); err != nil {
		t.Fatalf("Ingest: %v", err)
	}
	closeServer(t, s)

	np, ok := s.NodePower("node-a")
	if !ok {
		t.Fatal("node-a not tracked")
	}
	if np.Samples != 10 || np.NonFinite != 0 {
		t.Fatalf("samples=%d nonfinite=%d, want 10/0", np.Samples, np.NonFinite)
	}
	if np.LastTargetSeconds != oracle[len(oracle)-1].TargetSeconds {
		t.Fatalf("lastT=%v, want %v", np.LastTargetSeconds, oracle[len(oracle)-1].TargetSeconds)
	}
	want := est.Estimate(&oracle[len(oracle)-1])
	for _, sub := range power.Subsystems() {
		if got := np.Power[sub.String()]; math.Abs(got-want[sub]) > 1e-9 {
			t.Errorf("%s: got %v, want %v", sub, got, want[sub])
		}
	}
	if got := np.Power["Total"]; math.Abs(got-want.Total()) > 1e-9 {
		t.Errorf("Total: got %v, want %v", got, want.Total())
	}

	fleet := s.Fleet()
	if fleet.Nodes != 1 || fleet.SamplesEstimated != 10 {
		t.Fatalf("fleet nodes=%d estimated=%d, want 1/10", fleet.Nodes, fleet.SamplesEstimated)
	}
	if math.Abs(fleet.Power["Total"]-want.Total()) > 1e-9 {
		t.Errorf("fleet total %v, want %v", fleet.Power["Total"], want.Total())
	}
}

func TestQueueFullBackpressure(t *testing.T) {
	rel := make(chan struct{})
	s := newServer(t, Config{Estimator: testEstimator(t), Workers: 1, QueueDepth: 2})
	s.SetFaultInjector(&blockingInjector{release: rel})

	// First batch wedges the single worker; wait until it leaves the queue.
	if err := s.Ingest("c", "n", mkBatch(2, 1, 0), nil, tracez.Context{}); err != nil {
		t.Fatalf("Ingest 0: %v", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for s.QueueDepth() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("worker never picked up the first batch")
		}
		time.Sleep(time.Millisecond)
	}
	// Two more fill the bounded queue exactly.
	for i := 1; i <= 2; i++ {
		if err := s.Ingest("c", "n", mkBatch(2, 1, 10), nil, tracez.Context{}); err != nil {
			t.Fatalf("Ingest %d: %v", i, err)
		}
	}
	// The next one must be shed, immediately, with the typed error.
	err := s.Ingest("c", "n", mkBatch(3, 1, 20), nil, tracez.Context{})
	if !errors.Is(err, ErrQueueFull) {
		t.Fatalf("Ingest overflow: got %v, want ErrQueueFull", err)
	}
	if !s.SheddingActive() {
		t.Error("SheddingActive = false right after queue_full shed")
	}
	st := s.Stats()
	if st.SamplesShed != 3 {
		t.Errorf("SamplesShed = %d, want 3", st.SamplesShed)
	}
	if d := s.QueueDepth(); d > 2 {
		t.Errorf("queue depth %d exceeds bound 2", d)
	}

	close(rel)
	closeServer(t, s)
	if got := s.Stats().SamplesEstimated; got != 6 {
		t.Errorf("estimated %d after drain, want 6 (all admitted)", got)
	}
}

func TestRateLimitedPerClient(t *testing.T) {
	s := newServer(t, Config{
		Estimator: testEstimator(t), Workers: 1, QueueDepth: 64,
		RatePerClient: 10, Burst: 10,
	})
	if err := s.Ingest("heavy", "n", mkBatch(10, 1, 0), nil, tracez.Context{}); err != nil {
		t.Fatalf("first batch within burst: %v", err)
	}
	if err := s.Ingest("heavy", "n", mkBatch(10, 1, 0), nil, tracez.Context{}); !errors.Is(err, ErrRateLimited) {
		t.Fatalf("second batch: got %v, want ErrRateLimited", err)
	}
	// A different client has its own bucket.
	if err := s.Ingest("light", "n", mkBatch(10, 1, 0), nil, tracez.Context{}); err != nil {
		t.Fatalf("other client: %v", err)
	}
}

func TestBatchTooLarge(t *testing.T) {
	s := newServer(t, Config{Estimator: testEstimator(t), MaxBatch: 4, Workers: 1})
	err := s.Ingest("c", "n", mkBatch(5, 1, 0), nil, tracez.Context{})
	if !errors.Is(err, ErrBatchTooLarge) {
		t.Fatalf("got %v, want ErrBatchTooLarge", err)
	}
}

func TestIngestAfterCloseReturnsErrClosed(t *testing.T) {
	s := newServer(t, Config{Estimator: testEstimator(t), Workers: 1})
	closeServer(t, s)
	if err := s.Ingest("c", "n", mkBatch(1, 1, 0), nil, tracez.Context{}); !errors.Is(err, ErrClosed) {
		t.Fatalf("got %v, want ErrClosed", err)
	}
}

// TestConcurrentProducers races many producers against the batch
// workers (run under -race in CI): every admitted sample must be
// estimated exactly once by graceful close, and the books must balance.
func TestConcurrentProducers(t *testing.T) {
	s := newServer(t, Config{Estimator: testEstimator(t), Workers: 4, QueueDepth: 64})

	const producers, batches, batchN = 8, 40, 16
	var wg sync.WaitGroup
	var mu sync.Mutex
	admitted, shedN := 0, 0
	admittedNodes := map[string]bool{}
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			client := fmt.Sprintf("client-%d", p)
			node := fmt.Sprintf("node-%d", p%3)
			for b := 0; b < batches; b++ {
				err := s.Ingest(client, node, mkBatch(batchN, 2, float64(b*batchN)), nil, tracez.Context{})
				mu.Lock()
				if err == nil {
					admitted += batchN
					admittedNodes[node] = true
				} else if errors.Is(err, ErrQueueFull) {
					shedN += batchN
				} else {
					t.Errorf("unexpected ingest error: %v", err)
				}
				mu.Unlock()
			}
		}(p)
	}
	wg.Wait()
	closeServer(t, s)

	st := s.Stats()
	if st.SamplesIngested != uint64(admitted) {
		t.Errorf("ingested %d, want %d", st.SamplesIngested, admitted)
	}
	if st.SamplesEstimated != uint64(admitted) {
		t.Errorf("estimated %d after graceful close, want all %d admitted", st.SamplesEstimated, admitted)
	}
	if st.SamplesShed != uint64(shedN) {
		t.Errorf("shed %d, want %d", st.SamplesShed, shedN)
	}
	fleet := s.Fleet()
	if fleet.Nodes != len(admittedNodes) {
		t.Errorf("fleet nodes %d, want %d (nodes with at least one admitted batch)",
			fleet.Nodes, len(admittedNodes))
	}
	total := fleet.Power["Total"]
	if math.IsNaN(total) || math.IsInf(total, 0) || total <= 0 {
		t.Errorf("fleet total %v, want finite positive", total)
	}
}

// TestHardCancelAbandonsQueue covers cancellation mid-drain: a Close
// whose context fires abandons still-queued batches instead of waiting
// forever for a wedged worker.
func TestHardCancelAbandonsQueue(t *testing.T) {
	rel := make(chan struct{})
	s, err := New(Config{Estimator: testEstimator(t), Workers: 1, QueueDepth: 8})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	s.Start()
	s.SetFaultInjector(&blockingInjector{release: rel})

	const batchN = 4
	for i := 0; i < 5; i++ {
		if err := s.Ingest("c", "n", mkBatch(batchN, 1, float64(i)), nil, tracez.Context{}); err != nil {
			t.Fatalf("Ingest %d: %v", i, err)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- s.Close(ctx) }()
	time.Sleep(50 * time.Millisecond) // intake closed, worker wedged on batch 1
	cancel()                          // hard cancel: abandon the queue
	// Give Close time to observe the cancel and stop the workers before
	// un-wedging — the abandoned batches must not be drained.
	time.Sleep(100 * time.Millisecond)
	close(rel)

	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("Close: got %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not return after hard cancel")
	}
	if got := s.Stats().SamplesEstimated; got >= 5*batchN {
		t.Errorf("estimated %d, want < %d (queued batches abandoned)", got, 5*batchN)
	}
}

func TestNonFiniteEstimatesQuarantined(t *testing.T) {
	s := newServer(t, Config{Estimator: nanEstimator(t), Workers: 1, QueueDepth: 8})
	if err := s.Ingest("c", "n", mkBatch(6, 1, 0), nil, tracez.Context{}); err != nil {
		t.Fatalf("Ingest: %v", err)
	}
	closeServer(t, s)

	np, ok := s.NodePower("n")
	if !ok {
		t.Fatal("node not tracked")
	}
	if np.Samples != 6 || np.NonFinite != 6 {
		t.Fatalf("samples=%d nonfinite=%d, want 6/6", np.Samples, np.NonFinite)
	}
	if np.Power != nil {
		t.Errorf("Power = %v, want empty (no good reading ever)", np.Power)
	}
	fleet := s.Fleet()
	if !fleet.Degraded {
		t.Error("fleet not degraded despite non-finite estimates")
	}
	for k, v := range fleet.Power {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Errorf("fleet %s = %v: NaN escaped the quarantine", k, v)
		}
	}
}

// TestHugeFiniteEstimateNotQuarantined: a rail past 1e308 is still a
// finite number, so it is served, not counted as non-finite.
func TestHugeFiniteEstimateNotQuarantined(t *testing.T) {
	models := make([]*core.Model, 0, power.NumSubsystems)
	for _, sub := range power.Subsystems() {
		base := 10.0
		if sub == power.SubCPU {
			base = 1.5e308
		}
		models = append(models, testModel(sub, base, 0))
	}
	est, err := core.NewEstimator(models...)
	if err != nil {
		t.Fatalf("NewEstimator: %v", err)
	}
	s := newServer(t, Config{Estimator: est, Workers: 1, QueueDepth: 8})
	if err := s.Ingest("c", "n", mkBatch(3, 1, 0), nil, tracez.Context{}); err != nil {
		t.Fatalf("Ingest: %v", err)
	}
	closeServer(t, s)
	np, ok := s.NodePower("n")
	if !ok {
		t.Fatal("node not tracked")
	}
	if np.Samples != 3 || np.NonFinite != 0 {
		t.Fatalf("samples=%d nonfinite=%d, want 3/0", np.Samples, np.NonFinite)
	}
	if got := np.Power[power.SubCPU.String()]; got != 1.5e308 {
		t.Errorf("CPU = %v, want 1.5e308", got)
	}
}

// TestRetryRecoversPanickingBatch: a model whose Design panics on the
// first attempt's batch estimate exercises the per-batch panic
// containment + retry path without taking down the worker. The batch
// carries rails, and the adapter, whose single-sample estimates run
// before the batch's and never panic, must observe each sample once,
// not again on the retry.
func TestRetryRecoversPanickingBatch(t *testing.T) {
	var mu sync.Mutex
	panicked := false
	models := make([]*core.Model, 0, power.NumSubsystems)
	for i, sub := range power.Subsystems() {
		m := testModel(sub, 10+float64(i), 2)
		if sub == power.SubCPU {
			inner := m.Spec.Design
			m.Spec.Design = func(cols [][]float64, ms []core.Metrics) {
				mu.Lock()
				first := len(ms) > 1 && !panicked
				panicked = panicked || first
				mu.Unlock()
				if first {
					panic("injected design panic")
				}
				inner(cols, ms)
			}
		}
		models = append(models, m)
	}
	est, err := core.NewEstimator(models...)
	if err != nil {
		t.Fatalf("NewEstimator: %v", err)
	}
	s := newServer(t, Config{
		Estimator: est, Workers: 1, QueueDepth: 8,
		Retry: pool.Retry{Attempts: 3, BaseDelay: time.Millisecond, MaxDelay: 10 * time.Millisecond},
	})
	mgr, err := adapt.New(adaptManagerConfig(est))
	if err != nil {
		t.Fatal(err)
	}
	s.SetAdapter(mgr)
	samples := mkBatch(3, 1, 0)
	rails := make([]power.Reading, len(samples))
	for i := range samples {
		rails[i] = adaptRails(&samples[i], 0)
	}
	if err := s.Ingest("c", "n", samples, rails, tracez.Context{}); err != nil {
		t.Fatalf("Ingest: %v", err)
	}
	closeServer(t, s)
	if got := mgr.Status().Observations; got != uint64(len(samples)) {
		t.Errorf("adapter observed %d samples, want %d (once each across the retry)", got, len(samples))
	}

	st := s.Stats()
	if st.EstimatePanics == 0 {
		t.Error("no panic recorded")
	}
	if st.SamplesEstimated != 3 {
		t.Errorf("estimated %d, want 3 (retry succeeded)", st.SamplesEstimated)
	}
	if _, ok := s.NodePower("n"); !ok {
		t.Error("node missing after retried batch")
	}
}

func TestHTTPIngestRoundTrip(t *testing.T) {
	est := testEstimator(t)
	s := newServer(t, Config{Estimator: est, Workers: 2, QueueDepth: 16})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	batch := mkBatch(8, 2, 7)
	oracle := batch[len(batch)-1]
	wire, err := perfctr.EncodeBatchFull(nil, "web-node", batch, perfctr.TraceExt{}, nil)
	if err != nil {
		t.Fatalf("EncodeBatch: %v", err)
	}
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/ingest", bytes.NewReader(wire))
	req.Header.Set("X-Client-ID", "test-client")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("POST /ingest: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /ingest: status %d, want 202", resp.StatusCode)
	}

	// Wait for the batch to drain, then query every read endpoint.
	deadline := time.Now().Add(5 * time.Second)
	for s.Stats().SamplesEstimated < 8 {
		if time.Now().After(deadline) {
			t.Fatal("batch never estimated")
		}
		time.Sleep(time.Millisecond)
	}
	want := est.Estimate(&oracle).Total()

	body := httpGet(t, ts.URL+"/power?node=web-node", http.StatusOK)
	if !strings.Contains(body, `"node": "web-node"`) {
		t.Errorf("/power body missing node: %s", body)
	}
	if !strings.Contains(body, fmt.Sprintf("%.4f", want)[:4]) {
		t.Errorf("/power body %s missing total near %v", body, want)
	}
	httpGet(t, ts.URL+"/power?node=ghost", http.StatusNotFound)
	httpGet(t, ts.URL+"/power", http.StatusBadRequest)

	body = httpGet(t, ts.URL+"/fleet", http.StatusOK)
	if !strings.Contains(body, `"nodes": 1`) {
		t.Errorf("/fleet body: %s", body)
	}
	body = httpGet(t, ts.URL+"/statz", http.StatusOK)
	if !strings.Contains(body, `"samples_estimated"`) {
		t.Errorf("/statz body: %s", body)
	}
	httpGet(t, ts.URL+"/healthz", http.StatusOK)
	body = httpGet(t, ts.URL+"/metrics", http.StatusOK)
	if !strings.Contains(body, "serve_samples_ingested_total") {
		t.Errorf("/metrics missing serve series")
	}

	// Garbage on the wire is a 400, not a decode panic.
	resp, err = http.Post(ts.URL+"/ingest", "application/octet-stream",
		strings.NewReader("not a TDS1 frame"))
	if err != nil {
		t.Fatalf("POST garbage: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("garbage ingest: status %d, want 400", resp.StatusCode)
	}
}

func TestHTTP429CarriesRetryAfter(t *testing.T) {
	rel := make(chan struct{})
	s := newServer(t, Config{
		Estimator: testEstimator(t), Workers: 1, QueueDepth: 1,
		RetryAfter: 3 * time.Second,
	})
	s.SetFaultInjector(&blockingInjector{release: rel})
	defer close(rel)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	wire, err := perfctr.EncodeBatchFull(nil, "n", mkBatch(2, 1, 0), perfctr.TraceExt{}, nil)
	if err != nil {
		t.Fatalf("EncodeBatch: %v", err)
	}
	// Saturate: worker wedged + queue of 1 → at most 2 accepted before 429.
	var last *http.Response
	for i := 0; i < 4; i++ {
		resp, err := http.Post(ts.URL+"/ingest", "application/octet-stream", bytes.NewReader(wire))
		if err != nil {
			t.Fatalf("POST %d: %v", i, err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		last = resp
	}
	if last.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d after saturation, want 429", last.StatusCode)
	}
	if got := last.Header.Get("Retry-After"); got != "3" {
		t.Errorf("Retry-After = %q, want \"3\"", got)
	}
}

func httpGet(t *testing.T, url string, wantStatus int) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != wantStatus {
		t.Fatalf("GET %s: status %d, want %d (body %s)", url, resp.StatusCode, wantStatus, b)
	}
	return string(b)
}
