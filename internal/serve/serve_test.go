package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"trickledown/internal/adapt"
	"trickledown/internal/core"
	"trickledown/internal/perfctr"
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

// newUnstarted returns a server whose workers have not started: every
// batch it admits stays on the queue until the test calls Start. The
// test's cleanup closes it.
func newUnstarted(t *testing.T, cfg Config) *Server {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = s.Close(ctx)
	})
	return s
}

func newServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	s := newUnstarted(t, cfg)
	s.Start()
	return s
}

// parkWorkers holds s.nodesMu, so a started worker that has estimated a
// batch parks in s.node until release runs; the test's cleanup runs it
// too. Ingest never takes the lock. Stats, Fleet and NodePower do, so
// the test reads s.queue.depth() while workers are parked.
func parkWorkers(t *testing.T, s *Server) (release func()) {
	s.nodesMu.Lock()
	var once sync.Once
	release = func() { once.Do(s.nodesMu.Unlock) }
	t.Cleanup(release)
	return release
}

// waitFor yields until cond holds, failing the test after 10 s.
func waitFor(t testing.TB, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		runtime.Gosched()
	}
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
	s := newServer(t, Config{Estimator: testEstimator(t), Workers: 1, QueueDepth: 2})
	release := parkWorkers(t, s)

	// The first batch parks the single worker; wait until it leaves the
	// queue.
	if err := s.Ingest("c", "n", mkBatch(2, 1, 0), nil, tracez.Context{}); err != nil {
		t.Fatalf("Ingest 0: %v", err)
	}
	waitFor(t, "the worker to take the first batch", func() bool { return s.queue.depth() == 0 })
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
	if d := s.queue.depth(); d > 2 {
		t.Errorf("queue depth %d exceeds bound 2", d)
	}

	release()
	st := s.Stats()
	if st.SamplesShed != 3 {
		t.Errorf("SamplesShed = %d, want 3", st.SamplesShed)
	}
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
	s := newServer(t, Config{Estimator: testEstimator(t), Workers: 1})
	err := s.Ingest("c", "n", mkBatch(maxBatch+1, 1, 0), nil, tracez.Context{})
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
// forever for a parked worker.
func TestHardCancelAbandonsQueue(t *testing.T) {
	s := newServer(t, Config{Estimator: testEstimator(t), Workers: 1, QueueDepth: 8})
	release := parkWorkers(t, s)

	const batchN = 4
	for i := 0; i < 5; i++ {
		if err := s.Ingest("c", "n", mkBatch(batchN, 1, float64(i)), nil, tracez.Context{}); err != nil {
			t.Fatalf("Ingest %d: %v", i, err)
		}
	}
	// The worker parks on batch 0; the other four wait on the queue.
	waitFor(t, "the worker to take batch 0", func() bool { return s.queue.depth() == 4 })
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- s.Close(ctx) }()
	waitFor(t, "Close to stop intake", func() bool {
		s.queue.mu.RLock()
		defer s.queue.mu.RUnlock()
		return s.queue.closed
	})
	cancel() // hard cancel: abandon the queue
	// Un-park the worker only once Close has cancelled the workers: the
	// abandoned batches must not be drained.
	select {
	case <-s.ctx.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not cancel the workers after a hard cancel")
	}
	release()

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

// TestOverflowingModelFileQuarantined: a model file that LoadEstimator
// accepts, because every coefficient is finite, can still overflow an
// estimate to +Inf. The I/O model's interrupt coefficient here is 1e308,
// so a sample with interrupts overflows and one without stays finite.
// The worker counts each overflowing estimate in
// serve_nonfinite_estimates_total and never serves it: /power keeps the
// last finite reading, though an overflowing sample is newer.
func TestOverflowingModelFileQuarantined(t *testing.T) {
	hot := productionEstimator(t)
	hot.Model(power.SubIO).Coef[1] = 1e308
	var file bytes.Buffer
	if err := hot.Save(&file); err != nil {
		t.Fatal(err)
	}
	est, err := core.LoadEstimator(&file)
	if err != nil {
		t.Fatalf("LoadEstimator rejected finite coefficients: %v", err)
	}
	samples := mkBatch(6, 2, 0)
	overflow := []int{2, 4, 5}
	for _, i := range overflow {
		samples[i].Ints = [][]uint64{{5e9, 5e9}}
	}
	oracle := append([]perfctr.Sample(nil), samples...)
	for _, i := range overflow {
		if r := est.Estimate(&oracle[i]); !math.IsInf(r[power.SubIO], 1) {
			t.Fatalf("sample %d estimates %v, want an I/O rail of +Inf", i, r)
		}
	}
	want := est.Estimate(&oracle[3])
	if want.NonFinite() >= 0 {
		t.Fatalf("sample 3 estimates %v, want finite", want)
	}

	before := mNonFinite.Value()
	s := newServer(t, Config{Estimator: est, Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	if err := s.Ingest("c", "n", samples, nil, tracez.Context{}); err != nil {
		t.Fatal(err)
	}
	waitEstimated(t, s, uint64(len(samples)))
	if got := mNonFinite.Value() - before; got != uint64(len(overflow)) {
		t.Errorf("serve_nonfinite_estimates_total rose by %d, want %d", got, len(overflow))
	}
	var np NodePower
	if err := json.Unmarshal([]byte(httpGet(t, ts.URL+"/power?node=n", 200)), &np); err != nil {
		t.Fatal(err)
	}
	if np.Samples != uint64(len(samples)) || np.NonFinite != uint64(len(overflow)) {
		t.Errorf("samples=%d nonfinite=%d, want %d/%d", np.Samples, np.NonFinite, len(samples), len(overflow))
	}
	assertPowerBits(t, np, want)
}

// TestPanickingBatchContained: a model whose Design panics on one
// batch's estimate takes down neither the worker nor the node's view.
// The panic is recovered and counted, the batch is dropped, and the
// worker estimates the next batch. The panicking batch carries rails,
// and the adapter, whose single-sample estimates run before the
// batch's and never panic, observes each of its samples once.
func TestPanickingBatchContained(t *testing.T) {
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
	s := newServer(t, Config{Estimator: est, Workers: 1, QueueDepth: 8})
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
	if err := s.Ingest("c", "n", mkBatch(4, 1, 0), nil, tracez.Context{}); err != nil {
		t.Fatalf("Ingest after the panicking batch: %v", err)
	}
	closeServer(t, s)
	if got := mgr.Status().Observations; got != uint64(len(samples)) {
		t.Errorf("adapter observed %d samples, want %d", got, len(samples))
	}

	st := s.Stats()
	if st.EstimatePanics != 1 {
		t.Errorf("estimate panics = %d, want 1", st.EstimatePanics)
	}
	if st.SamplesEstimated != 4 {
		t.Errorf("estimated %d, want 4 (the panicking batch dropped, the next served)", st.SamplesEstimated)
	}
	if np, ok := s.NodePower("n"); !ok || np.Samples != 4 {
		t.Errorf("node view after the panicking batch: %+v, ok=%v; want 4 samples", np, ok)
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
	waitEstimated(t, s, 8)
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
	// Nothing drains the unstarted server's queue of 1.
	s := newUnstarted(t, Config{
		Estimator: testEstimator(t), Workers: 1, QueueDepth: 1,
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	wire, err := perfctr.EncodeBatchFull(nil, "n", mkBatch(2, 1, 0), perfctr.TraceExt{}, nil)
	if err != nil {
		t.Fatalf("EncodeBatch: %v", err)
	}
	// Saturate: the first batch fills the queue, the rest get 429.
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
	if got := last.Header.Get("Retry-After"); got != "1" {
		t.Errorf("Retry-After = %q, want \"1\"", got)
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

// TestStatsReportsResolvedWorkers: /statz reports the pool the server
// runs, GOMAXPROCS for a zero Config.Workers, not the configured zero.
func TestStatsReportsResolvedWorkers(t *testing.T) {
	for _, tc := range []struct{ cfg, want int }{
		{0, runtime.GOMAXPROCS(0)},
		{3, 3},
	} {
		s, err := New(Config{Estimator: testEstimator(t), Workers: tc.cfg})
		if err != nil {
			t.Fatal(err)
		}
		if got := s.Stats().Workers; got != tc.want {
			t.Errorf("Config.Workers %d: Stats().Workers = %d, want %d", tc.cfg, got, tc.want)
		}
		closeServer(t, s)
	}
}

// productionEstimator is the paper's five production specs with fixed
// coefficients, so the served extraction is the trimmed one.
func productionEstimator(t testing.TB) *core.Estimator {
	t.Helper()
	var models []*core.Model
	for i, spec := range core.ProductionSpecs() {
		coef := make([]float64, len(spec.Terms))
		for j := range coef {
			coef[j] = float64(i+1) + 0.25*float64(j)
		}
		models = append(models, &core.Model{Spec: spec, Coef: coef})
	}
	est, err := core.NewEstimator(models...)
	if err != nil {
		t.Fatal(err)
	}
	return est
}

// TestQuarantineAcrossChunkBoundaries: in a 600-sample batch, three
// 256-sample chunks, the estimates of samples 0, 255, 256 and 599 are
// +Inf. Exactly those four are quarantined, and the node reads sample
// 598's estimate, the last finite one.
func TestQuarantineAcrossChunkBoundaries(t *testing.T) {
	// The CPU rail is 1/Σ uops-per-cycle: +Inf on a sample that fetched
	// nothing.
	inv := &core.Model{
		Spec: core.ModelSpec{
			Name: "test-inverse-upc",
			Sub:  power.SubCPU,
			Design: func(cols [][]float64, ms []core.Metrics) {
				for j := range ms {
					var upc float64
					for _, v := range ms[j].UopsPerCycle {
						upc += v
					}
					cols[0][j], cols[1][j] = 1, 1/upc
				}
			},
			Terms: []string{"const", "inv_upc"},
		},
		Coef: []float64{10, 1},
	}
	est := productionEstimator(t)
	est, err := core.NewEstimator(inv, est.Model(power.SubChipset), est.Model(power.SubMemory),
		est.Model(power.SubIO), est.Model(power.SubDisk))
	if err != nil {
		t.Fatal(err)
	}
	const n = 600
	samples := mkBatch(n, 2, 0)
	bad := []int{0, core.BatchSize - 1, core.BatchSize, n - 1}
	for _, i := range bad {
		for c := range samples[i].CPUs {
			samples[i].CPUs[c].FetchedUops = 0
		}
	}
	oracle := append([]perfctr.Sample(nil), samples...)
	for _, i := range bad {
		if r := est.Estimate(&oracle[i]); r.NonFinite() != power.SubCPU {
			t.Fatalf("sample %d estimates %v, want a non-finite CPU rail", i, r)
		}
	}
	want := est.Estimate(&oracle[n-2])
	if want.NonFinite() >= 0 {
		t.Fatalf("sample %d estimates %v, want finite", n-2, want)
	}

	before := mNonFinite.Value()
	s := newServer(t, Config{Estimator: est, Workers: 1})
	if err := s.Ingest("c", "n", samples, nil, tracez.Context{}); err != nil {
		t.Fatal(err)
	}
	closeServer(t, s)
	if got := mNonFinite.Value() - before; got != uint64(len(bad)) {
		t.Errorf("serve_nonfinite_estimates_total rose by %d, want %d", got, len(bad))
	}
	np, _ := s.NodePower("n")
	if np.Samples != n || np.NonFinite != uint64(len(bad)) || s.Stats().NonFinite != uint64(len(bad)) {
		t.Errorf("samples=%d nonfinite=%d stats=%d, want %d/%d", np.Samples, np.NonFinite,
			s.Stats().NonFinite, n, len(bad))
	}
	if np.LastTargetSeconds != oracle[n-1].TargetSeconds {
		t.Errorf("last target seconds %v, want the batch's newest %v", np.LastTargetSeconds, oracle[n-1].TargetSeconds)
	}
	assertPowerBits(t, np, want)
}

// TestFiniteBatchMatchesPerSample: on an all-finite batch of several
// chunks, through the production models with interrupt rows, the node
// reading is, bit for bit, the reading a per-sample walk of Estimate
// leaves as the last good one.
func TestFiniteBatchMatchesPerSample(t *testing.T) {
	est := productionEstimator(t)
	const n = 2*core.BatchSize + 37
	samples := mkBatch(n, 2, 50)
	for i := range samples {
		if i%3 == 0 {
			samples[i].Ints = [][]uint64{{uint64(1000 + i), 250}, {40, uint64(7 * i)}, {uint64(3 * i), 9}}
		}
	}
	oracle := append([]perfctr.Sample(nil), samples...)
	var want power.Reading
	for i := range oracle {
		if r := est.Estimate(&oracle[i]); r.NonFinite() < 0 {
			want = r
		} else {
			t.Fatalf("sample %d estimates %v", i, r)
		}
	}
	s := newServer(t, Config{Estimator: est, Workers: 1})
	if err := s.Ingest("c", "n", samples, nil, tracez.Context{}); err != nil {
		t.Fatal(err)
	}
	closeServer(t, s)
	np, _ := s.NodePower("n")
	if np.Samples != n || np.NonFinite != 0 {
		t.Fatalf("samples=%d nonfinite=%d, want %d/0", np.Samples, np.NonFinite, n)
	}
	assertPowerBits(t, np, want)
}

// assertPowerBits checks a node's served rails and total against want,
// bit for bit.
func assertPowerBits(t *testing.T, np NodePower, want power.Reading) {
	t.Helper()
	for _, sub := range power.Subsystems() {
		if got := np.Power[sub.String()]; math.Float64bits(got) != math.Float64bits(want[sub]) {
			t.Errorf("%s = %v, want %v", sub, got, want[sub])
		}
	}
	if got := np.Power["Total"]; math.Float64bits(got) != math.Float64bits(want.Total()) {
		t.Errorf("Total = %v, want %v", got, want.Total())
	}
}

// BenchmarkProcessBatch is a worker's path for one 256-sample batch
// without rails, the shape tdserve serves: extraction through the
// production estimator, the chunk estimate and the chunk finite check.
// The sampled case also builds and files the batch's trace and feeds
// the latency histograms their exemplars, as for every batch a producer
// samples.
func BenchmarkProcessBatch(b *testing.B) {
	for _, sampled := range []bool{false, true} {
		name := "unsampled"
		if sampled {
			name = "sampled"
		}
		b.Run(name, func(b *testing.B) {
			s, err := New(Config{Estimator: productionEstimator(b)})
			if err != nil {
				b.Fatal(err)
			}
			samples := mkBatch(core.BatchSize, 2, 0)
			sc := new(workerScratch)
			tc := tracez.Context{ID: tracez.NewTraceID(), Sampled: sampled}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// A batch that arrived just now: one at the zero time would
				// be a slow-trace outlier, and the unsampled case would time
				// its trace.
				now := time.Now()
				s.process(&batch{node: "n", client: "c", samples: samples, arrived: now, admitted: now, queued: now, tc: tc}, sc, 0)
			}
		})
	}
}

// TestAllFinite: the chunk check fails on a NaN or ±Inf in any rail of
// any reading, and passes on finite extremes and signed zeros.
func TestAllFinite(t *testing.T) {
	rs := make([]power.Reading, 3)
	for j := range rs {
		rs[j] = power.Reading{math.MaxFloat64, -math.MaxFloat64, math.Copysign(0, -1), 0, 1.5e308}
	}
	if !allFinite(rs) || !allFinite(nil) {
		t.Fatal("finite readings fail the check")
	}
	for j := range rs {
		for k := 0; k < power.NumSubsystems; k++ {
			for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
				old := rs[j][k]
				rs[j][k] = v
				if allFinite(rs) {
					t.Errorf("reading %d rail %s = %v passes the check", j, power.Subsystem(k), v)
				}
				rs[j][k] = old
			}
		}
	}
}
