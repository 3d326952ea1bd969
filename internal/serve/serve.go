// Package serve is the live counterpart of the batch pipeline: a
// long-running power-estimation service that ingests batches of
// perfctr.Sample counter records per node over the wire, runs the five
// trained subsystem estimators online, and serves per-node and
// fleet-aggregate power under an explicit latency budget.
//
// The spine is a bounded ingest queue with honest backpressure: a full
// queue is an immediate 429 + Retry-After to the producer, never
// unbounded memory growth. Admission is guarded by per-client token
// buckets (denominated in samples, the resource that saturates the
// estimation workers), estimation runs on batched workers driven
// through internal/pool, and every batch carries the request-journey
// span taxonomy — ARRIVED → QUEUED → SCHEDULED → DEPARTED — so queue
// wait is a first-class measured interval in the latency histograms,
// not a blind spot inside an end-to-end number.
//
// Overload degrades gracefully instead of lying: shed samples are
// counted by reason, the fleet aggregate flags itself degraded while
// shedding or while nodes go stale, and non-finite estimates (glitched
// counters, poisoned models) are quarantined into a counter while the
// node keeps reporting its last good reading. Counter faults reach the
// service only in the samples a producer sends; the overload and
// corruption drills perturb theirs with internal/faults before sending.
package serve

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"trickledown/internal/adapt"
	"trickledown/internal/core"
	"trickledown/internal/pool"
	"trickledown/internal/power"
	"trickledown/internal/telemetry"
	"trickledown/internal/tracez"
)

// latencyBuckets resolve the service's operating range: ingest-to-
// estimate is expected in the 10 µs – 10 ms band, with the tail buckets
// catching overload (where queue wait dominates).
var latencyBuckets = []float64{
	1e-5, 5e-5, 1e-4, 5e-4, 1e-3, 5e-3, 0.01, 0.05, 0.1, 0.5, 1, 5,
}

// Serve telemetry is process-wide like every other package's: one
// service picture regardless of how many Server values exist (tests
// assert on per-server Stats instead).
var (
	mSamplesIngested = telemetry.NewCounter("serve_samples_ingested_total",
		"counter samples admitted into the ingest queue")
	mSamplesEstimated = telemetry.NewCounter("serve_samples_estimated_total",
		"samples run through the subsystem estimators")
	mSamplesShed = telemetry.NewCounterVec("serve_samples_shed_total",
		"samples rejected at admission, by reason", "reason")
	mBatches = telemetry.NewCounter("serve_batches_processed_total",
		"ingest batches fully estimated")
	mQueueDepth = telemetry.NewGauge("serve_queue_depth",
		"ingest batches waiting for an estimation worker")
	mNodesTracked = telemetry.NewGauge("serve_nodes_tracked",
		"distinct nodes with live power state")
	mNonFinite = telemetry.NewCounter("serve_nonfinite_estimates_total",
		"per-sample estimates dropped because a rail came back NaN/Inf")
	mShedding = telemetry.NewGauge("serve_shedding",
		"1 while admission control is actively shedding (queue recently full)")
	mEstimatePanics = telemetry.NewCounter("serve_estimate_panics_total",
		"estimation batch panics recovered (the batch is dropped)")
	mDecode = telemetry.NewHistogram("serve_decode_seconds",
		"ARRIVED to DECODED: body read and decode of an /ingest batch", latencyBuckets)
	mAdmission = telemetry.NewHistogram("serve_admission_seconds",
		"ARRIVED to QUEUED: body read, decode, rate limit and queue admission of a batch", latencyBuckets)
	mQueueWait = telemetry.NewHistogram("serve_queue_wait_seconds",
		"QUEUED to SCHEDULED: batch wait for an estimation worker", latencyBuckets)
	mService = telemetry.NewHistogram("serve_service_seconds",
		"SCHEDULED to DEPARTED: batched estimation time", latencyBuckets)
	mE2E = telemetry.NewHistogram("serve_e2e_seconds",
		"ARRIVED to DEPARTED: end-to-end ingest-to-estimate latency", latencyBuckets)
)

// Admission errors, surfaced by admit and mapped to HTTP statuses by
// the handler (429/429/503/413 respectively).
var (
	ErrQueueFull     = errors.New("serve: ingest queue full")
	ErrRateLimited   = errors.New("serve: client rate limited")
	ErrClosed        = errors.New("serve: server closed")
	ErrBatchTooLarge = errors.New("serve: batch exceeds sample limit")
)

// shedHold is how long after a queue-full rejection the server reports
// itself as actively shedding: long enough for scrapers at 1 Hz to see
// the state, short enough to clear promptly once producers back off.
const shedHold = 2 * time.Second

// staleAfter is the wall-clock age past which a node's last reading is
// excluded from the fleet aggregate and counted stale.
const staleAfter = 15 * time.Second

// maxBatch caps samples per ingest request; larger requests are
// rejected whole with ErrBatchTooLarge.
const maxBatch = 8192

// Config configures a Server. The zero value of every field except
// Estimator is usable; defaults are documented per field.
type Config struct {
	// Estimator is the trained five-subsystem power estimator. Required.
	Estimator *core.Estimator
	// QueueDepth bounds the ingest queue in batches (default 256). The
	// bound times the mean batch size is the server's overload buffer.
	QueueDepth int
	// Workers is the number of estimation workers (default GOMAXPROCS).
	Workers int
	// RatePerClient is the per-client admission rate in samples/sec;
	// non-positive disables per-client limiting.
	RatePerClient float64
	// Burst is the token-bucket capacity (default max(RatePerClient,
	// 4*8192) so one full 8192-sample batch is always admissible from
	// idle).
	Burst float64
	// TraceSampleRate is the head-based trace sampling probability in
	// [0,1] applied to batches whose producer did not already carry a
	// trace context (default 0: anomalies only).
	TraceSampleRate float64
	// SlowTrace promotes a batch whose end-to-end latency exceeds it to
	// an always-kept anomaly trace (default 50ms; negative disables).
	SlowTrace time.Duration
	// DiagDir, when non-empty, enables the flight recorder's diagnostics
	// bundles: entering shedding or quarantining the first non-finite
	// estimate dumps a tddiag_* bundle under this directory.
	DiagDir string
}

// withDefaults fills unset fields.
func (c Config) withDefaults() Config {
	if c.QueueDepth <= 0 {
		c.QueueDepth = 256
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.Burst <= 0 {
		c.Burst = c.RatePerClient
		if min := 4 * float64(maxBatch); c.Burst < min {
			c.Burst = min
		}
	}
	if c.SlowTrace == 0 {
		c.SlowTrace = 50 * time.Millisecond
	}
	if c.SlowTrace < 0 {
		c.SlowTrace = 0
	}
	return c
}

// nodeState is one node's live power view, updated by estimation
// workers and read by query handlers.
type nodeState struct {
	mu        sync.Mutex
	samples   uint64
	nonfinite uint64
	lastT     float64       // target clock of the newest estimated sample
	lastWall  time.Time     // wall clock of the newest estimate
	last      power.Reading // last good (finite) per-rail estimate
	hasGood   bool
}

// apply folds one processed batch into the node state.
func (n *nodeState) apply(wall time.Time, count, bad uint64, lastT float64, last power.Reading, hasGood bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.samples += count
	n.nonfinite += bad
	if count > bad && lastT >= n.lastT {
		n.lastT = lastT
		if hasGood {
			n.last = last
			n.hasGood = true
		}
	}
	n.lastWall = wall
}

// Server is the live estimation service. Create with New, start with
// Start, stop with Close. All methods are safe for concurrent use.
type Server struct {
	cfg Config
	// est is the serving estimator behind an atomic pointer: model
	// hot-swap is a single store, in-flight batches finish on whichever
	// model they loaded, and no estimate ever sees a torn model.
	est     atomic.Pointer[core.Estimator]
	adapter atomic.Pointer[adapt.Manager]
	queue   *ingestQueue
	limiter *rateLimiter
	p       *pool.Pool

	nodesMu sync.RWMutex
	nodes   map[string]*nodeState

	ctx         context.Context
	cancel      context.CancelFunc
	workersDone chan struct{}
	started     atomic.Bool
	shedUntil   atomic.Int64 // unix nanos; shedding active while now < shedUntil

	// Tracing: the per-server recorder behind /debug/tracez, the
	// process-wide flight recorder, and the (optional) bundler that turns
	// degradation transitions into on-disk diagnostics bundles.
	rec        *tracez.Recorder
	flight     *tracez.FlightRecorder
	bundler    *tracez.Bundler
	shedActive atomic.Bool  // edge detector for shedding transitions
	quarActive atomic.Bool  // edge detector for the first quarantine
	lastBundle atomic.Value // string: newest diagnostics bundle dir

	// Per-server counters mirror the process-wide telemetry so tests
	// and multi-server processes get isolated numbers.
	ingested  atomic.Uint64
	estimated atomic.Uint64
	shed      atomic.Uint64
	nonfinite atomic.Uint64
	panics    atomic.Uint64
}

// New validates cfg and returns an unstarted server.
func New(cfg Config) (*Server, error) {
	if cfg.Estimator == nil {
		return nil, fmt.Errorf("serve: Config.Estimator is required")
	}
	cfg = cfg.withDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg: cfg,
		rec: tracez.NewRecorder(tracez.Config{
			SampleRate:    cfg.TraceSampleRate,
			SlowThreshold: cfg.SlowTrace,
		}),
		flight:      tracez.Flight(),
		queue:       newIngestQueue(cfg.QueueDepth),
		limiter:     newRateLimiter(cfg.RatePerClient, cfg.Burst),
		p:           pool.New(cfg.Workers),
		nodes:       make(map[string]*nodeState),
		ctx:         ctx,
		cancel:      cancel,
		workersDone: make(chan struct{}),
	}
	s.est.Store(cfg.Estimator)
	if cfg.DiagDir != "" {
		s.bundler = tracez.NewBundler(cfg.DiagDir, s.rec, s.flight)
	}
	return s, nil
}

// SetAdapter installs the self-healing manager. Batches carrying
// measured rails (the TDP1 wire extension) are estimated by the
// manager's champion as they feed its drift detection; every swap or
// rollback it decides flips the serving estimator of rail-less batches
// with one pointer store (a batch already mid-estimation finishes on
// the model it loaded) and triggers a diagnostics bundle. Pass nil to
// detach (the current estimator keeps serving, frozen).
func (s *Server) SetAdapter(m *adapt.Manager) {
	s.adapter.Store(m)
	if m == nil {
		return
	}
	m.Subscribe(func(ev adapt.Event) {
		s.est.Store(ev.Estimator)
		s.triggerBundle("model-" + ev.Kind)
	})
	// Align the serving model with the manager's current champion so
	// /statz and /driftz agree from the first request.
	s.est.Store(m.Champion())
}

// DumpDiagnostics synchronously writes a diagnostics bundle (tracez
// snapshot, flight ring, metrics, goroutines) and returns its
// directory. It works regardless of DiagDir rate limiting — the SIGQUIT
// path wants a bundle now, not "one recently".
func (s *Server) DumpDiagnostics(dir, reason string) (string, error) {
	if dir == "" {
		dir = s.cfg.DiagDir
	}
	if dir == "" {
		return "", fmt.Errorf("serve: no diagnostics directory configured")
	}
	bundle, err := tracez.DumpBundle(dir, reason, s.rec, s.flight)
	if err == nil {
		s.lastBundle.Store(bundle)
	}
	return bundle, err
}

// LastDiagBundle returns the newest diagnostics bundle directory, or "".
func (s *Server) LastDiagBundle() string {
	v, _ := s.lastBundle.Load().(string)
	return v
}

// triggerBundle asks the bundler for a rate-limited bundle off the hot
// path; transitions fire from admission and worker goroutines that must
// not block on disk I/O.
func (s *Server) triggerBundle(reason string) {
	if s.bundler == nil {
		return
	}
	go func() {
		if dir, err := s.bundler.Trigger(reason); err == nil && dir != "" {
			s.lastBundle.Store(dir)
		}
	}()
}

// Start launches the estimation workers. It must be called exactly once.
func (s *Server) Start() {
	if !s.started.CompareAndSwap(false, true) {
		panic("serve: Server started twice")
	}
	go func() {
		defer close(s.workersDone)
		// The pool is sized to Workers, so every loop is dispatched
		// immediately and holds its slot for the server's lifetime; pool
		// telemetry and panic containment come along for free.
		_ = s.p.Run(s.ctx, s.cfg.Workers, func(ctx context.Context, i int) error {
			s.workerLoop(ctx, i)
			return nil
		})
	}()
}

// Close stops intake, lets the workers drain everything already queued,
// and waits for them to exit. ctx bounds the drain: if it fires first,
// the remaining queue is abandoned (hard cancel) and ctx.Err returned.
func (s *Server) Close(ctx context.Context) error {
	s.queue.close()
	if !s.started.Load() {
		s.cancel()
		return nil
	}
	select {
	case <-s.workersDone:
		s.cancel()
		return nil
	case <-ctx.Done():
		s.cancel()
		<-s.workersDone
		return ctx.Err()
	}
}

// admit admits a batch of one node's samples on behalf of client. It
// returns nil when the batch is queued (ARRIVED→QUEUED), or one of
// ErrBatchTooLarge, ErrRateLimited, ErrQueueFull, ErrClosed. The
// batch's samples and rails are owned by the server after a nil return.
//
// b.rails, the measured per-sample power of the TDP1 wire extension, is
// nil or exactly one Reading per sample; with an adapter installed they
// become drift-detection ground truth, without one they are ignored.
// b.tc is the producer's trace context, so client and server views of
// one batch share an identity; a zero tc gets a server-minted one.
// Rejections (shed, rate-limit) are recorded as always-kept anomaly
// traces even when tc is unsampled.
//
// b may carry the decoder its storage was carved from (the /ingest
// path). When b is not queued its decoder goes back to the pool at
// once; when it is, the worker that estimates it returns the decoder.
func (s *Server) admit(client string, b *batch) error {
	if len(b.samples) == 0 {
		putDecoder(b.dec)
		return nil
	}
	if b.tc.ID.IsZero() {
		b.tc = s.rec.Mint()
	}
	b.client = client
	err := s.enqueue(b)
	if err != nil {
		putDecoder(b.dec)
	}
	return err
}

// enqueue is admit's decision for a non-empty batch: ARRIVED→QUEUED or a
// rejection. ARRIVED is b.arrived when the caller stamped it (the
// /ingest handler, before reading the body) and now otherwise. Once b is
// on the queue a worker owns it and its decoder's storage.
func (s *Server) enqueue(b *batch) error {
	if b.rails != nil && len(b.rails) != len(b.samples) {
		return fmt.Errorf("serve: %d rails for %d samples", len(b.rails), len(b.samples))
	}
	// The rate limiter reads the clock here, not at ARRIVED: it refills
	// from its last call's time, so an earlier stamp would refill the
	// same interval twice. The same reading is ADMITTED.
	now := time.Now()
	if b.arrived.IsZero() {
		b.arrived = now
	}
	n := uint64(len(b.samples))
	if len(b.samples) > maxBatch {
		s.shedBatch(b, "batch_too_large", now)
		return fmt.Errorf("%w: %d > %d", ErrBatchTooLarge, len(b.samples), maxBatch)
	}
	if !s.limiter.allow(b.client, float64(n), now) {
		s.shedBatch(b, "rate_limited", now)
		return ErrRateLimited
	}
	// Stamp QUEUED and the backlog ahead before the channel send: the
	// moment the batch is on the queue a worker owns it, so nothing may
	// write it here afterwards.
	arrived, queued := b.arrived, time.Now()
	b.admitted, b.queued, b.depth = now, queued, s.queue.depth()
	if err := s.queue.tryEnqueue(b); err != nil {
		if errors.Is(err, errQueueClosed) {
			s.shedN("closed", n)
			return ErrClosed
		}
		s.markShedding()
		s.shedBatch(b, "queue_full", queued)
		return ErrQueueFull
	}
	mQueueDepth.Set(float64(s.queue.depth()))
	mAdmission.Observe(queued.Sub(arrived).Seconds())
	mSamplesIngested.Add(n)
	s.ingested.Add(n)
	return nil
}

// shedBatch counts b's samples as rejected for reason and files its
// always-kept trace, which ends at the rejection.
func (s *Server) shedBatch(b *batch, reason string, at time.Time) {
	s.shedN(reason, uint64(len(b.samples)))
	b.departed = at
	s.fileTrace(b, reason)
}

// shedN counts rejected samples under a reason label.
func (s *Server) shedN(reason string, n uint64) {
	mSamplesShed.With(reason).Add(n)
	s.shed.Add(n)
}

// markShedding opens (or extends) the shedding window. The transition
// into shedding (not every rejection) lands in the flight recorder and,
// when a DiagDir is configured, triggers a diagnostics bundle — the
// moment the service starts refusing work is exactly when an operator
// wants the queue depths and traces that led up to it.
func (s *Server) markShedding() {
	s.shedUntil.Store(time.Now().Add(shedHold).UnixNano())
	mShedding.Set(1)
	if s.shedActive.CompareAndSwap(false, true) {
		s.flight.Note("shedding", "queue full; admission shedding", int64(s.queue.depth()))
		s.triggerBundle("shedding")
	}
}

// SheddingActive reports whether the server rejected work for queue-full
// within the last shedHold.
func (s *Server) SheddingActive() bool {
	active := time.Now().UnixNano() < s.shedUntil.Load()
	if !active {
		mShedding.Set(0)
		if s.shedActive.CompareAndSwap(true, false) {
			s.flight.Note("shedding", "shedding cleared", 0)
		}
	}
	return active
}

// workerLoop drains the queue until it closes (graceful Close) or ctx
// fires (hard cancel, abandoning queued batches).
func (s *Server) workerLoop(ctx context.Context, worker int) {
	scratch := new(workerScratch)
	for {
		// Priority check: when a hard cancel and queued work are both
		// ready, select picks randomly — a cancelled worker must not
		// keep draining.
		if ctx.Err() != nil {
			return
		}
		select {
		case <-ctx.Done():
			return
		case b, ok := <-s.queue.ch:
			if !ok {
				return
			}
			mQueueDepth.Set(float64(s.queue.depth()))
			s.runBatch(b, scratch, worker)
			putDecoder(b.dec)
		}
	}
}

// runBatch estimates one batch with panic containment: a panicking
// estimate (poisoned model, hostile sample) is recovered, counted and
// the batch dropped, never the worker.
func (s *Server) runBatch(b *batch, scratch *workerScratch, worker int) {
	defer func() {
		if v := recover(); v != nil {
			mEstimatePanics.Inc()
			s.panics.Add(1)
		}
	}()
	s.process(b, scratch, worker)
}

// process runs the batch through the estimators (SCHEDULED→DEPARTED)
// and folds the result into node state. The batch is estimated
// chunkSize samples at a time: a chunk carrying rails under an adapter
// by the adapter's Observe, which estimates it once with the champion
// as it feeds drift detection (a swap or rollback decided there serves
// the rest of the chunk), and any other chunk by EstimateSamples, which
// runs the production models straight from the counts, without
// extracting metrics. One finite test covers a chunk; only a chunk
// that fails it is walked sample by sample, and its non-finite
// estimates are quarantined into counters. The node keeps its last good
// reading so the fleet aggregate never turns NaN.
//
// Sampled batches feed the latency histograms through the exemplar
// path so /metrics buckets link back to /debug/tracez. A trace is built
// only for a batch that is kept (sampled, quarantined or Slow), after
// the fact and from the timestamps it carries, so an unsampled batch
// allocates nothing here.
func (s *Server) process(b *batch, sc *workerScratch, worker int) {
	b.scheduled, b.worker = time.Now(), worker
	est, adapter := s.est.Load(), s.adapter.Load()
	var (
		bad     uint64
		lastT   float64
		lastR   power.Reading
		hasGood bool
	)
	for lo := 0; lo < len(b.samples); lo += chunkSize {
		hi := min(lo+chunkSize, len(b.samples))
		chunk := b.samples[lo:hi]
		out := sc.out[:len(chunk)]
		for j := range chunk {
			if t := chunk[j].TargetSeconds; t > lastT {
				lastT = t
			}
		}
		if adapter != nil && b.rails != nil {
			adapter.Observe(out, chunk, b.rails[lo:hi])
		} else {
			est.EstimateSamples(out, chunk)
		}
		if allFinite(out) {
			lastR, hasGood = out[len(out)-1], true
			continue
		}
		for j := range out {
			if out[j].NonFinite() < 0 {
				lastR = out[j]
				hasGood = true
			} else {
				bad++
				mNonFinite.Inc()
				s.nonfinite.Add(1)
			}
		}
	}
	b.departed, b.bad = time.Now(), bad
	s.node(b.node).apply(b.departed, uint64(len(b.samples)), bad, lastT, lastR, hasGood)
	mSamplesEstimated.Add(uint64(len(b.samples)))
	s.estimated.Add(uint64(len(b.samples)))
	mBatches.Inc()
	queueWait := b.scheduled.Sub(b.queued).Seconds()
	service := b.departed.Sub(b.scheduled).Seconds()
	e2e := b.departed.Sub(b.arrived)
	if b.tc.Sampled {
		// One ID rendering per sampled batch; the exemplar ties the
		// histogram bucket each latency lands in back to its trace.
		id := b.tc.ID.String()
		mQueueWait.ObserveExemplar(queueWait, id)
		mService.ObserveExemplar(service, id)
		mE2E.ObserveExemplar(e2e.Seconds(), id)
	} else {
		mQueueWait.Observe(queueWait)
		mService.Observe(service)
		mE2E.Observe(e2e.Seconds())
	}
	if b.tc.Sampled || bad > 0 || s.rec.Slow(e2e) {
		s.fileTrace(b, "")
	}
	if bad > 0 && s.quarActive.CompareAndSwap(false, true) {
		s.flight.NoteTrace("quarantine", "first non-finite estimate quarantined", int64(bad), b.tc.ID)
		s.triggerBundle("quarantine")
	}
}

// allFinite reports whether every rail of rs is finite, with one test
// for the whole chunk: v*0 is ±0 for a finite v and NaN for NaN or ±Inf,
// so the sum over every rail is zero exactly when all are finite. One
// named accumulator per rail keeps the adds independent and in
// registers.
func allFinite(rs []power.Reading) bool {
	var cpu, chipset, mem, io, disk float64
	for j := range rs {
		r := &rs[j]
		cpu += r[power.SubCPU] * 0
		chipset += r[power.SubChipset] * 0
		mem += r[power.SubMemory] * 0
		io += r[power.SubIO] * 0
		disk += r[power.SubDisk] * 0
	}
	return cpu+chipset+mem+io+disk == 0
}

// fileTrace builds b's trace from the timestamps it carries and files
// it: the one builder of every serve trace. A batch the workers
// estimated (sampled, quarantined or slow) gets the whole journey, with
// QUARANTINE in ESTIMATED's place when some estimates were not finite.
// A batch admission turned away (shed names the reason) keeps what it
// passed, DECODED on /ingest, and ends in SHED.
func (s *Server) fileTrace(b *batch, shed string) {
	n := int64(len(b.samples))
	t := s.rec.StartAt(b.tc.ID, b.node, b.client, b.arrived)
	if !b.decoded.IsZero() {
		t.AddAt(tracez.EvDecoded, b.decoded, n, "")
	}
	if shed != "" {
		t.Outcome = "shed:" + shed
		t.AddAt(tracez.EvShed, b.departed, n, t.Outcome)
	} else {
		t.AddAt(tracez.EvAdmitted, b.admitted, n, "")
		t.AddAt(tracez.EvEnqueued, b.queued, int64(b.depth), "")
		t.AddAt(tracez.EvScheduled, b.scheduled, int64(b.worker), "")
		if b.bad > 0 {
			t.AddAt(tracez.EvQuarantine, b.departed, int64(b.bad), "nonfinite estimate")
			t.Outcome = "quarantine"
		} else {
			t.AddAt(tracez.EvEstimated, b.departed, 0, "")
		}
		t.AddAt(tracez.EvDeparted, b.departed, n, "")
	}
	t.End = b.departed
	s.rec.Finish(t)
}

// chunkSize is how many samples a worker estimates at once, so its
// scratch stays bounded at any request size.
const chunkSize = 256

// workerScratch is one estimation worker's reusable storage: a chunk's
// readings. It is sized by chunkSize, not by the batch, so it stays
// bounded at any batch size.
type workerScratch struct {
	out [chunkSize]power.Reading
}

// modelVersion renders an estimator's provenance version.
func modelVersion(e *core.Estimator) string {
	if p := e.Provenance(); p != nil && p.Version != "" {
		return p.Version
	}
	return "unversioned"
}

// node returns (creating on first sight) the state for a node name.
func (s *Server) node(name string) *nodeState {
	s.nodesMu.RLock()
	st, ok := s.nodes[name]
	s.nodesMu.RUnlock()
	if ok {
		return st
	}
	s.nodesMu.Lock()
	defer s.nodesMu.Unlock()
	if st, ok = s.nodes[name]; ok {
		return st
	}
	st = &nodeState{}
	s.nodes[name] = st
	mNodesTracked.Set(float64(len(s.nodes)))
	return st
}

// NodePower is one node's live power view.
type NodePower struct {
	Node string `json:"node"`
	// Samples is how many of the node's samples reached the estimators;
	// NonFinite of those produced a NaN/Inf rail and were quarantined.
	Samples   uint64 `json:"samples"`
	NonFinite uint64 `json:"nonfinite,omitempty"`
	// LastTargetSeconds is the target-clock timestamp of the newest
	// estimated sample; AgeSeconds its wall-clock staleness.
	LastTargetSeconds float64 `json:"last_target_seconds"`
	AgeSeconds        float64 `json:"age_seconds"`
	Stale             bool    `json:"stale"`
	// Power is the last good per-rail estimate plus "Total", in Watts.
	// Empty until the node's first finite estimate.
	Power map[string]float64 `json:"power_w,omitempty"`
}

// NodePower returns the live view of one node.
func (s *Server) NodePower(name string) (NodePower, bool) {
	s.nodesMu.RLock()
	st, ok := s.nodes[name]
	s.nodesMu.RUnlock()
	if !ok {
		return NodePower{}, false
	}
	now := time.Now()
	st.mu.Lock()
	defer st.mu.Unlock()
	np := NodePower{
		Node:              name,
		Samples:           st.samples,
		NonFinite:         st.nonfinite,
		LastTargetSeconds: st.lastT,
	}
	if !st.lastWall.IsZero() {
		np.AgeSeconds = now.Sub(st.lastWall).Seconds()
	}
	np.Stale = st.lastWall.IsZero() || now.Sub(st.lastWall) > staleAfter
	if st.hasGood {
		np.Power = readingMap(st.last)
	}
	return np, true
}

// FleetPower is the cross-node aggregate.
type FleetPower struct {
	Nodes int `json:"nodes"`
	// Stale nodes are tracked but too old to contribute to Power.
	Stale int `json:"stale"`
	// Degraded means the aggregate is not the whole truth right now:
	// admission is shedding, nodes have gone stale, or estimates are
	// coming back non-finite.
	Degraded         bool   `json:"degraded"`
	SheddingActive   bool   `json:"shedding_active"`
	QueueDepth       int    `json:"queue_depth"`
	QueueCapacity    int    `json:"queue_capacity"`
	SamplesIngested  uint64 `json:"samples_ingested"`
	SamplesEstimated uint64 `json:"samples_estimated"`
	SamplesShed      uint64 `json:"samples_shed"`
	NonFinite        uint64 `json:"nonfinite_estimates"`
	// Power sums the last good reading of every fresh node, per rail
	// plus "Total", in Watts.
	Power map[string]float64 `json:"power_w"`
}

// Fleet aggregates every fresh node's last good reading.
func (s *Server) Fleet() FleetPower {
	now := time.Now()
	s.nodesMu.RLock()
	states := make(map[string]*nodeState, len(s.nodes))
	for k, v := range s.nodes {
		states[k] = v
	}
	s.nodesMu.RUnlock()
	var sum power.Reading
	fp := FleetPower{
		Nodes:            len(states),
		SheddingActive:   s.SheddingActive(),
		QueueDepth:       s.queue.depth(),
		QueueCapacity:    s.queue.capacity(),
		SamplesIngested:  s.ingested.Load(),
		SamplesEstimated: s.estimated.Load(),
		SamplesShed:      s.shed.Load(),
		NonFinite:        s.nonfinite.Load(),
	}
	for _, st := range states {
		st.mu.Lock()
		fresh := !st.lastWall.IsZero() && now.Sub(st.lastWall) <= staleAfter
		if fresh && st.hasGood {
			for i := range sum {
				sum[i] += st.last[i]
			}
		} else {
			fp.Stale++
		}
		st.mu.Unlock()
	}
	fp.Degraded = fp.SheddingActive || fp.Stale > 0 || fp.NonFinite > 0
	fp.Power = readingMap(sum)
	return fp
}

// readingMap renders a reading as rail-name → Watts plus "Total".
func readingMap(r power.Reading) map[string]float64 {
	out := make(map[string]float64, power.NumSubsystems+1)
	for _, sub := range power.Subsystems() {
		out[sub.String()] = r[sub]
	}
	out["Total"] = r.Total()
	return out
}

// LatencySummary is one histogram's quantile view in milliseconds. A
// quantile of -1 means the rank landed past the largest finite bucket
// (saturated); Overflow carries that mass explicitly.
type LatencySummary struct {
	Count    uint64  `json:"count"`
	P50ms    float64 `json:"p50_ms"`
	P95ms    float64 `json:"p95_ms"`
	P99ms    float64 `json:"p99_ms"`
	MeanMs   float64 `json:"mean_ms"`
	Overflow uint64  `json:"overflow"`
}

// summarize converts a histogram to a JSON-safe summary (+Inf → -1).
func summarize(h *telemetry.Histogram) LatencySummary {
	ms := func(q float64) float64 {
		v := h.Quantile(q) * 1e3
		if v != v || v > 1e308 {
			return -1
		}
		return v
	}
	ls := LatencySummary{
		Count:    h.Count(),
		P50ms:    ms(0.50),
		P95ms:    ms(0.95),
		P99ms:    ms(0.99),
		Overflow: h.Overflow(),
	}
	if ls.Count > 0 {
		ls.MeanMs = h.Sum() / float64(ls.Count) * 1e3
	}
	return ls
}

// Stats is the machine-readable service summary behind /statz — the
// server-side numbers the load generator reports next to its own.
// Latency summaries come from the process-wide serve histograms.
type Stats struct {
	// ModelVersion is the active estimator's provenance version
	// ("unversioned" for a pre-provenance model).
	ModelVersion     string `json:"model_version"`
	SamplesIngested  uint64 `json:"samples_ingested"`
	SamplesEstimated uint64 `json:"samples_estimated"`
	SamplesShed      uint64 `json:"samples_shed"`
	NonFinite        uint64 `json:"nonfinite_estimates"`
	EstimatePanics   uint64 `json:"estimate_panics"`
	Nodes            int    `json:"nodes"`
	// Workers is the estimation pool's size: Config.Workers, or
	// GOMAXPROCS when that was zero.
	Workers        int            `json:"workers"`
	QueueDepth     int            `json:"queue_depth"`
	QueueCapacity  int            `json:"queue_capacity"`
	SheddingActive bool           `json:"shedding_active"`
	Decode         LatencySummary `json:"decode"`
	Admission      LatencySummary `json:"admission"`
	QueueWait      LatencySummary `json:"queue_wait"`
	Service        LatencySummary `json:"service"`
	E2E            LatencySummary `json:"e2e"`
	Trace          tracez.Stats   `json:"trace"`
	LastDiagBundle string         `json:"last_diag_bundle,omitempty"`
}

// Stats snapshots the server.
func (s *Server) Stats() Stats {
	s.nodesMu.RLock()
	nodes := len(s.nodes)
	s.nodesMu.RUnlock()
	return Stats{
		ModelVersion:     modelVersion(s.est.Load()),
		SamplesIngested:  s.ingested.Load(),
		SamplesEstimated: s.estimated.Load(),
		SamplesShed:      s.shed.Load(),
		NonFinite:        s.nonfinite.Load(),
		EstimatePanics:   s.panics.Load(),
		Nodes:            nodes,
		Workers:          s.cfg.Workers,
		QueueDepth:       s.queue.depth(),
		QueueCapacity:    s.queue.capacity(),
		SheddingActive:   s.SheddingActive(),
		Decode:           summarize(mDecode),
		Admission:        summarize(mAdmission),
		QueueWait:        summarize(mQueueWait),
		Service:          summarize(mService),
		E2E:              summarize(mE2E),
		Trace:            s.rec.Stats(),
		LastDiagBundle:   s.LastDiagBundle(),
	}
}
