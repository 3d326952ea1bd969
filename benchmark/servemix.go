package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"runtime"
	"sync"
	"time"

	"trickledown/internal/core"
	"trickledown/internal/experiments"
	"trickledown/internal/machine"
	"trickledown/internal/perfctr"
	"trickledown/internal/power"
	"trickledown/internal/serve"
	"trickledown/internal/sim"
	"trickledown/internal/tracez"
	"trickledown/internal/workload"
)

// serveMix is the service workload's fixed shape.
type serveMix struct {
	conns      int     // client connections, one goroutine each
	nodes      int     // node names batches report under
	batch      int     // samples per ingest request
	cpus       int     // processors per sample
	rate       float64 // open-loop offered samples/s, all connections
	readEvery  int     // one read per this many ingests
	ring       int     // distinct pre-encoded batches per connection
	trainScale float64
	seed       uint64
}

func newServeMix(cfg runConfig) serveMix {
	m := serveMix{conns: runtime.NumCPU(), nodes: 8, batch: 256, cpus: 2,
		// About a quarter of the closed-loop capacity of a 2-core host
		// (~720k samples/s): far enough below it that the queue stays
		// short and latency measures service, not backlog.
		rate: 180000, readEvery: 4, ring: 32, trainScale: 0.02, seed: cfg.seed}
	if cfg.tiny {
		m.rate, m.ring = 20000, 4
	}
	return m
}

// serveEnv is a running self-hosted service with its clients' inputs.
type serveEnv struct {
	est     *core.Estimator
	srv     *serve.Server
	hs      *http.Server
	served  chan struct{}
	base    string
	bodies  [][][]byte // [conn][i] pre-encoded request bodies
	samples [][]perfctr.Sample
	node    [][]string // [conn][i] node the body reports under
	clients []*http.Client
}

// synthBatch fabricates a batch of counter samples whose activity swings
// between near-idle and saturated, with seeded phases and jitter, so the
// estimators see their whole range.
func synthBatch(rng *sim.RNG, n, cpus int, t0 float64) []perfctr.Sample {
	out := make([]perfctr.Sample, n)
	phase0 := rng.Float64() * 2 * math.Pi
	for i := range out {
		t := t0 + float64(i)
		phase := 0.5 + 0.5*math.Sin(t/300+phase0)
		s := perfctr.Sample{TargetSeconds: t, IntervalSec: 1, CPUs: make([]perfctr.CPUCounts, cpus)}
		for c := range s.CPUs {
			a := phase * (0.5 + 0.5*math.Sin(t/60+float64(c))) * (1 + 0.05*rng.Norm(0, 1))
			a = math.Min(1, math.Max(0, a))
			s.CPUs[c] = perfctr.CPUCounts{
				Cycles:        2.8e9,
				HaltedCycles:  uint64((1 - a) * 2.8e9 * 0.9),
				FetchedUops:   uint64(a * 2.2e9),
				L3LoadMisses:  uint64(a * 4e6),
				L3Misses:      uint64(a * 6e6),
				TLBMisses:     uint64(a * 2e5),
				BusTx:         uint64(a * 8e6),
				BusPrefetchTx: uint64(a * 1.5e6),
				DMAOther:      uint64(a * 1e6),
				Uncacheable:   uint64(a * 4e4),
			}
		}
		out[i] = s
	}
	return out
}

// setup trains the estimator, starts the service on a loopback listener,
// encodes every request body, and ingests one batch per node so every
// node is known before reads start.
func (m serveMix) setup(ctx context.Context) (*serveEnv, error) {
	est, err := experiments.NewRunner(experiments.Options{
		Seed: 100, TrainSeed: 10, Scale: m.trainScale,
	}).Estimator()
	if err != nil {
		return nil, fmt.Errorf("train: %w", err)
	}
	srv, err := serve.New(serve.Config{Estimator: est, QueueDepth: 256})
	if err != nil {
		return nil, err
	}
	srv.Start()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close(ctx)
		return nil, err
	}
	env := &serveEnv{est: est, srv: srv, hs: &http.Server{Handler: srv.Handler()},
		served: make(chan struct{}), base: "http://" + ln.Addr().String()}
	go func() {
		defer close(env.served)
		env.hs.Serve(ln)
	}()

	sampler := tracez.NewRecorder(tracez.Config{SampleRate: 0.01})
	rng := sim.NewRNG(m.seed)
	env.bodies = make([][][]byte, m.conns)
	env.node = make([][]string, m.conns)
	for c := 0; c < m.conns; c++ {
		env.clients = append(env.clients, &http.Client{
			Transport: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true},
			Timeout:   10 * time.Second,
		})
		for i := 0; i < m.ring; i++ {
			node := fmt.Sprintf("node-%02d", (c*m.ring+i)%m.nodes)
			samples := synthBatch(rng, m.batch, m.cpus, float64(i*m.batch))
			var id tracez.TraceID
			for b := 0; b < len(id); b += 8 {
				v := rng.Uint64()
				for k := 0; k < 8; k++ {
					id[b+k] = byte(v >> (8 * k))
				}
			}
			body, err := perfctr.EncodeBatchExt(nil, node, samples,
				perfctr.TraceExt{ID: id, Sampled: sampler.Sampled(id)})
			if err != nil {
				env.close(ctx)
				return nil, err
			}
			env.bodies[c] = append(env.bodies[c], body)
			env.node[c] = append(env.node[c], node)
			if c == 0 {
				env.samples = append(env.samples, samples)
			}
		}
	}
	for n := 0; n < m.nodes && n < m.conns*m.ring; n++ {
		c, i := n/m.ring, n%m.ring
		if err := ingest(ctx, env.clients[c], env.base, env.bodies[c][i], c); err != nil {
			env.close(ctx)
			return nil, fmt.Errorf("warm-up ingest: %w", err)
		}
	}
	if err := env.drain(ctx); err != nil {
		env.close(ctx)
		return nil, err
	}
	return env, nil
}

// drain waits until the service has estimated everything it accepted.
func (e *serveEnv) drain(ctx context.Context) error {
	for {
		st := e.srv.Stats()
		if st.SamplesEstimated == st.SamplesIngested {
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("drain: %w", ctx.Err())
		case <-time.After(time.Millisecond):
		}
	}
}

// close stops the HTTP server and the service, waiting for both.
func (e *serveEnv) close(ctx context.Context) error {
	for _, c := range e.clients {
		c.CloseIdleConnections()
	}
	err := e.hs.Shutdown(ctx)
	<-e.served
	return errors.Join(err, e.srv.Close(ctx))
}

// ingest posts one pre-encoded body; anything but 202 is a failure.
func ingest(ctx context.Context, c *http.Client, base string, body []byte, conn int) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/ingest", bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("X-Client-ID", fmt.Sprintf("bench-%d", conn))
	resp, err := c.Do(req)
	if err != nil {
		return err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		return fmt.Errorf("ingest: status %d", resp.StatusCode)
	}
	return nil
}

// get fetches a read endpoint; anything but 200 with a JSON body is a
// failure.
func get(ctx context.Context, c *http.Client, url string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.Do(req)
	if err != nil {
		return nil, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK || !json.Valid(body) {
		return nil, fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return body, nil
}

// openLoop drives every connection through the same schedule for phase:
// ingests at the fixed offered rate, and a read of one node's power or
// of the fleet aggregate after every readEvery-th ingest.
func (m serveMix) openLoop(ctx context.Context, env *serveEnv, phase time.Duration) ([]outcome, int64) {
	perConn := m.rate / float64(m.conns)
	interval := time.Duration(float64(m.batch) / perConn * float64(time.Second))
	slots := openLoopSchedule(phase, interval, m.readEvery)
	start := time.Now().Add(20 * time.Millisecond)
	results := make([][]outcome, m.conns)
	accepted := make([]int64, m.conns)
	var wg sync.WaitGroup
	for c := 0; c < m.conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			reads := 0
			results[c] = runOpenLoop(ctx, wallClock{}, start, slots, func(i int, s slot) error {
				if s.read {
					url := env.base + "/fleet"
					if reads%2 == 0 {
						url = fmt.Sprintf("%s/power?node=node-%02d", env.base, (c+reads/2)%m.nodes)
					}
					reads++
					_, err := get(ctx, env.clients[c], url)
					return err
				}
				err := ingest(ctx, env.clients[c], env.base, env.bodies[c][i%m.ring], c)
				if err == nil {
					accepted[c] += int64(m.batch)
				}
				return err
			})
		}(c)
	}
	wg.Wait()
	var all []outcome
	var acc int64
	for c := range results {
		all = append(all, results[c]...)
		acc += accepted[c]
	}
	return all, acc
}

// closedLoop has every connection ingest back to back for phase, in
// segments. Each segment ends once the service has estimated everything
// it accepted and is followed by a reference run, and yields the samples
// estimated per nominal CPU second (see hostSpeed) of the whole process,
// clients included. It also returns the requests that failed, the
// samples accepted, and (when spans is set) each request's latency in
// milliseconds.
func (m serveMix) closedLoop(ctx context.Context, env *serveEnv, rep *report, phase time.Duration, spans bool) (rates []float64, failed, requests, accepted int64, lat []float64, err error) {
	segment := min(max(phase/16, 100*time.Millisecond), time.Second)
	var speeds []float64
	for end := time.Now().Add(phase); time.Until(end) >= segment/2; {
		est0, c0 := env.srv.Stats().SamplesEstimated, cputime()
		deadline := time.Now().Add(segment)
		var mu sync.Mutex
		var wg sync.WaitGroup
		for c := 0; c < m.conns; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				var fail, reqs, acc int64
				var mine []float64
				for i := 0; time.Now().Before(deadline) && ctx.Err() == nil; i++ {
					t0 := nanotime()
					err := ingest(ctx, env.clients[c], env.base, env.bodies[c][i%m.ring], c)
					if spans {
						mine = append(mine, float64(nanotime()-t0)/1e6)
					}
					reqs++
					if err != nil {
						fail++
					} else {
						acc += int64(m.batch)
					}
				}
				mu.Lock()
				failed, requests, accepted = failed+fail, requests+reqs, accepted+acc
				lat = append(lat, mine...)
				mu.Unlock()
			}(c)
		}
		wg.Wait()
		if err := env.drain(ctx); err != nil {
			return nil, 0, 0, 0, nil, err
		}
		est1, c1 := env.srv.Stats().SamplesEstimated, cputime()
		rates = append(rates, float64(est1-est0)/(float64(c1-c0)/1e9))
		_, speed := rep.hostSpeed(m.conns)
		speeds = append(speeds, speed)
	}
	speed := median(speeds)
	for i := range rates {
		rates[i] *= speed
	}
	return rates, failed, requests, accepted, lat, nil
}

func runServeMix(ctx context.Context, cfg runConfig, rep *report) error {
	m := newServeMix(cfg)
	// Set-up (training, service start, encoding) runs five times; the
	// median is setup_s and the last service is the one measured.
	var env *serveEnv
	setups, err := nominalSetups(rep, 5, func() error {
		next, err := m.setup(ctx)
		if err != nil {
			return err
		}
		if env != nil {
			err = env.close(ctx)
		}
		env = next
		return err
	})
	if err != nil {
		return err
	}
	warm := int64(min(m.nodes, m.conns*m.ring) * m.batch)
	rep.note("serve-mix: %d connections, %d-sample batches for %d nodes, open loop at %.0f samples/s with a read every %d ingests",
		m.conns, m.batch, m.nodes, m.rate, m.readEvery)

	// The open-loop phase is kept under 10,000 ingests at 30 s, so its
	// tail is the 99th percentile; the closed loop gets the rest.
	open := time.Duration(float64(cfg.seconds) * 0.45)
	closed := cfg.seconds - open
	gcm := newGCMeter()
	gc0, busy0 := gcm.read()
	outs, accepted := m.openLoop(ctx, env, open)
	statz := env.srv.Stats()
	var rates, tracedRates, spans []float64
	var failed, requests, acc int64
	if cfg.trace {
		var f, r, a int64
		tracedRates, f, r, a, spans, err = m.closedLoop(ctx, env, rep, closed/2, true)
		failed, requests, acc = failed+f, requests+r, acc+a
		if err == nil {
			rates, f, r, a, _, err = m.closedLoop(ctx, env, rep, closed/2, false)
			failed, requests, acc = failed+f, requests+r, acc+a
		}
	} else {
		rates, failed, requests, acc, _, err = m.closedLoop(ctx, env, rep, closed, false)
	}
	if err != nil {
		return errors.Join(err, env.close(ctx))
	}
	accepted += acc
	gc1, busy1 := gcm.read()

	ingestMs, ingestFailed := latencies(outs, false)
	queryMs, queryFailed := latencies(outs, true)
	rep.ops(int64(len(ingestMs)), int64(ingestFailed), "open-loop ingests")
	rep.ops(int64(len(queryMs)), int64(queryFailed), "open-loop reads")
	rep.ops(requests, failed, "closed-loop ingests")

	// Correctness: every node reads a finite power, and once the
	// service has drained, it estimated exactly the samples it accepted,
	// none of them non-finite.
	rep.sampleRSS()
	for n := 0; n < m.nodes; n++ {
		rep.op(checkNodePower(ctx, env, n))
	}
	if err := env.drain(ctx); err != nil {
		return err
	}
	if err := env.close(ctx); err != nil {
		return err
	}
	final := env.srv.Stats()
	if final.SamplesEstimated != final.SamplesIngested || final.SamplesIngested != uint64(accepted+warm) {
		err = fmt.Errorf("serve-mix: %d samples accepted, %d ingested, %d estimated",
			accepted+warm, final.SamplesIngested, final.SamplesEstimated)
	}
	rep.op(err)
	err = nil
	if final.NonFinite != 0 {
		err = fmt.Errorf("serve-mix: %d non-finite estimates", final.NonFinite)
	}
	rep.op(err)
	rep.note("serve-mix: %d open-loop ingests, %d reads, %d closed-loop ingests; %d samples estimated",
		len(ingestMs), len(queryMs), requests, final.SamplesEstimated)

	if !cfg.trace {
		errPct, err := servedErrPct(ctx, env.est)
		rep.op(err)
		rep.note("serve-mix: throughput is samples estimated per nominal CPU second of the process, closed loop; latency is one ingest from its due time in wall ms, open loop; est_err_pct is the served model's held-out error")
		rep.setEndToEnd(setups, rates, median(ingestMs), errPct)
		return nil
	}
	rep.setTail("latency_ms_tail", "ms", ingestMs)

	// Per-layer figures: the wire codec and the estimator on the same
	// pre-encoded bytes, the service's own stage latencies, and what the
	// client saw beyond them.
	var buf []byte
	body, samples := env.bodies[0][0], env.samples[0]
	ext := func() perfctr.TraceExt {
		_, _, e, _ := perfctr.DecodeBatchExt(body)
		return e
	}()
	enc := medianSeconds(50*time.Millisecond, func() {
		buf, err = perfctr.EncodeBatchExt(buf[:0], env.node[0][0], samples, ext)
	})
	if err == nil && !bytes.Equal(buf, body) {
		err = errors.New("serve-mix: re-encoded batch differs from the pre-encoded bytes")
	}
	rep.op(err)
	var decoded []perfctr.Sample
	dec := medianSeconds(50*time.Millisecond, func() {
		_, decoded, _, _, err = perfctr.DecodeBatchFull(body)
	})
	rep.op(err)
	scratch := &core.Metrics{}
	est := medianSeconds(50*time.Millisecond, func() {
		acc := 0.0
		for i := range decoded {
			core.ExtractMetricsAtInto(scratch, &decoded[i], sim.DefaultCoreHz)
			acc += env.est.EstimateMetrics(scratch).Total()
		}
		sink += acc
	})
	var service []float64
	var lates []float64
	for _, o := range outs {
		lates = append(lates, float64(o.late)/1e6)
		if !o.read && !o.failed {
			service = append(service, float64(o.service)/1e6)
		}
	}
	rep.set("perfctr.encode_us", "us", enc*1e6)
	rep.set("perfctr.decode_us", "us", dec*1e6)
	rep.set("core.extract_estimate_ns", "ns", est/float64(len(decoded))*1e9)
	rep.set("serve.admission_ms_mean", "ms", statz.Admission.MeanMs)
	rep.set("serve.queue_wait_ms_p99", "ms", statz.QueueWait.P99ms)
	rep.set("serve.service_ms_p50", "ms", statz.Service.P50ms)
	rep.set("serve.e2e_ms_p99", "ms", statz.E2E.P99ms)
	rep.set("http.overhead_ms_p50", "ms", median(service)-statz.E2E.P50ms)
	rep.set("serve.shed_frac", "1", float64(final.SamplesShed)/float64(final.SamplesIngested+final.SamplesShed))
	rep.set("gen.late_ms_p99", "ms", percentile(lates, 99))
	rep.set("serve.query_ms_p50", "ms", median(queryMs))
	rep.setTail("serve.query_ms_tail", "ms", queryMs)
	rep.set("gc.cpu_frac", "1", gcFrac(gc1-gc0, busy1-busy0))
	rep.set("trace_overhead_frac", "1", median(rates)/median(tracedRates)-1)
	rep.note("serve-mix: traced closed-loop request latency p50 %.3f ms over %d requests", median(spans), len(spans))
	return nil
}

// checkNodePower reads one node's live power and checks the node has
// estimated samples and a finite total.
func checkNodePower(ctx context.Context, env *serveEnv, n int) error {
	body, err := get(ctx, env.clients[0], fmt.Sprintf("%s/power?node=node-%02d", env.base, n))
	if err != nil {
		return err
	}
	var np serve.NodePower
	if err := json.Unmarshal(body, &np); err != nil {
		return err
	}
	total := np.Power["Total"]
	if np.Samples == 0 || math.IsNaN(total) || math.IsInf(total, 0) {
		return fmt.Errorf("serve-mix: node-%02d reads %d samples, %v W", n, np.Samples, total)
	}
	return nil
}

// servedErrPct is the served estimator's held-out error: the mean Eq. 6
// error of its five subsystem models on validation traces of workloads
// it was not trained on, simulated at the corpus seed.
func servedErrPct(ctx context.Context, est *core.Estimator) (float64, error) {
	var errs []float64
	for _, name := range []string{"mesa", "dbt-2"} {
		spec, err := workload.ByName(name)
		if err != nil {
			return 0, err
		}
		mc := machine.DefaultConfig()
		mc.Seed = 100
		srv, err := machine.New(mc, spec)
		if err != nil {
			return 0, err
		}
		if err := srv.RunContext(ctx, 40); err != nil {
			return 0, err
		}
		ds, err := srv.Dataset()
		if err != nil {
			return 0, err
		}
		for _, sub := range power.Subsystems() {
			e, err := est.Model(sub).Validate(ds.Skip(5))
			if err != nil {
				return 0, err
			}
			errs = append(errs, e)
		}
	}
	return sum(errs) / float64(len(errs)), nil
}
