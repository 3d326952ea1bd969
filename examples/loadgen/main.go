// Command loadgen drives tdserve at controlled load and reports what
// happened: client-observed throughput and latency quantiles plus the
// server's own span-taxonomy numbers (/statz) and its slowest traces.
// It is a drill and a smoke test; the repeatable, seeded measurement of
// the same path is the serve-mix workload of `bash benchmark/run.sh`.
//
// With -addr it targets a running tdserve; without, it self-hosts — it
// trains a small-scale estimator, starts the serve stack in-process on
// a loopback listener, and drives it over real HTTP, so the measured
// path includes wire encoding, the TCP stack, decode, admission, queue
// and batched estimation.
//
// Usage:
//
//	loadgen                         # self-host, unpaced (max throughput)
//	loadgen -rate 50000 -duration 10s
//	loadgen -addr localhost:8080 -clients 8 -batch 512
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"math"
	"net"
	"net/http"
	"os"
	"sort"
	"sync"
	"time"

	"trickledown/internal/experiments"
	"trickledown/internal/perfctr"
	"trickledown/internal/serve"
	"trickledown/internal/stats"
	"trickledown/internal/tracez"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("loadgen: ")
	addr := flag.String("addr", "", "target tdserve address; empty self-hosts the serve stack in-process")
	duration := flag.Duration("duration", 5*time.Second, "how long to drive load")
	clients := flag.Int("clients", 4, "concurrent producer connections")
	batch := flag.Int("batch", 256, "samples per ingest request")
	nodes := flag.Int("nodes", 8, "distinct node names to report under")
	cpus := flag.Int("cpus", 2, "CPUs per synthetic sample")
	rate := flag.Float64("rate", 0, "total target samples/sec across all clients (0 = unpaced)")
	trainScale := flag.Float64("train-scale", 0.02, "training scale when self-hosting")
	queue := flag.Int("queue", 256, "self-hosted ingest queue depth")
	traceSample := flag.Float64("trace-sample", 0.01, "client-side head sampling rate for stamped trace contexts (0 = unstamped)")
	flag.Parse()

	target := *addr
	if target == "" {
		stop, hosted, err := selfHost(*trainScale, *queue)
		if err != nil {
			log.Fatal(err)
		}
		defer stop()
		target = hosted
	}
	base := "http://" + target

	if err := waitHealthy(base, 10*time.Second); err != nil {
		log.Fatal(err)
	}

	res, err := drive(base, *duration, *clients, *batch, *nodes, *cpus, *rate, *traceSample)
	if err != nil {
		log.Fatal(err)
	}
	report(res)
	if res.SamplesPerSec <= 0 {
		os.Exit(1)
	}
}

// selfHost trains an estimator and brings up the full serve stack on a
// loopback listener, returning its address and a shutdown func.
func selfHost(scale float64, queueDepth int) (func(), string, error) {
	log.Printf("self-hosting: training estimator (scale %g)", scale)
	est, err := experiments.NewRunner(experiments.Options{
		Seed: 100, TrainSeed: 10, Scale: scale,
	}).Estimator()
	if err != nil {
		return nil, "", fmt.Errorf("train: %w", err)
	}
	srv, err := serve.New(serve.Config{Estimator: est, QueueDepth: queueDepth})
	if err != nil {
		return nil, "", err
	}
	srv.Start()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	hs := &http.Server{Handler: srv.Handler()}
	go func() { _ = hs.Serve(ln) }()
	stop := func() {
		_ = hs.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = srv.Close(ctx)
	}
	return stop, ln.Addr().String(), nil
}

// results is everything one load run learned.
type results struct {
	Duration      time.Duration
	SentSamples   uint64
	OKBatches     uint64
	ShedBatches   uint64 // 429 responses (queue full or rate limited)
	OtherErrors   uint64
	SamplesPerSec float64 // server-side estimated samples / wall duration
	ClientP50ms   float64 // client-observed request latency quantiles
	ClientP95ms   float64
	ClientP99ms   float64
	Stats         serve.Stats // server /statz snapshot after the run
	// SlowTraces are the server's slowest end-to-end traces after the
	// run — the request-level view behind the p99 number.
	SlowTraces []tracez.TraceJSON
}

// drive runs the producer fleet against base for d and collects both
// sides of the story.
func drive(base string, d time.Duration, clients, batchN, nodes, cpus int, rate, traceSample float64) (*results, error) {
	before, err := fetchStats(base)
	if err != nil {
		return nil, fmt.Errorf("statz before: %w", err)
	}
	// Client-minted trace contexts: the sampling decision is a pure
	// function of (ID, rate), so the server agrees on which batches are
	// recorded without any negotiation.
	sampler := tracez.NewRecorder(tracez.Config{SampleRate: traceSample})

	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		res      = &results{Duration: d}
		lats     []float64
		deadline = time.Now().Add(d)
	)
	perClientRate := rate / float64(clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			client := &http.Client{Timeout: 10 * time.Second}
			clientID := fmt.Sprintf("loadgen-%d", c)
			var buf []byte
			var myLats []float64
			var sent, ok, shed, other uint64
			next := time.Now()
			interval := time.Duration(0)
			if perClientRate > 0 {
				interval = time.Duration(float64(batchN) / perClientRate * float64(time.Second))
			}
			for seq := 0; time.Now().Before(deadline); seq++ {
				if interval > 0 {
					if wait := time.Until(next); wait > 0 {
						time.Sleep(wait)
					}
					next = next.Add(interval)
				}
				node := fmt.Sprintf("node-%02d", (c*7+seq)%nodes)
				samples := synthBatch(batchN, cpus, float64(seq*batchN), c)
				var ext perfctr.TraceExt
				if traceSample > 0 {
					tc := sampler.Mint()
					ext = perfctr.TraceExt{ID: [16]byte(tc.ID), Sampled: tc.Sampled}
				}
				buf, err = perfctr.EncodeBatchExt(buf[:0], node, samples, ext)
				if err != nil {
					log.Fatalf("encode: %v", err)
				}
				start := time.Now()
				req, _ := http.NewRequest(http.MethodPost, base+"/ingest", bytes.NewReader(buf))
				req.Header.Set("X-Client-ID", clientID)
				resp, err := client.Do(req)
				if err != nil {
					other++
					continue
				}
				resp.Body.Close()
				myLats = append(myLats, time.Since(start).Seconds())
				sent += uint64(batchN)
				switch resp.StatusCode {
				case http.StatusAccepted:
					ok++
				case http.StatusTooManyRequests:
					shed++
				default:
					other++
				}
			}
			mu.Lock()
			res.SentSamples += sent
			res.OKBatches += ok
			res.ShedBatches += shed
			res.OtherErrors += other
			lats = append(lats, myLats...)
			mu.Unlock()
		}(c)
	}
	start := time.Now()
	wg.Wait()
	elapsed := time.Since(start)

	after, err := fetchStats(base)
	if err != nil {
		return nil, fmt.Errorf("statz after: %w", err)
	}
	res.Stats = after
	if traceSample > 0 {
		if slow, err := fetchSlowTraces(base, 5); err != nil {
			log.Printf("tracez fetch failed (continuing): %v", err)
		} else {
			res.SlowTraces = slow
		}
	}
	res.Duration = elapsed
	res.SamplesPerSec = float64(after.SamplesEstimated-before.SamplesEstimated) / elapsed.Seconds()
	// A run with no completed request reports zero latencies: Quantile's
	// only error is ErrEmpty, which comes with a zero value.
	p50, _ := stats.Quantile(lats, 0.50)
	p95, _ := stats.Quantile(lats, 0.95)
	p99, _ := stats.Quantile(lats, 0.99)
	res.ClientP50ms, res.ClientP95ms, res.ClientP99ms = p50*1e3, p95*1e3, p99*1e3
	return res, nil
}

// synthBatch fabricates a batch of sinusoidally-varying counter samples:
// activity swings between near-idle and saturated like a diurnal load
// curve, so the estimators see the full dynamic range, not one point.
func synthBatch(n, cpus int, t0 float64, seed int) []perfctr.Sample {
	out := make([]perfctr.Sample, n)
	for i := range out {
		t := t0 + float64(i)
		phase := 0.5 + 0.5*math.Sin(t/300+float64(seed))
		s := perfctr.Sample{TargetSeconds: t, IntervalSec: 1,
			CPUs: make([]perfctr.CPUCounts, cpus)}
		for c := range s.CPUs {
			activity := phase * (0.5 + 0.5*math.Sin(t/60+float64(c)))
			cycles := uint64(2.8e9)
			s.CPUs[c] = perfctr.CPUCounts{
				Cycles:        cycles,
				HaltedCycles:  uint64((1 - activity) * 2.8e9 * 0.9),
				FetchedUops:   uint64(activity * 2.2e9),
				L3LoadMisses:  uint64(activity * 4e6),
				L3Misses:      uint64(activity * 6e6),
				TLBMisses:     uint64(activity * 2e5),
				BusTx:         uint64(activity * 8e6),
				BusPrefetchTx: uint64(activity * 1.5e6),
				DMAOther:      uint64(activity * 1e6),
				Uncacheable:   uint64(activity * 4e4),
			}
		}
		out[i] = s
	}
	return out
}

func fetchStats(base string) (serve.Stats, error) {
	var st serve.Stats
	resp, err := http.Get(base + "/statz")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("/statz: status %d", resp.StatusCode)
	}
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// fetchSlowTraces pulls the server's slowest-by-e2e traces from
// /debug/tracez and returns the top n, slowest first.
func fetchSlowTraces(base string, n int) ([]tracez.TraceJSON, error) {
	resp, err := http.Get(base + "/debug/tracez?view=slow&format=json")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/debug/tracez: status %d", resp.StatusCode)
	}
	var snap tracez.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		return nil, err
	}
	slow := snap.Slowest["e2e"]
	sort.Slice(slow, func(i, j int) bool { return slow[i].E2EMs > slow[j].E2EMs })
	if len(slow) > n {
		slow = slow[:n]
	}
	return slow, nil
}

func waitHealthy(base string, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		resp, err := http.Get(base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("server at %s not healthy after %s", base, timeout)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

func report(r *results) {
	st := r.Stats
	fmt.Printf("duration        %s\n", r.Duration.Round(time.Millisecond))
	fmt.Printf("sent            %d samples (%d batches ok, %d shed, %d errors)\n",
		r.SentSamples, r.OKBatches, r.ShedBatches, r.OtherErrors)
	fmt.Printf("throughput      %.0f samples/sec (server-side estimated)\n", r.SamplesPerSec)
	fmt.Printf("client latency  p50 %.3fms  p95 %.3fms  p99 %.3fms\n",
		r.ClientP50ms, r.ClientP95ms, r.ClientP99ms)
	fmt.Printf("server e2e      p50 %.3fms  p95 %.3fms  p99 %.3fms (overflow %d)\n",
		st.E2E.P50ms, st.E2E.P95ms, st.E2E.P99ms, st.E2E.Overflow)
	fmt.Printf("queue wait      p50 %.3fms  p95 %.3fms  p99 %.3fms\n",
		st.QueueWait.P50ms, st.QueueWait.P95ms, st.QueueWait.P99ms)
	fmt.Printf("server totals   ingested=%d estimated=%d shed=%d nonfinite=%d nodes=%d shedding=%v\n",
		st.SamplesIngested, st.SamplesEstimated, st.SamplesShed, st.NonFinite, st.Nodes, st.SheddingActive)
	if len(r.SlowTraces) > 0 {
		fmt.Printf("slowest server-observed traces (e2e):\n")
		for i, tr := range r.SlowTraces {
			fmt.Printf("  %d. %s  node=%s  %s\n", i+1, tr.ID, tr.Node, traceBreakdown(tr))
		}
	}
}

// traceBreakdown renders one trace's per-stage latency split.
func traceBreakdown(tr tracez.TraceJSON) string {
	return fmt.Sprintf("admission %.3fms  queue %.3fms  service %.3fms  e2e %.3fms  outcome=%s",
		tr.AdmissionMs, tr.QueueMs, tr.ServiceMs, tr.E2EMs, tr.Outcome)
}
