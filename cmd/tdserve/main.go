// Command tdserve is the live power-estimation service: the paper's
// "fitted once, shipped everywhere" deployment story as a long-running
// daemon. It loads (or trains) the five-subsystem estimator, then
// accepts batches of raw counter samples per node over HTTP and serves
// per-node and fleet-aggregate power, with explicit backpressure —
// bounded ingest queue, 429 + Retry-After under overload, per-client
// rate limits — instead of silent latency or unbounded memory.
//
// Usage:
//
//	tdserve [-addr :8080] [-models models.json] [-train-scale 0.05]
//	        [-queue 256] [-workers N] [-rate 0] [-burst 0]
//	        [-trace-sample 0.01] [-diag-dir DIR] [-adapt]
//	        [-drain-timeout 30s] [-save-models models.json] [-v]
//
// Endpoints: POST /ingest (perfctr TDS1 wire batches, with optional
// TDX1 trace context and TDP1 measured rails), GET /power?node=,
// GET /fleet, GET /statz, GET /driftz (self-healing adaptation state;
// 404 unless -adapt), GET /healthz, GET /debug/tracez (sampled +
// anomaly traces), and /metrics + /debug/pprof via the telemetry
// registry, all on the one -addr listener. Batches hold at most 8192
// samples, 429s advertise Retry-After: 1, a node is stale after 15 s
// without an estimate, and a batch slower than 50 ms end to end is kept
// as an anomaly trace. -adapt runs drift adaptation over a 180-sample
// window with 4 rollback models. SIGINT/SIGTERM trigger a graceful
// shutdown: intake closes, queued batches drain, then the process
// exits. SIGQUIT dumps a diagnostics bundle (traces, flight ring,
// metrics, goroutines) to -diag-dir and keeps running.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"trickledown/internal/adapt"
	"trickledown/internal/core"
	"trickledown/internal/experiments"
	"trickledown/internal/serve"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("tdserve: ")
	addr := flag.String("addr", ":8080", "listen address")
	models := flag.String("models", "", "load a fitted estimator from this JSON file instead of training")
	trainScale := flag.Float64("train-scale", 0.05, "training-run duration multiplier when training (no -models)")
	saveModels := flag.String("save-models", "", "after training, persist the estimator to this JSON file")
	queue := flag.Int("queue", 256, "ingest queue depth in batches (the backpressure bound)")
	workers := flag.Int("workers", 0, "estimation workers (0 = GOMAXPROCS)")
	rate := flag.Float64("rate", 0, "per-client admission rate in samples/sec (0 = unlimited)")
	burst := flag.Float64("burst", 0, "per-client token-bucket burst in samples (0 = derived)")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "max time to drain the queue on shutdown")
	traceSample := flag.Float64("trace-sample", 0.01, "head-based trace sampling rate in [0,1] for batches without a producer-stamped context")
	diagDir := flag.String("diag-dir", "", "write diagnostics bundles here on shedding/quarantine transitions and SIGQUIT (empty = off)")
	adaptOn := flag.Bool("adapt", false, "enable self-healing: drift detection on TDP1-rails batches, guarded refit, hot-swap with rollback")
	verbose := flag.Bool("v", false, "log per-signal detail")
	flag.Parse()

	est, err := loadOrTrain(*models, *trainScale, *saveModels)
	if err != nil {
		log.Fatal(err)
	}
	if p := est.Provenance(); p != nil {
		log.Printf("model provenance: %s", p)
	} else {
		log.Print("model provenance: unversioned (pre-provenance file)")
	}

	srv, err := serve.New(serve.Config{
		Estimator:       est,
		QueueDepth:      *queue,
		Workers:         *workers,
		RatePerClient:   *rate,
		Burst:           *burst,
		TraceSampleRate: *traceSample,
		DiagDir:         *diagDir,
	})
	if err != nil {
		log.Fatal(err)
	}
	if *adaptOn {
		mgr, err := adapt.New(adapt.Config{Champion: est})
		if err != nil {
			log.Fatal(err)
		}
		mgr.Subscribe(func(ev adapt.Event) {
			log.Printf("adapt %s: %s -> %s (%s) trace=%s", ev.Kind, ev.From, ev.To, ev.Detail, ev.Trace)
		})
		srv.SetAdapter(mgr)
		log.Print("self-healing enabled")
	}
	srv.Start()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	httpSrv := &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 5 * time.Second}
	go func() {
		if err := httpSrv.Serve(ln); err != nil && err != http.ErrServerClosed {
			log.Fatal(err)
		}
	}()
	// The resolved sizes, not the flags: -workers 0 runs GOMAXPROCS.
	st := srv.Stats()
	log.Printf("listening addr=%s queue=%d workers=%d rate=%g",
		ln.Addr(), st.QueueCapacity, st.Workers, *rate)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM, syscall.SIGQUIT)
	var got os.Signal
	for got = <-sig; got == syscall.SIGQUIT; got = <-sig {
		// SIGQUIT is the operator's "show me what's happening":
		// dump a diagnostics bundle and keep serving.
		if dir, err := srv.DumpDiagnostics(*diagDir, "sigquit"); err != nil {
			log.Printf("SIGQUIT diagnostics dump failed: %v", err)
		} else {
			log.Printf("SIGQUIT diagnostics bundle: %s", dir)
		}
	}
	log.Printf("signal %s: draining (timeout %s)", got, *drainTimeout)

	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	_ = httpSrv.Shutdown(ctx)
	if err := srv.Close(ctx); err != nil {
		log.Printf("drain incomplete: %v", err)
	}
	if *verbose {
		st := srv.Stats()
		log.Printf("final: ingested=%d estimated=%d shed=%d nonfinite=%d nodes=%d",
			st.SamplesIngested, st.SamplesEstimated, st.SamplesShed, st.NonFinite, st.Nodes)
	}
	log.Print("shutdown complete")
}

// loadOrTrain resolves the estimator: from a persisted model file when
// given, otherwise by training on the simulated calibration machine at
// the requested scale (the instrumented-machine role from the paper).
func loadOrTrain(path string, scale float64, savePath string) (*core.Estimator, error) {
	if path != "" {
		f, err := os.Open(path)
		if err != nil {
			return nil, fmt.Errorf("open models: %w", err)
		}
		defer f.Close()
		est, err := core.LoadEstimator(f)
		if err != nil {
			return nil, fmt.Errorf("load models %s: %w", path, err)
		}
		log.Printf("loaded estimator from %s", path)
		return est, nil
	}
	log.Printf("training estimator (scale %g)", scale)
	start := time.Now()
	est, err := experiments.NewRunner(experiments.Options{
		Seed: 100, TrainSeed: 10, Scale: scale,
	}).Estimator()
	if err != nil {
		return nil, fmt.Errorf("train: %w", err)
	}
	log.Printf("trained in %s", time.Since(start).Round(time.Millisecond))
	if savePath != "" {
		f, err := os.Create(savePath)
		if err != nil {
			return nil, fmt.Errorf("create %s: %w", savePath, err)
		}
		defer f.Close()
		if err := est.Save(f); err != nil {
			return nil, fmt.Errorf("save models: %w", err)
		}
		log.Printf("saved models to %s", savePath)
	}
	return est, nil
}
