// Replay: record a simulated "day" of workloads as WTR1 traces and
// prove the round trip. Each hour one registry workload runs on a small
// machine with a recording tap (internal/wtrace); the trace then goes
// through the full codec (encode -> strict decode) and drives a fresh
// machine, which must reproduce the live run's aligned dataset
// byte-for-byte — replay generators consume no randomness, so the
// ground-truth rails come out identical, not merely close. The replayed
// day is finally streamed into the estimation service (internal/serve)
// as twelve nodes' live feeds, the trace-driven analogue of the fleet
// example.
//
// Everything on stdout is a pure deterministic function of the flags;
// logs go to stderr.
//
//	go run ./examples/replay
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"log/slog"
	"os"
	"time"

	"trickledown/internal/align"
	"trickledown/internal/core"
	"trickledown/internal/experiments"
	"trickledown/internal/machine"
	"trickledown/internal/serve"
	"trickledown/internal/telemetry"
	"trickledown/internal/workload"
	"trickledown/internal/wtrace"
)

const hourSec = 10.0 // one simulated "hour" per workload

func main() {
	log.SetFlags(0)
	verbose := flag.Bool("v", false, "debug-level logging on stderr")
	flag.Parse()
	telemetry.SetupLogger(*verbose)

	est := train()
	day := workload.TableOrder() // 12 workloads, one per "hour"

	srv, err := serve.New(serve.Config{Estimator: est, Workers: 2})
	check(err)
	srv.Start()

	fmt.Printf("replaying a %d-hour day (%.0f s per hour) through the WTR1 codec\n", len(day), hourSec)
	total := 0
	for hour, wl := range day {
		node := fmt.Sprintf("hour-%02d", hour)
		ds := recordAndReplay(hour, wl)
		sent, err := srv.IngestDataset(context.Background(), "replayer", node, ds, 256)
		check(err)
		total += sent
	}

	// Drain before reading per-node views; Close stops the workers.
	deadline := time.Now().Add(30 * time.Second)
	for {
		if st := srv.Stats(); st.SamplesEstimated >= uint64(total) {
			break
		}
		if time.Now().After(deadline) {
			log.Fatalf("serve drain timed out: %+v", srv.Stats())
		}
		time.Sleep(5 * time.Millisecond)
	}
	check(srv.Close(context.Background()))
	fmt.Printf("served %d replayed samples:\n", total)
	for hour, wl := range day {
		node := fmt.Sprintf("hour-%02d", hour)
		np, ok := srv.NodePower(node)
		if !ok {
			log.Fatalf("node %s missing from the service", node)
		}
		fmt.Printf("  %s %-9s %3d samples, last estimate %6.1f W\n",
			node, wl, np.Samples, np.Power["Total"])
	}
	fmt.Println("OK")
}

// recordAndReplay runs one workload's hour live with a recording tap,
// pushes the trace through the codec, replays it on a fresh machine and
// asserts byte-identical ground truth. Returns the replayed dataset.
func recordAndReplay(hour int, wl string) *align.Dataset {
	cfg := machine.DefaultConfig()
	cfg.NumCPUs = 1
	cfg.ThreadsPerCPU = 2
	cfg.NumDisks = 1
	cfg.Seed = uint64(100 + hour)

	spec, err := workload.ByName(wl)
	check(err)
	if spec.Instances > 2 {
		spec.Instances = 2 // the hour machine has two hardware threads
	}
	spec.StaggerSec = 2

	// Live run with the recording tap.
	rec, err := wtrace.NewRecorder(spec.Name, 1/cfg.Slice.Seconds(), spec.Instances)
	check(err)
	rspec, err := wtrace.RecordSpec(spec, rec)
	check(err)
	live, err := machine.New(cfg, rspec)
	check(err)
	live.Run(hourSec)
	liveDS, err := live.Dataset()
	check(err)

	// Full codec round trip: the replay machine sees only the bytes.
	tr, err := rec.Trace()
	check(err)
	data, err := tr.EncodeBytes()
	check(err)
	dec, err := wtrace.DecodeBytes(data)
	check(err)
	fp, err := dec.Fingerprint()
	check(err)

	replaySpec, err := dec.Spec()
	check(err)
	replay, err := machine.New(cfg, replaySpec)
	check(err)
	replay.Run(hourSec)
	replayDS, err := replay.Dataset()
	check(err)

	liveFP := align.Fingerprint(liveDS)
	if got := align.Fingerprint(replayDS); got != liveFP {
		fmt.Fprintf(os.Stderr, "FAIL: hour %02d %s: replay dataset %s != live %s\n", hour, wl, got, liveFP)
		os.Exit(1)
	}
	fmt.Printf("  hour-%02d %-9s trace %s (%d samples, %d bytes), replay == live (%s)\n",
		hour, wl, fp, tr.Header.Samples, len(data), liveFP)
	return replayDS
}

// train fits the estimator once, from the paper's training trio.
func train() *core.Estimator {
	slog.Info("training the estimator")
	est, err := experiments.TrainTrio(150, 150, 120)
	check(err)
	return est
}

func check(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
