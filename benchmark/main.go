// Command benchmark measures the repository's three products end to end
// and layer by layer:
//
//   - paper-suite: the 12-workload GOLDEN.json validation suite,
//     simulated and cross-validated (what tdvalidate users wait for);
//   - fleet-night: a 64-node mostly idle fleet stepped by the cluster
//     layer, snapshotted and planned by the scheduler every interval;
//   - serve-mix: the live estimation service driven over loopback HTTP,
//     open loop at a fixed rate with a read stream, then closed loop.
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash benchmark/run.sh --workload paper-suite --seed 1 --seconds 20 --trace 0
//	bash benchmark/run.sh --workload all --seconds 20
//	bash benchmark/run.sh --compare old.json new.json
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 the
// per-layer metrics, timed around the calls it makes into each layer.
// The last line of standard output is one JSON object: correct,
// attempted, failed and metrics.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"
	"strings"
	"time"
)

// runConfig is one run's inputs.
type runConfig struct {
	seed    uint64
	seconds time.Duration
	trace   bool
	// tiny shrinks every workload to a smoke-test size; its numbers are
	// not comparable with a full run.
	tiny bool
}

type workloadFunc func(ctx context.Context, cfg runConfig, rep *report) error

var workloads = map[string]workloadFunc{
	"paper-suite": runPaperSuite,
	"fleet-night": runFleetNight,
	"serve-mix":   runServeMix,
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: "+strings.Join(workloadNames(), ", ")+", or all")
	seed := fs.Uint64("seed", 1, "input seed")
	seconds := fs.Int("seconds", 10, "measured seconds per run")
	trace := fs.Int("trace", 0, "1 reports per-layer metrics instead of end-to-end ones")
	out := fs.String("out", "", "also write the stamped record to this file")
	compare := fs.Bool("compare", false, "compare two records written by --out: --compare OLD NEW")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "benchmark: --compare needs two record files")
			return 2
		}
		if err := compareRecords(stdout, fs.Arg(0), fs.Arg(1)); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
		return 0
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "benchmark: --seconds must be >= 1 and --trace 0 or 1")
		return 2
	}
	cfg := runConfig{seed: *seed, seconds: time.Duration(*seconds) * time.Second, trace: *trace == 1}
	if *name == "all" {
		return runAll(cfg, stdout, stderr)
	}
	if _, ok := workloads[*name]; !ok {
		fmt.Fprintf(stderr, "benchmark: unknown --workload %q (want %s or all)\n", *name, strings.Join(workloadNames(), ", "))
		return 2
	}

	shape := currentShape(*name, *seed, *seconds, cfg.trace)
	fmt.Fprintf(stdout, "# shape: %s\n", shape)
	// Everything a run does is bounded: set-up, the measured phase and
	// the checks together stay well inside three minutes.
	ctx, cancel := context.WithTimeout(context.Background(), 2*cfg.seconds+100*time.Second)
	defer cancel()
	rep, err := measure(ctx, *name, cfg)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %s: %v\n", *name, err)
		return 1
	}
	if err := rep.write(stdout); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	if *out != "" {
		if err := writeRecord(*out, Record{Shape: shape, Result: rep.result()}); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
	}
	if !rep.result().Correct {
		return 1
	}
	return 0
}

// measure runs one workload and, when tracing, the probes that complete
// its per-layer figures.
func measure(ctx context.Context, name string, cfg runConfig) (*report, error) {
	rep := newReport()
	err := workloads[name](ctx, cfg, rep)
	if err == nil && cfg.trace {
		err = probeLayers(ctx, cfg, rep)
	}
	return rep, err
}

// runAll runs every workload in its own process, one after another (so
// each reports its own peak RSS), and prints a combined result whose
// metric names carry the workload as a prefix.
func runAll(cfg runConfig, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	combined := Result{Correct: true, Metrics: map[string]Metric{}}
	for _, name := range workloadNames() {
		fmt.Fprintf(stdout, "## %s\n", name)
		var buf strings.Builder
		cmd := exec.Command(self, "--workload", name,
			"--seed", fmt.Sprint(cfg.seed),
			"--seconds", fmt.Sprint(int(cfg.seconds/time.Second)),
			"--trace", map[bool]string{false: "0", true: "1"}[cfg.trace])
		cmd.Stdout = io.MultiWriter(stdout, &buf)
		cmd.Stderr = stderr
		runErr := cmd.Run()
		var res Result
		if err := json.Unmarshal([]byte(lastLine(buf.String())), &res); err != nil {
			fmt.Fprintf(stderr, "benchmark: %s printed no result: %v\n", name, errors.Join(runErr, err))
			return 1
		}
		combined.Correct = combined.Correct && res.Correct
		combined.Attempted += res.Attempted
		combined.Failed += res.Failed
		for m, v := range res.Metrics {
			combined.Metrics[name+"."+m] = v
		}
	}
	line, err := json.Marshal(combined)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !combined.Correct {
		return 1
	}
	return 0
}

func lastLine(s string) string {
	s = strings.TrimRight(s, "\n")
	if i := strings.LastIndexByte(s, '\n'); i >= 0 {
		return s[i+1:]
	}
	return s
}
