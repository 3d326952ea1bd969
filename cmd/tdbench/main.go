// Command tdbench runs the repo's fixed benchmark suite reproducibly
// and records the result as machine-readable JSON, so performance work
// on the slice-stepping hot path is argued with checked-in numbers
// instead of anecdotes.
//
// It shells out to `go test -bench -benchmem`, streams the raw output
// through, parses it (internal/benchjson), stamps the run with date and
// machine metadata (CPU model, logical CPUs, GOMAXPROCS), and writes
// BENCH_<date>.json. With -baseline it compares allocs/op against a
// previous record and exits non-zero on a regression beyond -maxregress
// — the CI gate. With -profile it also captures CPU and allocation
// profiles for pprof.
//
// Usage:
//
//	tdbench                                  # run suite, write BENCH_<date>.json
//	tdbench -baseline BENCH_2026-08-06.json  # also gate allocs/op at +20%
//	tdbench -profile prof                    # also write prof.cpu / prof.mem
//	tdbench -bench 'BenchmarkTable1$' -benchtime 10x -o /tmp/out.json
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"time"

	"trickledown/internal/benchjson"
)

// defaultSuite is the fixed benchmark set a BENCH_*.json records: the
// two regeneration paths the PR optimized (tables and figures carry the
// subsystem error metrics), the substrate hot path, parallel cluster
// stepping, the per-sample estimation cost, and the fleet-scale numbers
// (1k-node sharded stepping throughput, 10k-node construction).
const defaultSuite = "BenchmarkTable1$|BenchmarkTable3$|BenchmarkTable4$|" +
	"BenchmarkFigure5$|BenchmarkSimulationSecond$|BenchmarkCluster8Nodes$|" +
	"BenchmarkEstimate$|BenchmarkExtractMetrics$|BenchmarkTrain$|" +
	"BenchmarkFleet1kNodes$|BenchmarkClusterConstruct10k$"

func main() {
	log.SetFlags(0)
	log.SetPrefix("tdbench: ")
	bench := flag.String("bench", defaultSuite, "benchmark regexp passed to go test -bench")
	benchtime := flag.String("benchtime", "3x", "iterations or duration per benchmark (go test -benchtime)")
	out := flag.String("o", "", "output JSON path (default BENCH_<date>.json)")
	baseline := flag.String("baseline", "", "baseline BENCH_*.json to gate allocs/op against")
	maxRegress := flag.Float64("maxregress", 0.20, "allowed fractional allocs/op growth over the baseline")
	profile := flag.String("profile", "", "profile path prefix; writes <prefix>.cpu and <prefix>.mem")
	pkg := flag.String("pkg", ".", "package to benchmark")
	flag.Parse()

	date := time.Now().Format("2006-01-02")
	path := *out
	if path == "" {
		path = fmt.Sprintf("BENCH_%s.json", date)
	}

	args := []string{"test", "-run=NONE", "-bench=" + *bench,
		"-benchmem", "-benchtime=" + *benchtime}
	if *profile != "" {
		args = append(args, "-cpuprofile="+*profile+".cpu", "-memprofile="+*profile+".mem")
	}
	args = append(args, *pkg)
	log.Printf("go %s", strings.Join(args, " "))

	cmd := exec.Command("go", args...)
	var buf strings.Builder
	cmd.Stdout = io.MultiWriter(os.Stdout, &buf)
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		log.Fatalf("benchmark run failed: %v", err)
	}

	res, err := benchjson.Parse([]byte(buf.String()))
	if err != nil {
		log.Fatal(err)
	}
	if len(res.Benchmarks) == 0 {
		log.Fatalf("no benchmarks matched %q", *bench)
	}
	res.Date = date
	res.GoVersion = runtime.Version()
	res.NumCPU = runtime.NumCPU()
	res.GOMAXPROCS = runtime.GOMAXPROCS(0)
	res.Benchtime = *benchtime
	if err := benchjson.Write(path, res); err != nil {
		log.Fatal(err)
	}
	log.Printf("wrote %s (%d benchmarks)", path, len(res.Benchmarks))
	if *profile != "" {
		log.Printf("profiles: %s.cpu %s.mem (inspect with `go tool pprof`)", *profile, *profile)
	}

	if *baseline == "" {
		return
	}
	base, err := benchjson.Load(*baseline)
	if err != nil {
		log.Fatal(err)
	}
	errs := benchjson.CompareAllocs(base, res, *maxRegress)
	for _, e := range errs {
		log.Printf("REGRESSION: %v", e)
	}
	if len(errs) > 0 {
		log.Fatalf("%d allocation regression(s) vs %s", len(errs), *baseline)
	}
	log.Printf("allocs/op within +%.0f%% of %s for every benchmark", *maxRegress*100, *baseline)
}
