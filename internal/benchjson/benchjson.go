// Package benchjson turns `go test -bench` output into the repo's
// machine-readable benchmark record (BENCH_<date>.json) and compares two
// records for allocation regressions. The JSON is the contract between
// cmd/tdbench, the checked-in baseline, and the CI regression gate; see
// DESIGN.md's Performance section for the workflow.
package benchjson

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"strconv"
	"strings"
)

// Benchmark is one parsed benchmark result line.
type Benchmark struct {
	// Name is the full benchmark name including sub-benchmarks, e.g.
	// "BenchmarkCluster8Nodes/workers=4".
	Name string `json:"name"`
	// Iterations is the measured b.N.
	Iterations int `json:"iterations"`
	// NsPerOp, BytesPerOp and AllocsPerOp are the standard -benchmem
	// triple. AllocsPerOp is the regression-gated number: it is exact
	// and deterministic where ns/op is noisy on shared runners.
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op,omitempty"`
	AllocsPerOp float64 `json:"allocs_per_op,omitempty"`
	// Metrics carries every custom b.ReportMetric unit — the subsystem
	// error percentages and reference Watts the suite reports — keyed by
	// unit name (e.g. "cpu_err%", "gcc_total_W").
	Metrics map[string]float64 `json:"metrics,omitempty"`
	// Notes carries non-numeric annotations a run wants preserved next
	// to its metrics — loadgen files the slowest server-observed trace
	// IDs here so a latency regression in the record links straight to
	// its /debug/tracez stage breakdown.
	Notes map[string]string `json:"notes,omitempty"`
}

// Result is one complete benchmark run.
type Result struct {
	// Date is the run date, YYYY-MM-DD.
	Date string `json:"date"`
	// GoVersion, GOOS, GOARCH and CPU describe the machine the numbers
	// came from; compare allocs/op across machines, ns/op only within
	// one.
	GoVersion string `json:"go_version,omitempty"`
	GOOS      string `json:"goos,omitempty"`
	GOARCH    string `json:"goarch,omitempty"`
	CPU       string `json:"cpu,omitempty"`
	// NumCPU and GOMAXPROCS are the host's logical CPU count and the Go
	// scheduler's parallelism for the run: a parallel benchmark's ns/op
	// means little without them. Records made before they were kept
	// leave them zero.
	NumCPU     int `json:"num_cpu,omitempty"`
	GOMAXPROCS int `json:"gomaxprocs,omitempty"`
	// Benchtime is the -benchtime the suite ran with.
	Benchtime string `json:"benchtime,omitempty"`
	// Benchmarks holds the parsed results in output order.
	Benchmarks []Benchmark `json:"benchmarks"`
}

// Find returns the named benchmark, or nil.
func (r *Result) Find(name string) *Benchmark {
	for i := range r.Benchmarks {
		if r.Benchmarks[i].Name == name {
			return &r.Benchmarks[i]
		}
	}
	return nil
}

// Parse extracts benchmark lines and machine metadata from `go test
// -bench` output. Unrecognized lines are ignored, so the raw output can
// be streamed to a terminal and parsed afterwards.
func Parse(out []byte) (*Result, error) {
	r := &Result{}
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos: "):
			r.GOOS = strings.TrimPrefix(line, "goos: ")
		case strings.HasPrefix(line, "goarch: "):
			r.GOARCH = strings.TrimPrefix(line, "goarch: ")
		case strings.HasPrefix(line, "cpu: "):
			r.CPU = strings.TrimPrefix(line, "cpu: ")
		case strings.HasPrefix(line, "Benchmark"):
			b, ok, err := parseLine(line)
			if err != nil {
				return nil, err
			}
			if ok {
				r.Benchmarks = append(r.Benchmarks, b)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return r, nil
}

// parseLine parses one "BenchmarkX  N  v unit  v unit ..." line. Lines
// that merely start with "Benchmark" but are not result lines (e.g. the
// bare name echoed by -v) report ok=false.
func parseLine(line string) (Benchmark, bool, error) {
	f := strings.Fields(line)
	if len(f) < 4 || len(f)%2 != 0 {
		return Benchmark{}, false, nil
	}
	n, err := strconv.Atoi(f[1])
	if err != nil {
		return Benchmark{}, false, nil
	}
	b := Benchmark{Name: f[0], Iterations: n}
	for i := 2; i+1 < len(f); i += 2 {
		v, err := strconv.ParseFloat(f[i], 64)
		if err != nil {
			return Benchmark{}, false, fmt.Errorf("benchjson: bad value in %q: %w", line, err)
		}
		switch unit := f[i+1]; unit {
		case "ns/op":
			b.NsPerOp = v
		case "B/op":
			b.BytesPerOp = v
		case "allocs/op":
			b.AllocsPerOp = v
		default:
			if b.Metrics == nil {
				b.Metrics = make(map[string]float64)
			}
			b.Metrics[unit] = v
		}
	}
	return b, true, nil
}

// CompareAllocs checks every benchmark present in both records and
// returns one error per allocation regression beyond maxRegress
// (0.20 = +20%). allocs/op is compared because it is deterministic;
// ns/op differences are reported by cmd/tdbench but never gate.
// Benchmarks missing from either side are skipped: the baseline may
// predate a new benchmark, and CI may run a subset of the suite.
func CompareAllocs(baseline, current *Result, maxRegress float64) []error {
	var errs []error
	for i := range current.Benchmarks {
		cur := &current.Benchmarks[i]
		base := baseline.Find(cur.Name)
		if base == nil || base.AllocsPerOp == 0 {
			continue
		}
		limit := base.AllocsPerOp * (1 + maxRegress)
		if cur.AllocsPerOp > limit {
			errs = append(errs, fmt.Errorf(
				"%s: %.0f allocs/op vs baseline %.0f (limit %.0f, +%.0f%%)",
				cur.Name, cur.AllocsPerOp, base.AllocsPerOp, limit,
				100*(cur.AllocsPerOp/base.AllocsPerOp-1)))
		}
	}
	return errs
}

// Decode parses a JSON-encoded Result — the checked-in baseline format.
// Malformed input returns an error, never a panic: baselines come from
// the repository and from artifact downloads, both of which can truncate
// or corrupt.
func Decode(data []byte) (*Result, error) {
	var r Result
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("benchjson: parsing baseline: %w", err)
	}
	return &r, nil
}

// Load reads a Result from a JSON file.
func Load(path string) (*Result, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	r, err := Decode(data)
	if err != nil {
		return nil, fmt.Errorf("benchjson: %s: %w", path, err)
	}
	return r, nil
}

// Write writes the Result as indented JSON with a trailing newline.
func Write(path string, r *Result) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
