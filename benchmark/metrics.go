package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"runtime/debug"
	"sort"
	"strings"
)

// Metric is one reported number with its unit.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is the benchmark's machine-readable verdict: the last line of
// standard output.
type Result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

// validName reports whether s is a legal metric or workload name: it
// starts with a letter or digit and is made of at most 64 letters,
// digits, '_', '.' and '-'.
func validName(s string) bool {
	if s == "" || len(s) > 64 {
		return false
	}
	for i, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
		case (r == '_' || r == '.' || r == '-') && i > 0:
		default:
			return false
		}
	}
	return true
}

// validUnit reports whether s is a legal unit: at most 16 letters,
// digits, '_', '/', '%', '.' and '-'.
func validUnit(s string) bool {
	if s == "" || len(s) > 16 {
		return false
	}
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
		case strings.ContainsRune("_/%.-", r):
		default:
			return false
		}
	}
	return true
}

// report collects one run's metrics, operation counts and notes. Notes
// are human-readable lines printed before the result.
type report struct {
	metrics   map[string]Metric
	order     []string
	notes     []string
	attempted int64
	failed    int64
	problems  []string
	speeds    []float64 // CPU shares of every reference run (see hostSpeed)
	rssMB     float64   // largest sampleRSS reading
}

func newReport() *report { return &report{metrics: map[string]Metric{}} }

// set records a metric; an illegal name or unit, or a duplicate, is a
// bug in the benchmark and panics. A non-finite value (a tail that
// includes failed operations) fails the run and reads as -1.
func (r *report) set(name, unit string, v float64) {
	if !validName(name) || !validUnit(unit) {
		panic(fmt.Sprintf("benchmark: illegal metric %q [%s]", name, unit))
	}
	if _, dup := r.metrics[name]; dup {
		panic(fmt.Sprintf("benchmark: metric %q set twice", name))
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		r.op(fmt.Errorf("metric %s is %v", name, v))
		v = -1
	}
	r.metrics[name] = Metric{Value: v, Unit: unit}
	r.order = append(r.order, name)
}

// endToEndNames are the metrics every untraced run reports, whatever
// the workload; BENCHMARK.json declares the same list.
var endToEndNames = []string{
	"setup_s", "throughput_per_s", "latency_ms_p50",
	"est_err_pct", "rss_after_gc_mb", "ops_ok_frac",
}

// setEndToEnd records the end-to-end metrics from a run's set-up times
// (seconds), throughput readings (work per second, one per measured
// unit), median operation latency (ms) and estimation error (percent).
func (r *report) setEndToEnd(setups, throughput []float64, latencyMs, errPct float64) {
	r.set("setup_s", "s", median(setups))
	r.set("throughput_per_s", "1/s", median(throughput))
	r.set("latency_ms_p50", "ms", latencyMs)
	r.set("est_err_pct", "%", errPct)
	r.set("rss_after_gc_mb", "MiB", r.rssMB)
	r.set("ops_ok_frac", "1", 1-float64(r.failed)/float64(r.attempted))
}

// sampleRSS collects garbage, returns the freed memory to the OS and
// keeps the largest resident set size seen. Called where a workload holds
// the most, it reads what the work needs resident, whichever point of its
// cycle the collector had reached; the process's peak RSS also counts
// how far garbage had grown by then, and moves by a third from run to
// run of the same code.
func (r *report) sampleRSS() {
	debug.FreeOSMemory()
	r.rssMB = math.Max(r.rssMB, residentMB())
}

// hostSpeed runs the reference kernel and keeps its CPU share for the
// run's note on host speed.
func (r *report) hostSpeed(par int) (wall, cpu float64) {
	wall, cpu = hostSpeed(par)
	r.speeds = append(r.speeds, cpu)
	return wall, cpu
}

// setTail records a tail metric and notes which percentile it is and how
// many samples it rests on.
func (r *report) setTail(name, unit string, xs []float64) {
	t := tailOf(xs)
	r.set(name, unit, t.Value)
	r.note("%s is p%s of %d samples (%d beyond it)", name, t.Label(), t.N, t.Beyond)
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// op counts one attempted operation; a non-nil err counts it failed.
func (r *report) op(err error) {
	r.attempted++
	if err != nil {
		r.failed++
		r.problems = append(r.problems, err.Error())
	}
}

// ops counts n attempted operations of which failed failed.
func (r *report) ops(n, failed int64, what string) {
	r.attempted += n
	if failed > 0 {
		r.failed += failed
		r.problems = append(r.problems, fmt.Sprintf("%s: %d of %d failed", what, failed, n))
	}
}

func (r *report) result() Result {
	return Result{
		Correct:   r.failed == 0 && r.attempted > 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   r.metrics,
	}
}

// write prints the notes, a metric table and, last, the JSON result.
func (r *report) write(w io.Writer) error {
	for _, n := range r.notes {
		fmt.Fprintf(w, "# %s\n", n)
	}
	if len(r.speeds) > 0 {
		fmt.Fprintf(w, "# reference kernel: median CPU time %.3gx its nominal %gs over %d runs, interquartile %.3g-%.3gx\n",
			median(r.speeds), refNominalSec, len(r.speeds), percentile(r.speeds, 25), percentile(r.speeds, 75))
	}
	for _, p := range r.problems {
		fmt.Fprintf(w, "# FAILED: %s\n", p)
	}
	frac := 0.0
	if r.attempted > 0 {
		frac = float64(r.failed) / float64(r.attempted)
	}
	fmt.Fprintf(w, "%-28s %14d %s\n", "ops_attempted", r.attempted, "count")
	fmt.Fprintf(w, "%-28s %14.6g %s\n", "ops_failed_frac", frac, "1")
	for _, name := range r.order {
		m := r.metrics[name]
		fmt.Fprintf(w, "%-28s %14.6g %s\n", name, m.Value, m.Unit)
	}
	line, err := json.Marshal(r.result())
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// tailLadder is the percentile ladder the tail rule climbs, highest
// first.
var tailLadder = []float64{99.99, 99.9, 99, 90, 50}

// minBeyond is how many samples must lie beyond a percentile for the
// tail rule to report it.
const minBeyond = 10

// Tail is a tail-latency reading: the highest ladder percentile with at
// least minBeyond samples beyond it.
type Tail struct {
	Pct    float64 // percentile; 100 means the maximum (too few samples)
	Value  float64
	N      int // samples
	Beyond int // samples strictly beyond the percentile's rank
}

// Label renders the percentile compactly ("99", "99.9", "max").
func (t Tail) Label() string {
	if t.Pct >= 100 {
		return "max"
	}
	return fmt.Sprintf("%g", t.Pct)
}

// rank returns the 0-based nearest-rank index of percentile p in n
// sorted samples.
func rank(p float64, n int) int {
	// The small slack keeps float error (99.9/100*10000 is a hair above
	// 9990) from moving the rank up by one.
	k := int(math.Ceil(p*float64(n)/100-1e-9)) - 1
	if k < 0 {
		k = 0
	}
	if k >= n {
		k = n - 1
	}
	return k
}

// tailOf applies the tail rule. xs need not be sorted and is not
// modified. Infinite values (failed operations) sort last.
func tailOf(xs []float64) Tail {
	n := len(xs)
	if n == 0 {
		return Tail{Pct: 100}
	}
	s := sortedCopy(xs)
	for _, p := range tailLadder {
		k := rank(p, n)
		if beyond := n - 1 - k; beyond >= minBeyond {
			return Tail{Pct: p, Value: s[k], N: n, Beyond: beyond}
		}
	}
	return Tail{Pct: 100, Value: s[n-1], N: n}
}

// percentile returns the nearest-rank percentile p of xs (0 if empty).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sortedCopy(xs)[rank(p, len(xs))]
}

// median is the 50th percentile by interpolation between the two middle
// values, so an even count of equal-weight passes reads as their middle.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := sortedCopy(xs)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}
