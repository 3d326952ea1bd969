// Package trace records named time series produced by experiments (the
// measured and modeled power traces behind the paper's figures) and
// renders them as CSV or as ASCII plots for terminal inspection.
//
// # Concurrency contract
//
// A Trace is NOT safe for concurrent use: Add, Append and the renderers
// take no locks. The parallel experiment runner is safe only because
// every table/figure generation builds its own Trace — series are never
// shared across goroutines. Keep it that way: construct per-goroutine
// Traces and merge (or render) after joining, rather than appending to
// one Trace from multiple workers.
package trace

import (
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// ErrNoSeries is returned when rendering a trace with no data.
var ErrNoSeries = errors.New("trace: no series")

// minSeriesCap is the smallest capacity a growing series allocates, so
// short traces don't pay a doubling ladder of tiny reallocations.
const minSeriesCap = 64

// Series is one named sequence of samples at a fixed 1 Hz rate (the
// paper's sampling rate), indexed by second.
type Series struct {
	Name   string
	Values []float64
	// Grows counts capacity reallocations performed by Append/Reserve.
	// Growth is geometric (doubling), so appending n samples one at a
	// time performs O(log n) grows — and zero when the trace was
	// preallocated to the run horizon. Exposed so regression tests can
	// assert the bound.
	Grows int
}

// Reserve ensures capacity for at least n total samples, doubling from
// the current capacity so repeated appends reallocate O(log n) times.
func (s *Series) Reserve(n int) {
	if n <= cap(s.Values) {
		return
	}
	c := cap(s.Values)
	if c < minSeriesCap {
		c = minSeriesCap
	}
	for c < n {
		c *= 2
	}
	vals := make([]float64, len(s.Values), c)
	copy(vals, s.Values)
	s.Values = vals
	s.Grows++
}

// Append adds one sample, growing capacity geometrically when full.
// Appending through a Series handle obtained once from Add skips the
// per-sample name lookup of Trace.Append — the form the per-row figure
// loops use.
func (s *Series) Append(v float64) {
	if len(s.Values) == cap(s.Values) {
		s.Reserve(len(s.Values) + 1)
	}
	s.Values = append(s.Values, v)
}

// Trace is a set of series sharing a time base. It is not safe for
// concurrent use; see the package comment.
type Trace struct {
	// Title names the experiment, e.g. "Figure 5: Memory Power (Bus) - mcf".
	Title  string
	series []*Series
	// index maps series name to its position in series, so Add/Append
	// stay O(1) per call instead of rescanning the series list (which
	// made building wide multi-series traces O(series²·samples)).
	// Insertion order — what CSV columns and plot legends use — is
	// still carried by the slice.
	index map[string]int
	// horizon is the expected sample count set by Preallocate; series
	// created after the call start at this capacity.
	horizon int
}

// Preallocate sizes every series (current and future) for n samples, so
// a run with a known horizon appends without any mid-run reallocation.
func (t *Trace) Preallocate(n int) {
	if n <= 0 {
		return
	}
	t.horizon = n
	for _, s := range t.series {
		s.Reserve(n)
	}
}

// New returns an empty trace with the given title.
func New(title string) *Trace {
	return &Trace{Title: title, index: make(map[string]int)}
}

// Add creates (or returns the existing) series with the given name.
func (t *Trace) Add(name string) *Series {
	if t.index == nil {
		t.index = make(map[string]int)
	}
	if i, ok := t.index[name]; ok {
		return t.series[i]
	}
	s := &Series{Name: name}
	if t.horizon > 0 {
		s.Values = make([]float64, 0, t.horizon)
	}
	t.index[name] = len(t.series)
	t.series = append(t.series, s)
	return s
}

// Append appends one value to the named series, creating it if needed.
// Inner loops should hoist the lookup: s := t.Add(name) once, then
// s.Append(v) per sample.
func (t *Trace) Append(name string, v float64) {
	t.Add(name).Append(v)
}

// Series returns the named series, or nil if absent.
func (t *Trace) Series(name string) *Series {
	if i, ok := t.index[name]; ok {
		return t.series[i]
	}
	return nil
}

// Names returns the series names in insertion order.
func (t *Trace) Names() []string {
	out := make([]string, len(t.series))
	for i, s := range t.series {
		out[i] = s.Name
	}
	return out
}

// Len returns the length of the longest series.
func (t *Trace) Len() int {
	n := 0
	for _, s := range t.series {
		if len(s.Values) > n {
			n = len(s.Values)
		}
	}
	return n
}

// WriteCSV writes the trace as CSV with a leading seconds column on the
// paper's 1 Hz, 1-based time base. Short series are padded with empty
// cells.
func (t *Trace) WriteCSV(w io.Writer) error {
	if len(t.series) == 0 {
		return ErrNoSeries
	}
	cols := make([]string, 0, len(t.series)+1)
	cols = append(cols, "seconds")
	for _, s := range t.series {
		cols = append(cols, csvEscape(s.Name))
	}
	if _, err := fmt.Fprintln(w, strings.Join(cols, ",")); err != nil {
		return err
	}
	n := t.Len()
	row := make([]string, len(t.series)+1)
	for i := 0; i < n; i++ {
		row[0] = strconv.FormatFloat(float64(i+1), 'g', -1, 64)
		for j, s := range t.series {
			if i < len(s.Values) {
				row[j+1] = fmt.Sprintf("%.4f", s.Values[i])
			} else {
				row[j+1] = ""
			}
		}
		if _, err := fmt.Fprintln(w, strings.Join(row, ",")); err != nil {
			return err
		}
	}
	return nil
}

func csvEscape(s string) string {
	if strings.ContainsAny(s, ",\"\n") {
		return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
	}
	return s
}

// PlotOptions controls ASCII rendering.
type PlotOptions struct {
	// Width is the plot width in columns (default 100).
	Width int
	// Height is the plot height in rows (default 20).
	Height int
}

// WriteASCII renders every series of the trace into one ASCII chart, one
// glyph per series, time on the X axis, value on the Y axis. It is meant
// for eyeballing the figures in a terminal, like the paper's
// measured-vs-modeled plots.
func (t *Trace) WriteASCII(w io.Writer, opt PlotOptions) error {
	if len(t.series) == 0 || t.Len() == 0 {
		return ErrNoSeries
	}
	width := opt.Width
	if width <= 0 {
		width = 100
	}
	height := opt.Height
	if height <= 0 {
		height = 20
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, s := range t.series {
		for _, v := range s.Values {
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
	}
	if hi == lo {
		hi = lo + 1
	}
	glyphs := []byte{'*', '+', 'o', 'x', '#', '@'}
	grid := make([][]byte, height)
	for r := range grid {
		grid[r] = []byte(strings.Repeat(" ", width))
	}
	n := t.Len()
	for si, s := range t.series {
		g := glyphs[si%len(glyphs)]
		for i, v := range s.Values {
			col := 0
			if n > 1 {
				col = i * (width - 1) / (n - 1)
			}
			frac := (v - lo) / (hi - lo)
			row := height - 1 - int(frac*float64(height-1)+0.5)
			if row < 0 {
				row = 0
			}
			if row >= height {
				row = height - 1
			}
			grid[row][col] = g
		}
	}
	if _, err := fmt.Fprintf(w, "%s\n", t.Title); err != nil {
		return err
	}
	legend := make([]string, len(t.series))
	for i, s := range t.series {
		legend[i] = fmt.Sprintf("%c=%s", glyphs[i%len(glyphs)], s.Name)
	}
	if _, err := fmt.Fprintf(w, "[%s]  y:[%.1f, %.1f]W  x:[1, %d]s\n", strings.Join(legend, " "), lo, hi, n); err != nil {
		return err
	}
	for _, row := range grid {
		if _, err := fmt.Fprintf(w, "|%s|\n", row); err != nil {
			return err
		}
	}
	return nil
}
