package report

import (
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"trickledown/internal/experiments"
)

// errNoSeries is returned when rendering a figure with no data.
var errNoSeries = errors.New("report: figure has no series")

// The ASCII plot size, in columns and rows.
const (
	plotWidth  = 110
	plotHeight = 18
)

// figureLen returns the length of the figure's longest series.
func figureLen(f *experiments.Figure) int {
	n := 0
	for _, s := range f.Series {
		n = max(n, len(s.Values))
	}
	return n
}

// writeCSV writes the figure as CSV with a leading seconds column on the
// paper's 1 Hz, 1-based time base. Short series are padded with empty
// cells.
func writeCSV(w io.Writer, f *experiments.Figure) error {
	if len(f.Series) == 0 {
		return errNoSeries
	}
	row := make([]string, len(f.Series)+1)
	row[0] = "seconds"
	for j, s := range f.Series {
		row[j+1] = csvEscape(s.Name)
	}
	if _, err := fmt.Fprintln(w, strings.Join(row, ",")); err != nil {
		return err
	}
	for i := 0; i < figureLen(f); i++ {
		row[0] = strconv.Itoa(i + 1)
		for j, s := range f.Series {
			row[j+1] = ""
			if i < len(s.Values) {
				row[j+1] = fmt.Sprintf("%.4f", s.Values[i])
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

// writeASCII renders every series of the figure into one plotWidth by
// plotHeight ASCII chart, one glyph per series, time on the X axis and
// value on the Y axis, for eyeballing the figures in a terminal like the
// paper's measured-vs-modeled plots.
func writeASCII(w io.Writer, f *experiments.Figure) error {
	n := figureLen(f)
	if n == 0 {
		return errNoSeries
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, s := range f.Series {
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
	grid := make([][]byte, plotHeight)
	for r := range grid {
		grid[r] = []byte(strings.Repeat(" ", plotWidth))
	}
	legend := make([]string, len(f.Series))
	for si, s := range f.Series {
		g := glyphs[si%len(glyphs)]
		legend[si] = fmt.Sprintf("%c=%s", g, s.Name)
		for i, v := range s.Values {
			col := 0
			if n > 1 {
				col = i * (plotWidth - 1) / (n - 1)
			}
			row := plotHeight - 1 - int((v-lo)/(hi-lo)*(plotHeight-1)+0.5)
			grid[min(max(row, 0), plotHeight-1)][col] = g
		}
	}
	if _, err := fmt.Fprintf(w, "%s\n[%s]  y:[%.1f, %.1f]W  x:[1, %d]s\n",
		f.Title, strings.Join(legend, " "), lo, hi, n); err != nil {
		return err
	}
	for _, row := range grid {
		if _, err := fmt.Fprintf(w, "|%s|\n", row); err != nil {
			return err
		}
	}
	return nil
}
