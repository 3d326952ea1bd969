package report

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"trickledown/internal/experiments"
)

func figure(title string, s ...experiments.Series) *experiments.Figure {
	return &experiments.Figure{Title: title, Series: s}
}

func series(name string, values []float64) experiments.Series {
	return experiments.Series{Name: name, Values: values}
}

func TestWriteCSV(t *testing.T) {
	var buf bytes.Buffer
	if err := writeCSV(&buf, figure("test", series("a", []float64{1.5, 2.5}),
		series("b", []float64{10}))); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("CSV lines = %d: %q", len(lines), buf.String())
	}
	if lines[0] != "seconds,a,b" {
		t.Errorf("header = %q", lines[0])
	}
	if lines[1] != "1,1.5000,10.0000" {
		t.Errorf("row 1 = %q", lines[1])
	}
	// Short series padded with empty cell.
	if lines[2] != "2,2.5000," {
		t.Errorf("row 2 = %q", lines[2])
	}

	// A longer figure: the time column counts 1, 2, 3, ... with no
	// fraction or exponent, and padding holds to the last row.
	a, b := make([]float64, 101), make([]float64, 100)
	for i := range b {
		a[i], b[i] = float64(i)*1.25, float64(i)*-0.5
	}
	a[100] = 7
	buf.Reset()
	if err := writeCSV(&buf, figure("long", series("a", a), series("b", b))); err != nil {
		t.Fatal(err)
	}
	lines = strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 102 {
		t.Fatalf("CSV lines = %d, want header + 101", len(lines))
	}
	for i, line := range lines[1:] {
		if got, want := strings.SplitN(line, ",", 2)[0], fmt.Sprint(i+1); got != want {
			t.Errorf("row %d time = %q, want %q", i+1, got, want)
		}
	}
	if lines[100] != "100,123.7500,-49.5000" || lines[101] != "101,7.0000," {
		t.Errorf("last rows = %q, %q", lines[100], lines[101])
	}
}

func TestWriteCSVEscaping(t *testing.T) {
	var buf bytes.Buffer
	if err := writeCSV(&buf, figure("test", series(`weird,"name`, []float64{1}))); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"weird,""name"`) {
		t.Errorf("CSV header not escaped: %q", buf.String())
	}
}

func TestWriteCSVEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := writeCSV(&buf, figure("x")); !errors.Is(err, errNoSeries) {
		t.Errorf("err = %v, want errNoSeries", err)
	}
}

func TestCSVEscape(t *testing.T) {
	cases := []struct{ in, want string }{
		{"plain", "plain"},
		{"with,comma", `"with,comma"`},
		{`with"quote`, `"with""quote"`},
		{"with\nnewline", "\"with\nnewline\""},
		{`all,"of
it`, "\"all,\"\"of\nit\""},
		{"", ""},
	}
	for _, c := range cases {
		if got := csvEscape(c.in); got != c.want {
			t.Errorf("csvEscape(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

// plotRows renders f and returns the output's lines: title, legend and
// the plot rows.
func plotRows(t *testing.T, f *experiments.Figure) []string {
	t.Helper()
	var buf bytes.Buffer
	if err := writeASCII(&buf, f); err != nil {
		t.Fatal(err)
	}
	return strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
}

func TestWriteASCII(t *testing.T) {
	measured, modeled := make([]float64, 50), make([]float64, 50)
	for i := range measured {
		measured[i], modeled[i] = float64(i), float64(i)+1
	}
	lines := plotRows(t, figure("Figure X", series("measured", measured),
		series("modeled", modeled)))
	if lines[0] != "Figure X" {
		t.Errorf("title line = %q", lines[0])
	}
	if !strings.Contains(lines[1], "*=measured") || !strings.Contains(lines[1], "+=modeled") {
		t.Errorf("missing legend: %q", lines[1])
	}
	if !strings.Contains(lines[1], "y:[0.0, 50.0]W  x:[1, 50]s") {
		t.Errorf("axis labels: %q", lines[1])
	}
	if len(lines) != 2+plotHeight {
		t.Errorf("line count = %d, want title + legend + %d rows", len(lines), plotHeight)
	}
}

// TestWriteASCIIDimensionClamping checks the plot is plotHeight rows
// of plotWidth columns whatever the data, and that a value outside the
// plotted range (a NaN here) is clamped onto the grid, not a panic.
func TestWriteASCIIDimensionClamping(t *testing.T) {
	for _, vals := range [][]float64{{1, 2}, {1, math.NaN(), 2}} {
		checkPlotSize(t, vals)
	}
}

// TestWriteASCIISingleSample checks a one-sample series renders at the
// fixed plot size.
func TestWriteASCIISingleSample(t *testing.T) {
	checkPlotSize(t, []float64{3})
}

func checkPlotSize(t *testing.T, vals []float64) {
	t.Helper()
	rows := plotRows(t, figure("clamp", series("a", vals)))[2:]
	if len(rows) != plotHeight {
		t.Errorf("%v: %d plot rows, want %d", vals, len(rows), plotHeight)
	}
	for _, r := range rows {
		if len(r) != plotWidth+2 { // | + plotWidth + |
			t.Errorf("%v: row width = %d: %q", vals, len(r), r)
		}
	}
}

func TestWriteASCIIConstantSeries(t *testing.T) {
	lines := plotRows(t, figure("flat", series("a", []float64{5, 5})))
	if !strings.Contains(strings.Join(lines[2:], "\n"), "*") {
		t.Error("constant series not plotted")
	}
}

func TestWriteASCIIAllEqualValues(t *testing.T) {
	vals := make([]float64, 10)
	for i := range vals {
		vals[i] = 42
	}
	lines := plotRows(t, figure("flatline", series("a", vals)))
	// The degenerate range is widened to [42, 43]: glyphs land on the
	// bottom row and the axis label must not be [42.0, 42.0].
	if !strings.Contains(lines[1], "y:[42.0, 43.0]W") {
		t.Errorf("flat-range axis label missing: %q", lines[1])
	}
	if bottom := lines[len(lines)-1]; !strings.Contains(bottom, "*") {
		t.Errorf("flat series not on bottom row: %q", bottom)
	}
}

func TestWriteASCIIEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := writeASCII(&buf, figure("x")); !errors.Is(err, errNoSeries) {
		t.Errorf("err = %v, want errNoSeries", err)
	}
}

// TestWriteASCIIEmptySeriesOnly covers a figure whose only series has
// no values: it is errNoSeries, not an empty grid.
func TestWriteASCIIEmptySeriesOnly(t *testing.T) {
	var buf bytes.Buffer
	if err := writeASCII(&buf, figure("hollow", experiments.Series{Name: "a"})); !errors.Is(err, errNoSeries) {
		t.Errorf("err = %v, want errNoSeries", err)
	}
}
