package trace

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
)

func TestAddAndAppend(t *testing.T) {
	tr := New("test")
	tr.Append("measured", 1)
	tr.Append("measured", 2)
	tr.Append("modeled", 3)
	if got := tr.Series("measured"); got == nil || len(got.Values) != 2 {
		t.Fatalf("measured series = %+v", got)
	}
	if tr.Series("missing") != nil {
		t.Error("Series(missing) should be nil")
	}
	if tr.Len() != 2 {
		t.Errorf("Len = %d, want 2", tr.Len())
	}
	names := tr.Names()
	if len(names) != 2 || names[0] != "measured" || names[1] != "modeled" {
		t.Errorf("Names = %v", names)
	}
}

func TestAddIdempotent(t *testing.T) {
	tr := New("test")
	a := tr.Add("s")
	b := tr.Add("s")
	if a != b {
		t.Error("Add created a duplicate series")
	}
}

func TestWriteCSV(t *testing.T) {
	tr := New("test")
	tr.Append("a", 1.5)
	tr.Append("a", 2.5)
	tr.Append("b", 10)
	var buf bytes.Buffer
	if err := tr.WriteCSV(&buf); err != nil {
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

	// A longer trace: the time column counts 1, 2, 3, ... with no
	// fraction or exponent, and padding holds to the last row.
	long := New("long")
	for i := 0; i < 100; i++ {
		long.Append("a", float64(i)*1.25)
		long.Append("b", float64(i)*-0.5)
	}
	long.Append("a", 7)
	buf.Reset()
	if err := long.WriteCSV(&buf); err != nil {
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
	tr := New("test")
	tr.Append(`weird,"name`, 1)
	var buf bytes.Buffer
	if err := tr.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"weird,""name"`) {
		t.Errorf("CSV header not escaped: %q", buf.String())
	}
}

func TestWriteCSVEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := New("x").WriteCSV(&buf); !errors.Is(err, ErrNoSeries) {
		t.Errorf("err = %v, want ErrNoSeries", err)
	}
}

func TestWriteASCII(t *testing.T) {
	tr := New("Figure X")
	for i := 0; i < 50; i++ {
		tr.Append("measured", float64(i))
		tr.Append("modeled", float64(i)+1)
	}
	var buf bytes.Buffer
	if err := tr.WriteASCII(&buf, PlotOptions{Width: 40, Height: 10}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "Figure X") {
		t.Error("missing title")
	}
	if !strings.Contains(out, "*=measured") || !strings.Contains(out, "+=modeled") {
		t.Errorf("missing legend: %q", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	// title + legend + 10 rows
	if len(lines) != 12 {
		t.Errorf("line count = %d", len(lines))
	}
	for _, l := range lines[2:] {
		if len(l) != 42 { // | + 40 + |
			t.Errorf("row width = %d: %q", len(l), l)
		}
	}
}

func TestWriteASCIIConstantSeries(t *testing.T) {
	tr := New("flat")
	tr.Append("a", 5)
	tr.Append("a", 5)
	var buf bytes.Buffer
	if err := tr.WriteASCII(&buf, PlotOptions{}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "*") {
		t.Error("constant series not plotted")
	}
}

func TestWriteASCIIEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := New("x").WriteASCII(&buf, PlotOptions{}); !errors.Is(err, ErrNoSeries) {
		t.Errorf("err = %v, want ErrNoSeries", err)
	}
}

func TestWriteASCIISingleSample(t *testing.T) {
	tr := New("one")
	tr.Append("a", 3)
	var buf bytes.Buffer
	if err := tr.WriteASCII(&buf, PlotOptions{Width: 10, Height: 4}); err != nil {
		t.Fatal(err)
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

func TestWriteASCIIEmptySeriesOnly(t *testing.T) {
	// A trace whose only series has no values: Len()==0 must be
	// reported as ErrNoSeries, not render an empty grid.
	tr := New("hollow")
	tr.Add("a")
	var buf bytes.Buffer
	if err := tr.WriteASCII(&buf, PlotOptions{}); !errors.Is(err, ErrNoSeries) {
		t.Errorf("err = %v, want ErrNoSeries", err)
	}
}

func TestWriteASCIIAllEqualValues(t *testing.T) {
	tr := New("flatline")
	for i := 0; i < 10; i++ {
		tr.Append("a", 42)
	}
	var buf bytes.Buffer
	if err := tr.WriteASCII(&buf, PlotOptions{Width: 20, Height: 5}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	// The degenerate range is widened to [42, 43]: glyphs land on the
	// bottom row and the axis label must not be [42.0, 42.0].
	if !strings.Contains(out, "y:[42.0, 43.0]W") {
		t.Errorf("flat-range axis label missing: %q", out)
	}
	rows := strings.Split(strings.TrimSpace(out), "\n")
	if bottom := rows[len(rows)-1]; !strings.Contains(bottom, "*") {
		t.Errorf("flat series not on bottom row: %q", bottom)
	}
}

func TestWriteASCIIDimensionClamping(t *testing.T) {
	tr := New("clamp")
	tr.Append("a", 1)
	tr.Append("a", 2)
	for _, opt := range []PlotOptions{
		{Width: 0, Height: 0},   // defaults: 100 x 20
		{Width: -5, Height: -5}, // negative also defaults
		{Width: 1, Height: 1},   // degenerate but must not panic
	} {
		var buf bytes.Buffer
		if err := tr.WriteASCII(&buf, opt); err != nil {
			t.Fatalf("opts %+v: %v", opt, err)
		}
		rows := strings.Split(strings.TrimSpace(buf.String()), "\n")
		wantW, wantH := opt.Width, opt.Height
		if wantW <= 0 {
			wantW = 100
		}
		if wantH <= 0 {
			wantH = 20
		}
		if got := len(rows) - 2; got != wantH {
			t.Errorf("opts %+v: %d plot rows, want %d", opt, got, wantH)
		}
		if got := len(rows[2]) - 2; got != wantW {
			t.Errorf("opts %+v: row width %d, want %d", opt, got, wantW)
		}
	}
}

// TestPerGoroutineTracesRace is the -race regression guard for the
// documented concurrency contract: parallel experiment code builds one
// Trace per goroutine and never shares it, so building and rendering
// many traces concurrently must be race-clean.
func TestPerGoroutineTracesRace(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			tr := New("goroutine-local")
			for i := 0; i < 1000; i++ {
				tr.Append("measured", float64(i+g))
				tr.Append("modeled", float64(i-g))
			}
			var buf bytes.Buffer
			if err := tr.WriteCSV(&buf); err != nil {
				t.Error(err)
			}
			if err := tr.WriteASCII(&buf, PlotOptions{Width: 30, Height: 8}); err != nil {
				t.Error(err)
			}
		}(g)
	}
	wg.Wait()
}

// TestSeriesGrowthIsLogarithmic pins the geometric-growth contract at
// the paper's largest figure scale (the ~29-minute Figure 5 mcf sweep,
// 1740 one-hertz samples): appending one sample at a time must
// reallocate O(log n) times, never per append.
func TestSeriesGrowthIsLogarithmic(t *testing.T) {
	const n = 1740
	tr := New("growth")
	s := tr.Add("Measured")
	for i := 0; i < n; i++ {
		s.Append(float64(i))
	}
	if len(s.Values) != n {
		t.Fatalf("len = %d, want %d", len(s.Values), n)
	}
	// Doubling from minSeriesCap: 64 -> 128 -> ... -> 2048 is 6 grows.
	maxGrows := 1
	for c := minSeriesCap; c < n; c *= 2 {
		maxGrows++
	}
	if s.Grows > maxGrows {
		t.Errorf("appending %d samples grew %d times, want <= %d (geometric)", n, s.Grows, maxGrows)
	}
	if s.Grows == 0 {
		t.Error("expected at least one grow without preallocation")
	}

	// A run with a known horizon preallocates and never grows mid-run,
	// for series created before and after the Preallocate call.
	pre := New("preallocated")
	before := pre.Add("Measured")
	pre.Preallocate(n)
	after := pre.Add("Modeled")
	for i := 0; i < n; i++ {
		before.Append(float64(i))
		after.Append(float64(i))
	}
	if before.Grows != 1 { // the single Reserve(n) from Preallocate
		t.Errorf("pre-existing series grew %d times, want 1 (the Preallocate reserve)", before.Grows)
	}
	if after.Grows != 0 {
		t.Errorf("horizon-sized series grew %d times, want 0", after.Grows)
	}
}
