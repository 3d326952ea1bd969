package report

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"trickledown/internal/experiments"
)

// TestGenerateSmallScale generates the whole report at reduced scales.
// At 0.05 and 0.02 some extension studies have too few rows to fit;
// each must render as an n/a row instead of aborting the report.
func TestGenerateSmallScale(t *testing.T) {
	for _, scale := range []float64{0.12, 0.05, 0.02} {
		t.Run(fmt.Sprint(scale), func(t *testing.T) {
			g := NewGenerator(Options{Scale: scale, Seed: 100, TrainSeed: 10})
			var sections []string
			g.Progress = func(s string) { sections = append(sections, s) }
			var buf bytes.Buffer
			if err := g.Generate(&buf); err != nil {
				t.Fatal(err)
			}
			out := buf.String()
			for _, want := range []string{
				"# Experiments: paper vs. this reproduction",
				"Table 1: Subsystem Average Power",
				"Table 2: Subsystem Power Standard Deviation",
				"Table 3: Integer Average Model Error",
				"Table 4: Floating-Point Average Model Error",
				"Figures 2-7",
				"Figure 4: prefetch vs. non-prefetch",
				"Fitted model equations",
				"read/write-mix memory model",
				"Extension studies",
				"| Disk model on spindown hardware |",
				"Shape checklist",
				"Known divergences",
				"| idle | ours |",
				"| diskload | ours |",
				"cpu (Eq.1)",
				"mem-bus (Eq.3)",
			} {
				if !strings.Contains(out, want) {
					t.Errorf("report missing %q", want)
				}
			}
			if strings.Contains(out, "NaN") {
				t.Error("a failed value rendered as NaN, not n/a")
			}
			if len(sections) < 10 {
				t.Errorf("progress reported only %d sections", len(sections))
			}
			// Every paper row carries a paired paper line.
			if strings.Count(out, "| paper |") < 24 { // 12 workloads x 2 characterization tables
				t.Errorf("too few paper rows: %d", strings.Count(out, "| paper |"))
			}
		})
	}
}

// TestWriteFigures checks the figure files' names and layout; the
// command pins in the root package hold their bytes.
func TestWriteFigures(t *testing.T) {
	g := NewGenerator(Options{Scale: 0.05, Seed: 100, TrainSeed: 10})
	dir := t.TempDir()
	if err := g.WriteFigures(dir); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{
		"figure2", "figure3", "figure4", "figure5", "figure5_l3_failure", "figure6", "figure7",
	} {
		csv, err := os.ReadFile(filepath.Join(dir, name+".csv"))
		if err != nil {
			t.Fatal(err)
		}
		if !strings.HasPrefix(string(csv), "seconds,") {
			t.Errorf("%s.csv header: %.40q", name, csv)
		}
		plot, err := os.ReadFile(filepath.Join(dir, name+".txt"))
		if err != nil {
			t.Fatal(err)
		}
		hasErr := strings.Contains(string(plot), "\naverage error: ")
		if hasErr == (name == "figure4") {
			t.Errorf("%s.txt: average-error line present = %v", name, hasErr)
		}
		if !strings.HasSuffix(string(plot), "\n\n") {
			t.Errorf("%s.txt does not end with a blank line", name)
		}
	}
}

func TestZeroScaleDefaults(t *testing.T) {
	g := NewGenerator(Options{})
	if g.opt.Scale != 1 {
		t.Errorf("Scale defaulted to %v", g.opt.Scale)
	}
	if DefaultOptions().Scale != 1 {
		t.Error("DefaultOptions scale != 1")
	}
}

func TestMarkdownTable(t *testing.T) {
	tbl := &experiments.Table{
		Title:   "Demo",
		Columns: []string{"A", "B"},
		Rows: []experiments.TableRow{
			{Workload: "x", Ours: []float64{1, 2}, Paper: []float64{1.5, 0.0033}},
			{Workload: "y", Ours: []float64{3, 4}},
			{Workload: "z", Ours: []float64{math.NaN(), math.NaN()}},
		},
	}
	var b strings.Builder
	MarkdownTable(&b, tbl, "widgets")
	out := b.String()
	if strings.Contains(out, "NaN") {
		t.Errorf("failed cells must render n/a, not NaN:\n%s", out)
	}
	for _, want := range []string{
		"## Demo", "| workload | series | A | B |", "| x | ours | 1.000 | 2.000 |",
		"|  | paper | 1.500 | 0.003 |", "| y | ours | 3.000 | 4.000 |",
		"| z | ours | n/a | n/a |", "Values in widgets.",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("markdown missing %q:\n%s", want, out)
		}
	}
	// The y row has no paper values and therefore no paper line after it.
	if strings.Count(out, "| paper |") != 1 {
		t.Errorf("paper rows = %d, want 1", strings.Count(out, "| paper |"))
	}
}
