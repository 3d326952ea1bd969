package benchjson

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const sampleOutput = `goos: linux
goarch: amd64
pkg: trickledown
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkTable1 	      20	     34186 ns/op	       157.7 gcc_cpu_W	       267.4 gcc_total_W	    8024 B/op	     106 allocs/op
BenchmarkTable3 	       3	  11860021 ns/op	         3.1 cpu_err%	     14258 B/op	     190 allocs/op
BenchmarkCluster8Nodes/workers=4         	       3	  14937388 ns/op	      1301 rack_W	   45698 B/op	     551 allocs/op
BenchmarkSimulationSecond 	       3	   1562943 ns/op	     864 B/op	      13 allocs/op
PASS
ok  	trickledown	2.627s
`

func TestParse(t *testing.T) {
	r, err := Parse([]byte(sampleOutput))
	if err != nil {
		t.Fatal(err)
	}
	if r.GOOS != "linux" || r.GOARCH != "amd64" || !strings.Contains(r.CPU, "Xeon") {
		t.Errorf("metadata = %q/%q/%q", r.GOOS, r.GOARCH, r.CPU)
	}
	if len(r.Benchmarks) != 4 {
		t.Fatalf("parsed %d benchmarks, want 4", len(r.Benchmarks))
	}
	t1 := r.Find("BenchmarkTable1")
	if t1 == nil {
		t.Fatal("BenchmarkTable1 missing")
	}
	if t1.Iterations != 20 || t1.NsPerOp != 34186 || t1.BytesPerOp != 8024 || t1.AllocsPerOp != 106 {
		t.Errorf("Table1 = %+v", t1)
	}
	if t1.Metrics["gcc_cpu_W"] != 157.7 || t1.Metrics["gcc_total_W"] != 267.4 {
		t.Errorf("Table1 metrics = %v", t1.Metrics)
	}
	if got := r.Find("BenchmarkTable3").Metrics["cpu_err%"]; got != 3.1 {
		t.Errorf("subsystem error metric = %v, want 3.1", got)
	}
	if sub := r.Find("BenchmarkCluster8Nodes/workers=4"); sub == nil || sub.AllocsPerOp != 551 {
		t.Errorf("sub-benchmark = %+v", sub)
	}
	if r.Find("nope") != nil {
		t.Error("Find of a missing benchmark should be nil")
	}
}

func TestParseIgnoresNonResultLines(t *testing.T) {
	r, err := Parse([]byte("BenchmarkFoo\nBenchmarkFoo-8   notanumber ns/op\nrandom noise\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Benchmarks) != 0 {
		t.Errorf("parsed %d benchmarks from noise", len(r.Benchmarks))
	}
}

func TestCompareAllocs(t *testing.T) {
	base := &Result{Benchmarks: []Benchmark{
		{Name: "BenchmarkA", AllocsPerOp: 100},
		{Name: "BenchmarkB", AllocsPerOp: 10},
		{Name: "BenchmarkGone", AllocsPerOp: 5},
		{Name: "BenchmarkZero"}, // no alloc data: never gates
	}}
	cur := &Result{Benchmarks: []Benchmark{
		{Name: "BenchmarkA", AllocsPerOp: 119}, // +19%: within the gate
		{Name: "BenchmarkB", AllocsPerOp: 13},  // +30%: regression
		{Name: "BenchmarkNew", AllocsPerOp: 1e6},
		{Name: "BenchmarkZero", AllocsPerOp: 50},
	}}
	errs := CompareAllocs(base, cur, 0.20)
	if len(errs) != 1 {
		t.Fatalf("errors = %v, want exactly the BenchmarkB regression", errs)
	}
	if !strings.Contains(errs[0].Error(), "BenchmarkB") {
		t.Errorf("err = %v", errs[0])
	}
	if errs := CompareAllocs(base, cur, 0.50); len(errs) != 0 {
		t.Errorf("relaxed gate still fails: %v", errs)
	}
}

func TestWriteLoadRoundTrip(t *testing.T) {
	r, err := Parse([]byte(sampleOutput))
	if err != nil {
		t.Fatal(err)
	}
	r.Date = "2026-08-06"
	r.Benchtime = "3x"
	path := filepath.Join(t.TempDir(), "BENCH_2026-08-06.json")
	if err := Write(path, r); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Date != r.Date || got.Benchtime != r.Benchtime || len(got.Benchmarks) != len(r.Benchmarks) {
		t.Errorf("round trip: %+v", got)
	}
	if got.Find("BenchmarkTable1").Metrics["gcc_cpu_W"] != 157.7 {
		t.Error("metrics lost in round trip")
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasSuffix(string(data), "\n") {
		t.Error("missing trailing newline")
	}
	if _, err := Load(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Error("Load of a missing file should fail")
	}
}

// TestMachineShapeRoundTrip checks the machine-shape fields both ways:
// a record carrying them keeps them through Write and Load, and the
// checked-in baselines, which predate them, still load (with zeros) and
// re-encode to the bytes on disk, so the allocation gate reads old and
// new records alike.
func TestMachineShapeRoundTrip(t *testing.T) {
	r, err := Parse([]byte(sampleOutput))
	if err != nil {
		t.Fatal(err)
	}
	r.NumCPU, r.GOMAXPROCS = 8, 2
	path := filepath.Join(t.TempDir(), "BENCH_shape.json")
	if err := Write(path, r); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumCPU != 8 || got.GOMAXPROCS != 2 {
		t.Errorf("machine shape after round trip: num_cpu %d, gomaxprocs %d", got.NumCPU, got.GOMAXPROCS)
	}

	old, err := filepath.Glob(filepath.Join("..", "..", "BENCH_*.json"))
	if err != nil || len(old) == 0 {
		t.Fatalf("no checked-in baselines found (%v)", err)
	}
	for _, p := range old {
		base, err := Load(p)
		if err != nil {
			t.Fatal(err)
		}
		if base.NumCPU != 0 || base.GOMAXPROCS != 0 || len(base.Benchmarks) == 0 {
			t.Errorf("%s: num_cpu %d, gomaxprocs %d, %d benchmarks", p, base.NumCPU, base.GOMAXPROCS, len(base.Benchmarks))
		}
		again := filepath.Join(t.TempDir(), filepath.Base(p))
		if err := Write(again, base); err != nil {
			t.Fatal(err)
		}
		want, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		if data, err := os.ReadFile(again); err != nil || string(data) != string(want) {
			t.Errorf("%s does not re-encode to its checked-in bytes (%v)", p, err)
		}
	}
}
