package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // unsorted on purpose
	}
	return xs
}

func TestTailRule(t *testing.T) {
	cases := []struct {
		n      int
		pct    float64
		value  float64
		beyond int
	}{
		{0, 100, 0, 0},
		{5, 100, 5, 0},      // too few for any percentile: the maximum
		{19, 100, 19, 0},    // p50 would leave 9 beyond
		{20, 50, 10, 10},    // p50 leaves exactly 10 beyond
		{99, 50, 50, 49},    // p90 would leave 9 beyond
		{100, 90, 90, 10},   // p90 leaves exactly 10 beyond
		{999, 90, 900, 99},  // p99 would leave 9 beyond
		{1000, 99, 990, 10}, // p99 leaves exactly 10 beyond
		{9999, 99, 9900, 99},
		{10000, 99.9, 9990, 10},
		{100000, 99.99, 99990, 10},
	}
	for _, c := range cases {
		got := tailOf(seq(c.n))
		if got.Pct != c.pct || got.Value != c.value || got.Beyond != c.beyond || got.N != c.n {
			t.Errorf("n=%d: got p%v=%v with %d of %d beyond, want p%v=%v with %d beyond",
				c.n, got.Pct, got.Value, got.Beyond, got.N, c.pct, c.value, c.beyond)
		}
	}
}

func TestTailCountsFailuresAsMisses(t *testing.T) {
	xs := seq(100)
	for i := 0; i < 11; i++ {
		xs[i] = math.Inf(1)
	}
	if got := tailOf(xs); !math.IsInf(got.Value, 1) {
		t.Fatalf("11 failures in 100 should put +Inf at p90, got %v", got.Value)
	}
	if got := tailOf(seq(100)); got.Label() != "90" || (Tail{Pct: 100}).Label() != "max" {
		t.Fatalf("labels: %q", got.Label())
	}
}

func TestTailDoesNotReorderInput(t *testing.T) {
	xs := []float64{3, 1, 2}
	tailOf(xs)
	median(xs)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatalf("input reordered: %v", xs)
	}
}

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{{nil, 0}, {[]float64{4}, 4}, {[]float64{3, 1, 2}, 2}, {[]float64{4, 1, 3, 2}, 2.5}} {
		if got := median(c.xs); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

func TestValidName(t *testing.T) {
	good := []string{"setup_s", "machine.slice_ns", "serve-mix", "p99", "9lives", "a", "gc.cpu_frac",
		"a12345678901234567890123456789012345678901234567890123456789012"}
	bad := []string{"", "_lead", ".lead", "-lead", "has space", "slash/name", "pct%", "ünï", "x:y",
		"a1234567890123456789012345678901234567890123456789012345678901234"}
	for _, n := range good {
		if !validName(n) {
			t.Errorf("validName(%q) = false, want true", n)
		}
	}
	for _, n := range bad {
		if validName(n) {
			t.Errorf("validName(%q) = true, want false", n)
		}
	}
}

func TestValidUnit(t *testing.T) {
	for _, u := range []string{"ms", "s", "1/s", "count", "%", "B/sim-s", "1"} {
		if !validUnit(u) {
			t.Errorf("validUnit(%q) = false", u)
		}
	}
	for _, u := range []string{"", "m s", "12345678901234567", "µs"} {
		if validUnit(u) {
			t.Errorf("validUnit(%q) = true", u)
		}
	}
}

func TestReportRejectsIllegalMetrics(t *testing.T) {
	for _, name := range []string{"bad name", "dup"} {
		rep := newReport()
		rep.set("dup", "s", 1)
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("set(%q) did not panic", name)
				}
			}()
			rep.set(name, "s", 1)
		}()
	}
	rep := newReport()
	rep.set("tail", "ms", math.Inf(1))
	if rep.result().Correct || rep.metrics["tail"].Value != -1 {
		t.Fatalf("a non-finite metric must fail the run: %+v", rep.result())
	}
}

func TestShapeComparable(t *testing.T) {
	a := Shape{NumCPU: 2, GOMAXPROCS: 2, CPUModel: "x", GoVersion: "go1", Workload: "w", Seed: 1, Seconds: 30}
	b := a
	b.Seed = 2
	if why := a.comparable(b); why != "" {
		t.Fatalf("seeds may differ: %s", why)
	}
	b.NumCPU, b.GOMAXPROCS = 16, 16
	if why := a.comparable(b); why == "" {
		t.Fatal("different core counts must not compare")
	}
}
