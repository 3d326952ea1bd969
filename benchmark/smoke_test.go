package main

import (
	"context"
	"encoding/json"
	"os"
	"sort"
	"testing"
	"time"
)

// declared is the part of BENCHMARK.json that names metrics.
type declared struct {
	Workloads []struct{ Name string }       `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

// atRoot runs the test from the repository root, where the benchmark
// runs, and returns BENCHMARK.json's declarations.
func atRoot(t *testing.T) declared {
	t.Helper()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(".."); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.Chdir(wd) })
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var d declared
	if err := json.Unmarshal(data, &d); err != nil {
		t.Fatal(err)
	}
	return d
}

func TestDeclarationsMatchCode(t *testing.T) {
	d := atRoot(t)
	var wl, e2e, pl, code []string
	for _, w := range d.Workloads {
		wl = append(wl, w.Name)
	}
	for _, m := range d.EndToEnd {
		e2e = append(e2e, m.Name)
	}
	for _, m := range d.PerLayer {
		pl = append(pl, m.Name)
	}
	for _, l := range perLayer {
		code = append(code, l.name)
	}
	sort.Strings(wl)
	for _, c := range []struct {
		what       string
		json, code []string
	}{{"workloads", wl, workloadNames()}, {"end_to_end", e2e, endToEndNames}, {"per_layer", pl, code}} {
		if len(c.json) != len(c.code) {
			t.Fatalf("%s: BENCHMARK.json has %v, code has %v", c.what, c.json, c.code)
		}
		for i := range c.json {
			if c.json[i] != c.code[i] || !validName(c.json[i]) {
				t.Fatalf("%s: BENCHMARK.json has %v, code has %v", c.what, c.json, c.code)
			}
		}
	}
}

// TestSmoke runs every workload at smoke-test size, untraced and traced,
// and checks each reports exactly the declared metrics, in the declared
// units, with every correctness check passing.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	d := atRoot(t)
	for _, name := range workloadNames() {
		for _, trace := range []bool{false, true} {
			want := d.EndToEnd
			if trace {
				want = d.PerLayer
			}
			ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
			rep, err := measure(ctx, name, runConfig{seed: 7, seconds: time.Second, trace: trace, tiny: true})
			cancel()
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			res := rep.result()
			if !res.Correct {
				t.Errorf("%s trace=%v: incorrect: %v", name, trace, rep.problems)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: reported %d metrics, declared %d", name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%v: %s reported as %+v (present %v), declared in %s", name, trace, m.Name, got, ok, m.Unit)
				}
			}
		}
	}
}
