package machine

import (
	"math"
	"testing"

	"trickledown/internal/align"
	"trickledown/internal/daq"
	"trickledown/internal/iobus"
	"trickledown/internal/perfctr"
	"trickledown/internal/power"
	"trickledown/internal/sim"
	"trickledown/internal/workload"
)

// idleServer builds an idle server: the fleet's 1x2 node (idle on thread
// 0 of one processor, one disk) when small, else the paper's 4x2 server
// with eight idle instances. wrap, when non-nil, rewrites the spec first.
func idleServer(t *testing.T, small bool, seed uint64, wrap func(workload.Spec) workload.Spec) *Server {
	t.Helper()
	spec := mustSpec(t, "idle")
	if wrap != nil {
		spec = wrap(spec)
	}
	cfg := DefaultConfig()
	cfg.Seed = seed
	var srv *Server
	var err error
	if small {
		cfg.NumCPUs, cfg.ThreadsPerCPU, cfg.NumDisks = 1, 2, 1
		srv, err = NewMixed(cfg, []Placement{{Workload: spec.Name, Thread: 0, Spec: &spec}})
	} else {
		srv, err = New(cfg, spec)
	}
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

// undeclared clears the steady declaration, so the machine steps every
// slice of the same demand.
func undeclared(s workload.Spec) workload.Spec {
	s.Steady = nil
	return s
}

// forwarding wraps every generator in a pass-through, the way the
// benchmark's traced pass times the workload layer.
func forwarding(s workload.Spec) workload.Spec {
	inner := s.Make
	s.Make = func(instance int, rng *sim.RNG) workload.Generator {
		return forwardGen{inner(instance, rng)}
	}
	return s
}

type forwardGen struct{ workload.Generator }

func (g forwardGen) Demand(t float64, env workload.Env, rng *sim.RNG) workload.Demand {
	return g.Generator.Demand(t, env, rng)
}

// twoSample accumulates one per-seed statistic for the two paths: the
// seeds are independent, so the means' difference has a standard error
// computed from the per-seed spreads.
type twoSample struct {
	n          [2]float64
	sum, sumSq [2]float64
}

func (ts *twoSample) add(path int, v float64) {
	ts.n[path]++
	ts.sum[path] += v
	ts.sumSq[path] += v * v
}

func (ts *twoSample) mean(path int) float64 { return ts.sum[path] / ts.n[path] }

// z returns the difference of the two means in standard errors; 0 when
// both paths read the same constant.
func (ts *twoSample) z() float64 {
	var se2 float64
	for p := 0; p < 2; p++ {
		m := ts.mean(p)
		v := (ts.sumSq[p] - ts.n[p]*m*m) / (ts.n[p] - 1)
		se2 += math.Max(v, 0) / ts.n[p]
	}
	d := ts.mean(0) - ts.mean(1)
	if d == 0 {
		return 0
	}
	return d / math.Sqrt(se2)
}

// run is one seed's logs.
type run struct {
	records []daq.Record
	samples []perfctr.Sample
}

// TestIdleWindowMatchesSliceStepper holds the closed-form idle window to
// the slice stepper in distribution. For 200 seeds of each idle server
// it runs the registered idle spec, which fast-forwards, and the same
// demand through an undeclared spec, which steps every slice. Per seed
// it reduces the 1 s DAQ records and counter samples to per-rail and
// per-counter statistics, then compares each statistic's mean over the
// seeds between the paths in standard errors of the difference, the
// seeds being independent. It compares:
//   - each rail's record mean and spread (squared deviation from the
//     pooled mean);
//   - the CPU and chipset rails' lag-1 autocovariance and mean squared
//     step between consecutive records, which carry the drift's
//     correlation across windows;
//   - each counter's and each interrupt vector's per-sample mean and
//     spread.
//
// Record.Samples must be equal, record by record.
func TestIdleWindowMatchesSliceStepper(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates 400 idle servers slice by slice")
	}
	const (
		seeds   = 200
		seconds = 10
		// zMax bounds |z| for each of the 80 comparisons: a 4.5σ miss
		// has two-sided probability 7e-6, so a correct stepper fails
		// this test about once in two thousand seed sets.
		zMax = 4.5
	)
	ff0 := mFastForward.Value()
	for _, small := range []bool{true, false} {
		name := "4x2"
		if small {
			name = "1x2"
		}
		t.Run(name, func(t *testing.T) {
			runs := make([][2]run, seeds)
			for i := range runs {
				for p, wrap := range []func(workload.Spec) workload.Spec{nil, undeclared} {
					srv := idleServer(t, small, uint64(1000+i), wrap)
					srv.Run(seconds)
					runs[i][p] = run{srv.DAQ().Records(), srv.Sampler().Samples()}
				}
				ff, sl := runs[i][0].records, runs[i][1].records
				if len(ff) != len(sl) {
					t.Fatalf("seed %d: %d records fast-forwarded, %d stepped", i, len(ff), len(sl))
				}
				for j := range ff {
					if ff[j].Samples != sl[j].Samples {
						t.Fatalf("seed %d record %d: %d samples fast-forwarded, %d stepped", i, j, ff[j].Samples, sl[j].Samples)
					}
				}
			}
			check := func(what string, ts *twoSample) {
				t.Helper()
				if z := ts.z(); math.Abs(z) > zMax {
					t.Errorf("%s: fast-forwarded %.6g, stepped %.6g (z = %.1f)", what, ts.mean(0), ts.mean(1), z)
				}
			}
			// moments compares the per-seed mean, spread about the
			// pooled mean, and (when lag) lag-1 autocovariance and mean
			// squared step of one series per run.
			moments := func(what string, series func(r *run) []float64, lag bool) {
				var pooled, count float64
				for i := range runs {
					for p := range runs[i] {
						for _, v := range series(&runs[i][p]) {
							pooled += v
							count++
						}
					}
				}
				pooled /= count
				var mean, spread, acov, step twoSample
				for i := range runs {
					for p := range runs[i] {
						xs := series(&runs[i][p])
						var m, s, a, d float64
						for j, v := range xs {
							m += v
							s += (v - pooled) * (v - pooled)
							if j > 0 {
								a += (v - pooled) * (xs[j-1] - pooled)
								d += (v - xs[j-1]) * (v - xs[j-1])
							}
						}
						k := float64(len(xs))
						mean.add(p, m/k)
						spread.add(p, s/k)
						acov.add(p, a/(k-1))
						step.add(p, d/(k-1))
					}
				}
				check(what+" mean", &mean)
				check(what+" spread", &spread)
				if lag {
					check(what+" lag-1 autocovariance", &acov)
					check(what+" squared step", &step)
					t.Logf("%s: lag-1 autocorrelation %.4f fast-forwarded, %.4f stepped",
						what, acov.mean(0)/spread.mean(0), acov.mean(1)/spread.mean(1))
				}
			}
			for _, sub := range power.Subsystems() {
				lag := sub == power.SubCPU || sub == power.SubChipset
				moments(sub.String()+" rail", func(r *run) []float64 {
					out := make([]float64, len(r.records))
					for j, rec := range r.records {
						out[j] = rec.Mean[sub]
					}
					return out
				}, lag)
			}
			counters := []struct {
				name string
				get  func(*perfctr.CPUCounts) uint64
			}{
				{"cycles", func(c *perfctr.CPUCounts) uint64 { return c.Cycles }},
				{"halted cycles", func(c *perfctr.CPUCounts) uint64 { return c.HaltedCycles }},
				{"fetched uops", func(c *perfctr.CPUCounts) uint64 { return c.FetchedUops }},
				{"L3 load misses", func(c *perfctr.CPUCounts) uint64 { return c.L3LoadMisses }},
				{"L3 misses", func(c *perfctr.CPUCounts) uint64 { return c.L3Misses }},
				{"TLB misses", func(c *perfctr.CPUCounts) uint64 { return c.TLBMisses }},
				{"bus transactions", func(c *perfctr.CPUCounts) uint64 { return c.BusTx }},
				{"prefetch transactions", func(c *perfctr.CPUCounts) uint64 { return c.BusPrefetchTx }},
				{"DMA/other", func(c *perfctr.CPUCounts) uint64 { return c.DMAOther }},
				{"uncacheable", func(c *perfctr.CPUCounts) uint64 { return c.Uncacheable }},
			}
			for _, ctr := range counters {
				moments(ctr.name, func(r *run) []float64 {
					out := make([]float64, len(r.samples))
					for j := range r.samples {
						for c := range r.samples[j].CPUs {
							out[j] += float64(ctr.get(&r.samples[j].CPUs[c]))
						}
					}
					return out
				}, false)
			}
			for v := iobus.Vector(0); int(v) < iobus.NumVectors; v++ {
				moments(v.String()+" interrupts", func(r *run) []float64 {
					out := make([]float64, len(r.samples))
					for j := range r.samples {
						out[j] = float64(vectorInts(&r.samples[j], v))
					}
					return out
				}, false)
			}
		})
	}
	if mFastForward.Value() == ff0 {
		t.Error("machine_fastforward_slices_total did not move: no window was fast-forwarded")
	}
}

// TestIdleWindowDeterminism holds the fast-forward to the determinism
// contract: an idle server's dataset is the same with an OnSlice
// observer, without one, and with every generator behind a forwarding
// wrapper (the declaration lives on the spec, so a wrapped Make keeps
// it). Observers see every slice; inside a window each reports the
// window's mean truth.
func TestIdleWindowDeterminism(t *testing.T) {
	for _, small := range []bool{true, false} {
		var want string
		for _, c := range []struct {
			name    string
			wrap    func(workload.Spec) workload.Spec
			observe bool
		}{{"plain", nil, false}, {"observed", nil, true}, {"wrapped", forwarding, false}} {
			srv := idleServer(t, small, 15, c.wrap)
			var slices int
			if c.observe {
				srv.OnSlice(func(si SliceInfo) {
					if si.Truth[power.SubCPU] <= 0 {
						t.Fatalf("%s: slice at %.3fs reports no CPU power", c.name, si.Seconds)
					}
					slices++
				})
			}
			srv.Run(10)
			ds, err := srv.Dataset()
			if err != nil {
				t.Fatal(err)
			}
			got := align.Fingerprint(ds)
			if want == "" {
				want = got
			} else if got != want {
				t.Errorf("small=%v %s: fingerprint %s, plain run %s", small, c.name, got, want)
			}
			if c.observe && slices != 10000 {
				t.Errorf("small=%v: observer saw %d slices of 10000", small, slices)
			}
		}
	}
}

// TestSteadyDeclarationChecked rejects, at construction, a steady
// declaration the window cannot step in closed form.
func TestSteadyDeclarationChecked(t *testing.T) {
	for name, mutate := range map[string]func(*workload.Demand){
		"NaN":      func(d *workload.Demand) { d.Active = math.NaN() },
		"+Inf":     func(d *workload.Demand) { d.UCPerMcycle = math.Inf(1) },
		"negative": func(d *workload.Demand) { d.UopsPerCycle = -1 },
		"disk I/O": func(d *workload.Demand) { d.DiskWriteBytes = 4096 },
		"network":  func(d *workload.Demand) { d.NetRxBytes = 1500 },
		"sync":     func(d *workload.Demand) { d.Sync = true },
		"misses":   func(d *workload.Demand) { d.L3MissPerKuop = 1 },
	} {
		spec := mustSpec(t, "idle")
		d := *spec.Steady
		mutate(&d)
		spec.Steady = &d
		if _, err := New(DefaultConfig(), spec); err == nil {
			t.Errorf("%s steady declaration accepted", name)
		}
	}
}

// TestIdleWindowEndsAtThreadStart fast-forwards exactly the slices
// before a busy thread's start, and all of them when the start never
// comes.
func TestIdleWindowEndsAtThreadStart(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NumCPUs, cfg.ThreadsPerCPU, cfg.NumDisks = 1, 2, 1
	for start, want := range map[float64]uint64{2.5: 2500, math.Inf(1): 5000} {
		srv, err := NewMixed(cfg, []Placement{
			{Workload: "idle", Thread: 0},
			{Workload: "gcc", Thread: 1, StartSec: start},
		})
		if err != nil {
			t.Fatal(err)
		}
		ff0 := mFastForward.Value()
		srv.Run(5)
		if got := mFastForward.Value() - ff0; got != want {
			t.Errorf("gcc starting at %vs: %d slices fast-forwarded, want %d", start, got, want)
		}
	}
}
