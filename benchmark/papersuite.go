package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"strings"
	"time"

	"trickledown/internal/align"
	"trickledown/internal/core"
	"trickledown/internal/machine"
	"trickledown/internal/sim"
	"trickledown/internal/validate"
	"trickledown/internal/workload"
)

// goldenPath is the checked-in conformance corpus, relative to the
// repository root the benchmark runs from.
const goldenPath = "GOLDEN.json"

// suiteCase is one validation workload at the corpus's scale.
type suiteCase struct {
	spec    workload.Spec
	seconds float64
}

// suiteCases scales each workload the way the experiments runner does
// for validation traces: stagger times scale, durations scale with a
// 30-second floor.
func suiteCases(names []string, scale float64) ([]suiteCase, error) {
	out := make([]suiteCase, len(names))
	for i, name := range names {
		spec, err := workload.ByName(name)
		if err != nil {
			return nil, err
		}
		spec.StaggerSec *= scale
		out[i] = suiteCase{spec: spec, seconds: math.Max(30, spec.DefaultDuration*scale)}
	}
	return out, nil
}

// datasetSource is the benchmark-owned validate.Source: it serves the
// datasets one pass simulated.
type datasetSource map[string]*align.Dataset

func (s datasetSource) ValidationDataset(name string) (*align.Dataset, error) {
	ds, ok := s[name]
	if !ok {
		return nil, fmt.Errorf("no dataset for %s", name)
	}
	return ds, nil
}

// suitePass is what one pass over the suite measured. Costs marked
// nominal are CPU time scaled to the nominal host (see hostSpeed).
type suitePass struct {
	wall    float64   // seconds to simulate, merge and cross-validate
	cpu     float64   // nominal CPU seconds over the same work
	opMs    []float64 // nominal CPU ms to simulate and merge each workload, indexed like paperSuite.cases
	simSec  float64
	report  *validate.Report
	tracers []*sliceTracer
	src     datasetSource
	trainS  float64 // seconds inside core.Train
	mergeS  float64 // seconds inside Dataset (align.Merge)
	merges  int
	allocs  uint64 // heap objects allocated while stepping
	bytes   uint64
	gcCPU   float64
	busyCPU float64
}

// paperSuite holds a run's fixed configuration.
type paperSuite struct {
	golden  *validate.Golden
	cases   []suiteCase
	order   []int // simulation order, drawn from the seed
	checkFP bool  // compare fingerprints with the corpus
	winLen  int   // slices recorded per workload for the layer replay
	// minPasses is the fewest untraced passes a run makes, however slow
	// the host: nine passes give the latency tail at least 108 samples,
	// so it stays the 90th percentile.
	minPasses int
}

func newPaperSuite(cfg runConfig) (*paperSuite, error) {
	g, err := validate.LoadGolden(goldenPath)
	if err != nil {
		return nil, err
	}
	names, scale := g.Workloads, g.Scale
	ps := &paperSuite{golden: g, checkFP: true, winLen: 1000, minPasses: 9}
	if cfg.tiny {
		// A smoke-sized suite: four workloads at the 30-second floor, two
		// of them with disk traffic so every fold can fit the disk model.
		// The corpus fingerprints do not apply to it.
		names, scale = []string{"idle", "gcc", "dbt-2", "diskload"}, 0.01
		ps.checkFP, ps.winLen, ps.minPasses = false, 200, 1
	}
	if ps.cases, err = suiteCases(names, scale); err != nil {
		return nil, err
	}
	ps.order = permutation(cfg.seed, len(ps.cases))
	return ps, nil
}

// machineConfig is the default 4x2 server at the corpus seed.
func (ps *paperSuite) machineConfig() machine.Config {
	mc := machine.DefaultConfig()
	mc.Seed = ps.golden.Seed
	return mc
}

// build makes one default server per workload with machine.New. When
// traced, each server gets a slice tracer on OnSlice. When windows is
// non-nil the generators are wrapped too, for the in-situ workload timer
// and one recording window per workload; the wrapper costs the stepper
// a few hundred ns a slice, so only that one pass carries it.
func (ps *paperSuite) build(traced bool, windows *[]*window) ([]*machine.Server, []*sliceTracer, error) {
	mc := ps.machineConfig()
	servers := make([]*machine.Server, len(ps.cases))
	tracers := make([]*sliceTracer, len(ps.cases))
	for i, c := range ps.cases {
		spec := c.spec
		if traced {
			var win *window
			if windows != nil {
				slices := int64(c.seconds / mc.Slice.Seconds())
				win = &window{name: spec.Name, bias: spec.ChipsetDomainBias, machine: mc, start: slices / 2}
				*windows = append(*windows, win)
			}
			tracers[i] = newSliceTracer(mc.NumCPUs*mc.ThreadsPerCPU, win, ps.winLen)
			if win != nil {
				spec = tracers[i].wrap(spec)
			}
		}
		srv, err := machine.New(mc, spec)
		if err != nil {
			return nil, nil, err
		}
		if traced {
			srv.OnSlice(tracers[i].onSlice)
		}
		servers[i] = srv
	}
	return servers, tracers, nil
}

// pass simulates a fresh set of servers one at a time in the seeded
// order on this goroutine, merges each log into a dataset, checks its
// fingerprint, and cross-validates the five subsystem models over the
// datasets. A traced pass also times the layers.
func (ps *paperSuite) pass(ctx context.Context, traced bool, windows *[]*window, rep *report) (*suitePass, error) {
	p := &suitePass{src: datasetSource{}, opMs: make([]float64, len(ps.cases))}
	servers, tracers, err := ps.build(traced, windows)
	if err != nil {
		return nil, err
	}

	// Each workload, and the cross-validation, is followed by a reference
	// run whose time is left out of the pass, as is the RSS sample.
	var refWall, refCPU int64
	var speeds []float64
	reference := func() {
		w0, c0 := nanotime(), cputime()
		_, speed := rep.hostSpeed(1)
		refWall += nanotime() - w0
		refCPU += cputime() - c0
		speeds = append(speeds, speed)
	}
	gcm := newGCMeter()
	var ms0, ms1 runtime.MemStats
	t1, cpu1 := nanotime(), cputime()
	for _, i := range ps.order {
		c, srv := ps.cases[i], servers[i]
		name := c.spec.Name
		if traced {
			runtime.ReadMemStats(&ms0)
		}
		gc0, busy0 := gcm.read()
		rc0 := cputime()
		if err := srv.RunContext(ctx, c.seconds); err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		p.simSec += c.seconds
		if traced {
			gc1, busy1 := gcm.read()
			p.gcCPU += gc1 - gc0
			p.busyCPU += busy1 - busy0
			runtime.ReadMemStats(&ms1)
			p.allocs += ms1.Mallocs - ms0.Mallocs
			p.bytes += ms1.TotalAlloc - ms0.TotalAlloc
		}
		m0 := nanotime()
		ds, err := srv.Dataset()
		m1, mc1 := nanotime(), cputime()
		p.mergeS += float64(m1-m0) / 1e9
		p.merges++
		p.opMs[i] = float64(mc1-rc0) / 1e6
		reference()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		p.src[name] = ds
		if ps.checkFP {
			got, want := align.Fingerprint(ds), ps.golden.Fingerprints[name]
			var err error
			if got != want {
				err = fmt.Errorf("paper-suite: %s fingerprint %s, corpus has %s", name, got, want)
			}
			rep.op(err)
		}
	}
	w0, c0 := nanotime(), cputime()
	rep.sampleRSS() // every server and dataset of the pass is live here
	refWall += nanotime() - w0
	refCPU += cputime() - c0
	report, err := validate.CrossValidate(ctx, p.src, ps.options(p))
	if err != nil {
		return nil, err
	}
	t2, cpu2 := nanotime(), cputime()
	reference()
	speed := median(speeds)
	for i := range p.opMs {
		p.opMs[i] /= speed
	}
	p.wall = float64(t2-t1-refWall) / 1e9
	p.cpu = float64(cpu2-cpu1-refCPU) / 1e9 / speed
	p.report = report
	if traced {
		p.tracers = tracers
	}
	return p, nil
}

// options configures cross-validation like tdvalidate at the corpus's
// seed and scale, on one worker, with core.Train timed.
func (ps *paperSuite) options(p *suitePass) validate.Options {
	names := make([]string, len(ps.cases))
	for i, c := range ps.cases {
		names[i] = c.spec.Name
	}
	return validate.Options{
		Seed:      ps.golden.Seed,
		Scale:     ps.golden.Scale,
		Workloads: names,
		Workers:   1,
		Train: func(spec core.ModelSpec, ds *align.Dataset) (*core.Model, error) {
			t0 := nanotime()
			m, err := core.Train(spec, ds)
			p.trainS += float64(nanotime()-t0) / 1e9
			return m, err
		},
	}
}

// meanErrPct is the mean held-out Eq. 6 error over the five subsystems.
func meanErrPct(r *validate.Report) float64 {
	var xs []float64
	for _, s := range r.Subsystems {
		xs = append(xs, s.MeanErrPct)
	}
	return sum(xs) / float64(len(xs))
}

func runPaperSuite(ctx context.Context, cfg runConfig, rep *report) error {
	// Set-up is loading the corpus and building the twelve servers; it is
	// short, so it is timed many times and the median reported.
	var ps *paperSuite
	setups, err := nominalSetups(rep, 51, func() error {
		var err error
		if ps, err = newPaperSuite(cfg); err != nil {
			return err
		}
		_, _, err = ps.build(false, nil)
		return err
	})
	if err != nil {
		return err
	}
	names := make([]string, len(ps.order))
	for i, j := range ps.order {
		names[i] = ps.cases[j].spec.Name
	}
	rep.note("paper-suite: %d workloads at seed %d scale %g, simulated in order %s",
		len(ps.cases), ps.golden.Seed, ps.golden.Scale, strings.Join(names, ","))

	// Correctness: the conformance checks run once, on the first pass's
	// datasets and outside any timed pass. Each pass's report is gated
	// against the corpus as soon as the pass ends, and its datasets are
	// then dropped, so memory does not grow with the number of passes.
	var checks []validate.CheckResult
	gate := func(p *suitePass) error {
		if checks == nil {
			var err error
			if checks, err = validate.Checks(p.src, ps.options(&suitePass{})); err != nil {
				return fmt.Errorf("conformance checks: %w", err)
			}
		}
		p.report.Checks = checks
		var bad []string
		if ps.checkFP {
			bad = ps.golden.Check(p.report)
		} else if !p.report.ChecksOK() || p.report.Coverage() < 1 {
			bad = []string{"conformance checks or coverage failed"}
		}
		var err error
		if len(bad) > 0 {
			err = fmt.Errorf("paper-suite: corpus gate: %s", strings.Join(bad, "; "))
		}
		rep.op(err)
		p.src = nil
		return nil
	}

	var plain, traced []*suitePass
	start := time.Now()
	untracedUntil, deadline := start.Add(cfg.seconds), start.Add(cfg.seconds)
	if cfg.trace {
		untracedUntil = start.Add(cfg.seconds / 2)
	}
	minPasses := ps.minPasses
	if cfg.trace {
		minPasses = 1 // a traced run reports no end-to-end latency
	}
	for len(plain) < minPasses || time.Now().Before(untracedUntil) {
		p, err := ps.pass(ctx, false, nil, rep)
		if err == nil {
			err = gate(p)
		}
		if err != nil {
			return err
		}
		plain = append(plain, p)
	}
	var windows []*window
	for cfg.trace && (len(traced) == 0 || time.Now().Before(deadline)) {
		var w *[]*window
		if len(traced) == 0 {
			w = &windows
		}
		p, err := ps.pass(ctx, true, w, rep)
		if err == nil {
			err = gate(p)
		}
		if err != nil {
			return err
		}
		traced = append(traced, p)
	}
	rep.note("paper-suite: %d untraced and %d traced passes; %d conformance checks", len(plain), len(traced), len(checks))

	if !cfg.trace {
		var rates []float64
		for _, p := range plain {
			rates = append(rates, p.simSec/p.cpu)
		}
		rep.note("paper-suite: throughput is simulated server-seconds per nominal CPU second of a pass (simulate, merge, cross-validate); latency is the median over workloads of each workload's median nominal CPU ms to simulate and merge")
		rep.setEndToEnd(setups, rates, suiteLatencyMs(ps, plain), meanErrPct(plain[0].report))
		return nil
	}
	var lat []float64
	for _, p := range plain {
		lat = append(lat, p.opMs...)
	}
	rep.setTail("latency_ms_tail", "ms", lat)
	return reportSuiteLayers(plain, traced, windows, rep)
}

// suiteLatencyMs is the median over workloads of each workload's median
// cost across passes. The twelve workloads differ in length, so the
// median of all samples pooled would sit on the edge between two of them
// and jump with either one's outliers.
func suiteLatencyMs(ps *paperSuite, passes []*suitePass) float64 {
	perCase := make([]float64, len(ps.cases))
	for i := range ps.cases {
		var xs []float64
		for _, p := range passes {
			xs = append(xs, p.opMs[i])
		}
		perCase[i] = median(xs)
	}
	return median(perCase)
}

// reportSuiteLayers derives the paper-suite per-layer metrics from the
// traced passes and prints the stepper layer table.
func reportSuiteLayers(plain, traced []*suitePass, windows []*window, rep *report) error {
	overhead := timerOverheadNs()
	var lt layerTable
	var simSec, allocs, bytes, gcCPU, busyCPU, mergeS, trainS float64
	var merges, folds int
	var plainCost, tracedCost []float64
	for _, p := range plain {
		plainCost = append(plainCost, p.wall/p.simSec)
	}
	for _, p := range traced {
		tracedCost = append(tracedCost, p.wall/p.simSec)
		for _, t := range p.tracers {
			lt.addTracer(t)
		}
		simSec += p.simSec
		allocs += float64(p.allocs)
		bytes += float64(p.bytes)
		gcCPU += p.gcCPU
		busyCPU += p.busyCPU
		mergeS += p.mergeS
		merges += p.merges
		trainS += p.trainS
		folds += p.report.FoldsTotal
	}
	for _, w := range windows {
		if len(w.demands) == 0 {
			continue
		}
		if err := lt.replay(w); err != nil {
			return err
		}
	}
	layers, slice, residual := lt.rows(overhead)

	rep.set("machine.slice_ns", "ns", slice)
	layerSum := 0.0
	for _, l := range layers {
		rep.set(l.name, "ns", l.ns)
		layerSum += l.ns
	}
	rep.set("machine.residual_ns", "ns", residual)
	rep.set("sim.norm_ns", "ns", normNs())
	rep.set("machine.allocs_per_sim_s", "1/sim-s", allocs/simSec)
	rep.set("machine.bytes_per_sim_s", "B/sim-s", bytes/simSec)
	rep.set("gc.cpu_frac", "1", gcFrac(gcCPU, busyCPU))
	rep.set("align.merge_ms", "ms", mergeS/float64(merges)*1e3)
	rep.set("core.train_ms", "ms", trainS/float64(folds)*1e3)
	rep.set("trace_overhead_frac", "1", median(tracedCost)/median(plainCost)-1)

	rep.note("stepper layer table: host ns per simulated 1 ms slice (%d slices timed in situ, %d replayed)",
		int64(lt.sliceN), int64(lt.replaySlices))
	for _, l := range layers {
		rep.note("  %-22s %9.1f  %5.1f%%", l.name, l.ns, 100*l.ns/slice)
	}
	rep.note("  %-22s %9.1f  %5.1f%%", "sum of layers", layerSum, 100*layerSum/slice)
	rep.note("  %-22s %9.1f", "machine.slice_ns", slice)
	verdict := "met"
	if math.Abs(residual) > 0.1*slice {
		verdict = "not met"
	}
	rep.note("  %-22s %9.1f  %5.1f%%  (target: layers sum to within 10%% of the slice: %s)",
		"machine.residual_ns", residual, 100*residual/slice, verdict)
	return nil
}

// normNs is the host cost of one sim.RNG.Norm call, the median of
// several batches.
func normNs() float64 {
	rng := sim.NewRNG(1)
	const n = 200000
	var reps []float64
	for r := 0; r < 7; r++ {
		t0 := nanotime()
		acc := 0.0
		for i := 0; i < n; i++ {
			acc += rng.Norm(0, 1)
		}
		reps = append(reps, float64(nanotime()-t0)/n)
		sink += acc
	}
	return median(reps)
}
