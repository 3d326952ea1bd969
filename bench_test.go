package trickledown_test

import (
	"fmt"
	"sync"
	"testing"

	"trickledown/internal/align"
	"trickledown/internal/cluster"
	"trickledown/internal/core"
	"trickledown/internal/disk"
	"trickledown/internal/experiments"
	"trickledown/internal/machine"
	"trickledown/internal/perfctr"
	"trickledown/internal/power"
	"trickledown/internal/workload"
)

// benchScale keeps each regeneration to a few seconds while preserving
// every experiment's structure; run cmd/tdreport for full paper-scale
// traces.
const benchScale = 0.2

var (
	runnerOnce sync.Once
	benchR     *experiments.Runner
)

// runner returns a process-wide experiment runner so benchmarks after
// the first reuse cached simulation traces, the way repeated analyses of
// recorded logs would.
func runner() *experiments.Runner {
	runnerOnce.Do(func() {
		benchR = experiments.NewRunner(experiments.Options{
			Seed: 100, TrainSeed: 10, Scale: benchScale,
		})
	})
	return benchR
}

// benchEstimator returns the shared runner's trained estimator.
func benchEstimator(tb testing.TB) *core.Estimator {
	tb.Helper()
	est, err := runner().Estimator()
	if err != nil {
		tb.Fatal(err)
	}
	return est
}

// tableRow returns t's row for a workload, or nil.
func tableRow(t *experiments.Table, name string) *experiments.TableRow {
	for i := range t.Rows {
		if t.Rows[i].Workload == name {
			return &t.Rows[i]
		}
	}
	return nil
}

// reportErrs attaches per-subsystem average errors to the benchmark
// output so `go test -bench` doubles as a results report.
func reportErrs(b *testing.B, t *experiments.Table, row string) {
	r := tableRow(t, row)
	if r == nil {
		b.Fatalf("row %q missing", row)
	}
	for j, s := range power.Subsystems() {
		b.ReportMetric(r.Ours[j], s.String()+"_err%")
	}
}

// BenchmarkTable1 regenerates the subsystem average power table.
func BenchmarkTable1(b *testing.B) {
	r := runner()
	for i := 0; i < b.N; i++ {
		t, err := r.Table1()
		if err != nil {
			b.Fatal(err)
		}
		gcc := tableRow(t, "gcc")
		if gcc == nil {
			b.Fatal("gcc row missing")
		}
		b.ReportMetric(gcc.Ours[0], "gcc_cpu_W")
		b.ReportMetric(gcc.Ours[5], "gcc_total_W")
	}
}

// BenchmarkTable2 regenerates the subsystem power standard deviations.
func BenchmarkTable2(b *testing.B) {
	r := runner()
	for i := 0; i < b.N; i++ {
		t, err := r.Table2()
		if err != nil {
			b.Fatal(err)
		}
		jbb := tableRow(t, "specjbb")
		if jbb == nil {
			b.Fatal("specjbb row missing")
		}
		b.ReportMetric(jbb.Ours[0], "jbb_cpu_sd_W")
	}
}

// BenchmarkTable3 regenerates the integer-workload model-error table.
func BenchmarkTable3(b *testing.B) {
	r := runner()
	for i := 0; i < b.N; i++ {
		t, err := r.Table3()
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			reportErrs(b, t, "average")
		}
	}
}

// BenchmarkTable4 regenerates the floating-point model-error table.
func BenchmarkTable4(b *testing.B) {
	r := runner()
	for i := 0; i < b.N; i++ {
		t, err := r.Table4()
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			reportErrs(b, t, "average")
		}
	}
}

// benchFigure runs one trace figure and reports its average error.
func benchFigure(b *testing.B, get func() (*experiments.Figure, error)) {
	for i := 0; i < b.N; i++ {
		f, err := get()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(f.AvgErr, "avg_err%")
		b.ReportMetric(f.PaperErr, "paper_err%")
	}
}

// BenchmarkFigure2 regenerates the Eq. 1 CPU trace over staggered gcc.
func BenchmarkFigure2(b *testing.B) { benchFigure(b, runner().Figure2) }

// BenchmarkFigure3 regenerates the Eq. 2 memory trace over mesa.
func BenchmarkFigure3(b *testing.B) { benchFigure(b, runner().Figure3) }

// BenchmarkFigure4 regenerates the prefetch/non-prefetch mcf sweep.
func BenchmarkFigure4(b *testing.B) {
	r := runner()
	for i := 0; i < b.N; i++ {
		f, err := r.Figure4()
		if err != nil {
			b.Fatal(err)
		}
		pf, all := f.Values("Prefetch"), f.Values("All")
		b.ReportMetric(pf[len(pf)-1]/(all[len(all)-1]+1e-9), "tail_prefetch_share")
	}
}

// BenchmarkFigure5 regenerates the Eq. 3 memory trace over long mcf.
func BenchmarkFigure5(b *testing.B) { benchFigure(b, runner().Figure5) }

// BenchmarkFigure6 regenerates the Eq. 4 disk trace over DiskLoad.
func BenchmarkFigure6(b *testing.B) { benchFigure(b, runner().Figure6) }

// BenchmarkFigure7 regenerates the Eq. 5 I/O trace over DiskLoad.
func BenchmarkFigure7(b *testing.B) { benchFigure(b, runner().Figure7) }

// ablate trains one alternative model spec on a training workload and
// reports its error next to the production model's on a target dataset.
func ablate(b *testing.B, spec core.ModelSpec, trainWL string, trainSec float64, evalWL string) {
	b.Helper()
	r := runner()
	est, err := r.Estimator()
	if err != nil {
		b.Fatal(err)
	}
	train, err := machine.RunWorkload(trainWL, trainSec*benchScale+30, 10)
	if err != nil {
		b.Fatal(err)
	}
	alt, err := core.Train(spec, train)
	if err != nil {
		b.Fatal(err)
	}
	eval, err := machine.RunWorkload(evalWL, 300*benchScale+60, 100)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		altErr, err := alt.Validate(eval)
		if err != nil {
			b.Fatal(err)
		}
		prodErr, err := est.Model(spec.Sub).Validate(eval)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(altErr, "rejected_err%")
		b.ReportMetric(prodErr, "production_err%")
	}
}

// BenchmarkAblationMemL3OnMcf quantifies Section 4.2.2: the Eq. 2
// L3-miss memory model (trained on mesa) degrades on mcf's high
// utilization while the Eq. 3 bus model holds.
func BenchmarkAblationMemL3OnMcf(b *testing.B) {
	r := runner()
	est, err := r.Estimator()
	if err != nil {
		b.Fatal(err)
	}
	l3, err := r.MemL3Model()
	if err != nil {
		b.Fatal(err)
	}
	eval, err := machine.RunWorkload("mcf", 390*benchScale+60, 100)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		l3Err, err := l3.Validate(eval)
		if err != nil {
			b.Fatal(err)
		}
		busErr, err := est.Model(power.SubMemory).Validate(eval)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(l3Err, "l3_model_err%")
		b.ReportMetric(busErr, "bus_model_err%")
	}
}

// BenchmarkAblationDiskDMAOnly quantifies Section 4.2.3: a DMA-only disk
// model misses the fine-grain variation interrupts carry.
func BenchmarkAblationDiskDMAOnly(b *testing.B) {
	ablate(b, core.DiskDMASpec(), "diskload", 300, "diskload")
}

// BenchmarkAblationDiskUncacheable is the paper's other rejected disk
// input.
func BenchmarkAblationDiskUncacheable(b *testing.B) {
	ablate(b, core.DiskUncacheableSpec(), "diskload", 300, "diskload")
}

// BenchmarkAblationIODMAOnly quantifies Section 4.2.4: DMA counts are a
// worse I/O-power input than interrupts because write combining breaks
// the transaction-to-switching proportionality.
func BenchmarkAblationIODMAOnly(b *testing.B) {
	ablate(b, core.IODMASpec(), "diskload", 300, "dbt-2")
}

// BenchmarkAblationIOUncacheable is the paper's other rejected I/O input.
func BenchmarkAblationIOUncacheable(b *testing.B) {
	ablate(b, core.IOUncacheableSpec(), "diskload", 300, "dbt-2")
}

// BenchmarkSimulationSecond measures the substrate's cost of simulating
// one second (1000 slices) of the loaded 4-way server.
func BenchmarkSimulationSecond(b *testing.B) {
	spec, err := workload.ByName("gcc")
	if err != nil {
		b.Fatal(err)
	}
	srv, err := machine.New(machine.DefaultConfig(), spec)
	if err != nil {
		b.Fatal(err)
	}
	srv.Run(240) // reach the all-instances regime
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		srv.Run(1)
	}
}

// rackBenchSimSec is how far one BenchmarkCluster8Nodes iteration
// advances the rack.
const rackBenchSimSec = 2

// buildBenchRack assembles the 8-node gcc rack BenchmarkCluster8Nodes
// steps.
func buildBenchRack(tb testing.TB, est *core.Estimator, workers int) *cluster.Cluster {
	tb.Helper()
	c, err := cluster.New(est)
	if err != nil {
		tb.Fatal(err)
	}
	c.SetWorkers(workers)
	for i := 0; i < 8; i++ {
		if _, err := c.AddHomogeneous(fmt.Sprintf("n%d", i), "gcc", uint64(200+i)); err != nil {
			tb.Fatal(err)
		}
	}
	return c
}

// BenchmarkCluster8Nodes measures parallel cluster stepping: an 8-node
// rack advanced 2 simulated seconds per iteration at several worker
// counts. Each node is an independent seeded simulation, so on a
// multi-core host throughput scales near-linearly until workers reach
// the core count (expect ≥2x at 4 workers); results are bit-for-bit
// identical at every worker count.
func BenchmarkCluster8Nodes(b *testing.B) {
	est := benchEstimator(b)
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			c := buildBenchRack(b, est, workers)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := c.Run(rackBenchSimSec); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			_, total, err := c.Snapshot()
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(total, "rack_W")
		})
	}
}

// benchSample is the last counter sample of a minute of gcc: the input
// the per-sample estimation benchmarks normalize and price.
func benchSample(tb testing.TB) *perfctr.Sample {
	tb.Helper()
	ds, err := machine.RunWorkload("gcc", 60, 5)
	if err != nil {
		tb.Fatal(err)
	}
	return &ds.Rows[ds.Len()-1].Counters
}

// BenchmarkEstimate measures the per-sample cost of the fitted models —
// the paper's "low computational cost" requirement for runtime use.
func BenchmarkEstimate(b *testing.B) {
	est := benchEstimator(b)
	sample := benchSample(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = est.Estimate(sample)
	}
}

// BenchmarkExtractMetrics measures counter-sample normalization alone.
func BenchmarkExtractMetrics(b *testing.B) {
	sample := benchSample(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = core.ExtractMetrics(sample)
	}
}

// benchTrainSet is the two minutes of mcf BenchmarkTrain fits a model
// to.
func benchTrainSet(tb testing.TB) *align.Dataset {
	tb.Helper()
	ds, err := machine.RunWorkload("mcf", 120, 5)
	if err != nil {
		tb.Fatal(err)
	}
	return ds
}

// BenchmarkTrain measures fitting one quadratic subsystem model on a
// minute of samples.
func BenchmarkTrain(b *testing.B) {
	ds := benchTrainSet(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Train(core.MemBusSpec(), ds); err != nil {
			b.Fatal(err)
		}
	}
}

// trainedOn builds a small custom training/eval pair with the given
// machine configuration tweaks, for sensitivity ablations.
func validateWithConfig(b *testing.B, mutate func(*machine.Config)) float64 {
	b.Helper()
	runCfg := func(name string, seconds float64, seed uint64) *align.Dataset {
		spec, err := workload.ByName(name)
		if err != nil {
			b.Fatal(err)
		}
		cfg := machine.DefaultConfig()
		cfg.Seed = seed
		if mutate != nil {
			mutate(&cfg)
		}
		srv, err := machine.New(cfg, spec)
		if err != nil {
			b.Fatal(err)
		}
		srv.Run(seconds)
		ds, err := srv.Dataset()
		if err != nil {
			b.Fatal(err)
		}
		return ds
	}
	train := runCfg("mcf", 150, 10)
	model, err := core.Train(core.MemBusSpec(), train)
	if err != nil {
		b.Fatal(err)
	}
	eval := runCfg("lucas", 120, 100)
	e, err := model.Validate(eval)
	if err != nil {
		b.Fatal(err)
	}
	return e
}

// BenchmarkAblationSamplePeriod sweeps the counter sampling period —
// the paper samples at 1 Hz; per-cycle normalization should make the
// models robust to faster or slower sampling.
func BenchmarkAblationSamplePeriod(b *testing.B) {
	for _, period := range []float64{0.25, 0.5, 1.0, 2.0} {
		b.Run(fmt.Sprintf("period=%.2fs", period), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				e := validateWithConfig(b, func(c *machine.Config) {
					c.SamplePeriodSec = period
				})
				b.ReportMetric(e, "mem_err%")
			}
		})
	}
}

// BenchmarkAblationDAQNoise sweeps the power-measurement noise at
// training time: regression on averaged windows should absorb even 10x
// sensor noise.
func BenchmarkAblationDAQNoise(b *testing.B) {
	for _, mult := range []float64{0.0, 1.0, 10.0} {
		b.Run(fmt.Sprintf("noise=x%.0f", mult), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				e := validateWithConfig(b, func(c *machine.Config) {
					c.DAQ.NoiseStd *= mult
				})
				b.ReportMetric(e, "mem_err%")
			}
		})
	}
}

// BenchmarkAblationMemRWMix quantifies the paper's Section 4.3 proposal:
// adding a read/write-mix term to Eq. 3 should cut the FP-workload
// memory underestimation.
func BenchmarkAblationMemRWMix(b *testing.B) {
	trainA, err := machine.RunWorkload("mcf", 180, 10)
	if err != nil {
		b.Fatal(err)
	}
	trainB, err := machine.RunWorkload("diskload", 150, 11)
	if err != nil {
		b.Fatal(err)
	}
	train := align.Concat(trainA, trainB)
	base, err := core.Train(core.MemBusSpec(), train)
	if err != nil {
		b.Fatal(err)
	}
	rw, err := core.Train(core.MemBusRWSpec(), train)
	if err != nil {
		b.Fatal(err)
	}
	eval, err := machine.RunWorkload("lucas", 150, 100)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		be, err := base.Validate(eval)
		if err != nil {
			b.Fatal(err)
		}
		re, err := rw.Validate(eval)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(be, "eq3_err%")
		b.ReportMetric(re, "eq3_rw_err%")
	}
}

// BenchmarkAblationOSUtilModel compares Eq. 1 against the Heath/Kotla
// style OS-utilization CPU model (Section 2.2.2's alternative channel).
func BenchmarkAblationOSUtilModel(b *testing.B) {
	train, err := machine.RunWorkload("gcc", 240, 10)
	if err != nil {
		b.Fatal(err)
	}
	eq1, err := core.Train(core.CPUSpec(), train)
	if err != nil {
		b.Fatal(err)
	}
	utilM, err := core.Train(core.CPUOSUtilSpec(), train)
	if err != nil {
		b.Fatal(err)
	}
	eval, err := machine.RunWorkload("lucas", 150, 100)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		e1, err := eq1.Validate(eval)
		if err != nil {
			b.Fatal(err)
		}
		eu, err := utilM.Validate(eval)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(e1, "eq1_err%")
		b.ReportMetric(eu, "osutil_err%")
	}
}

// BenchmarkAblationDVFS compares fixed-frequency Eq. 1 against the
// frequency-aware variant on a machine running at a reduced operating
// point.
func BenchmarkAblationDVFS(b *testing.B) {
	runAt := func(schedule []float64, secsPer float64, seed uint64) *align.Dataset {
		spec, err := workload.ByName("gcc")
		if err != nil {
			b.Fatal(err)
		}
		spec.StaggerSec = 1
		cfg := machine.DefaultConfig()
		cfg.Seed = seed
		srv, err := machine.New(cfg, spec)
		if err != nil {
			b.Fatal(err)
		}
		srv.Run(20)
		for _, f := range schedule {
			srv.SetFreqScaleAll(f)
			srv.Run(secsPer)
		}
		ds, err := srv.Dataset()
		if err != nil {
			b.Fatal(err)
		}
		return ds.Skip(20)
	}
	eq1, err := core.Train(core.CPUSpec(), runAt([]float64{1.0}, 120, 10))
	if err != nil {
		b.Fatal(err)
	}
	dvfs, err := core.Train(core.CPUDVFSSpec(), runAt([]float64{1.0, 0.8, 0.6, 0.5, 0.9, 0.7}, 25, 10))
	if err != nil {
		b.Fatal(err)
	}
	eval := runAt([]float64{0.6}, 60, 99)
	for i := 0; i < b.N; i++ {
		e1, err := eq1.Validate(eval)
		if err != nil {
			b.Fatal(err)
		}
		ed, err := dvfs.Validate(eval)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(e1, "eq1_err%")
		b.ReportMetric(ed, "dvfs_err%")
	}
}

// BenchmarkAblationMachineSize retrains and validates on differently
// sized SMPs: the method is per-machine calibration, so accuracy should
// survive doubling the socket count.
func BenchmarkAblationMachineSize(b *testing.B) {
	for _, ncpu := range []int{4, 6, 8} {
		b.Run(fmt.Sprintf("cpus=%d", ncpu), func(b *testing.B) {
			run := func(name string, seconds float64, seed uint64) *align.Dataset {
				spec, err := workload.ByName(name)
				if err != nil {
					b.Fatal(err)
				}
				cfg := machine.DefaultConfig()
				cfg.NumCPUs = ncpu
				cfg.Seed = seed
				srv, err := machine.New(cfg, spec)
				if err != nil {
					b.Fatal(err)
				}
				srv.Run(seconds)
				ds, err := srv.Dataset()
				if err != nil {
					b.Fatal(err)
				}
				return ds
			}
			train := run("gcc", 180, 10)
			eq1, err := core.Train(core.CPUSpec(), train)
			if err != nil {
				b.Fatal(err)
			}
			eval := run("mesa", 150, 100)
			for i := 0; i < b.N; i++ {
				e, err := eq1.Validate(eval)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(e, "cpu_err%")
			}
		})
	}
}

// BenchmarkAblationDiskSpindown evaluates Eq. 4 on hardware with disk
// power management (which the paper's SCSI array lacked): the constant
// rotation floor assumption collapses, because spindle state is
// time-dependent and invisible to rate counters.
func BenchmarkAblationDiskSpindown(b *testing.B) {
	train, err := machine.RunWorkload("diskload", 120, 10)
	if err != nil {
		b.Fatal(err)
	}
	eq4, err := core.Train(core.DiskSpec(), train)
	if err != nil {
		b.Fatal(err)
	}
	run := func(policy disk.PowerPolicy) *align.Dataset {
		spec, err := workload.ByName("netload")
		if err != nil {
			b.Fatal(err)
		}
		cfg := machine.DefaultConfig()
		cfg.Seed = 77
		cfg.DiskPolicy = policy
		srv, err := machine.New(cfg, spec)
		if err != nil {
			b.Fatal(err)
		}
		srv.Run(100)
		ds, err := srv.Dataset()
		if err != nil {
			b.Fatal(err)
		}
		return ds.Skip(20)
	}
	server := run(disk.PowerPolicy{})
	mobile := run(disk.MobilePolicy())
	for i := 0; i < b.N; i++ {
		es, err := eq4.Validate(server)
		if err != nil {
			b.Fatal(err)
		}
		em, err := eq4.Validate(mobile)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(es, "server_disk_err%")
		b.ReportMetric(em, "spindown_disk_err%")
	}
}

// fleetBenchConfig is the small-generation box fleet-scale benchmarks
// populate: 1 CPU x 2 threads and one disk keeps a thousand nodes cheap
// enough to step every iteration while still exercising the full
// counter -> estimate pipeline per node.
func fleetBenchConfig(seed uint64) machine.Config {
	cfg := machine.DefaultConfig()
	cfg.NumCPUs = 1
	cfg.ThreadsPerCPU = 2
	cfg.NumDisks = 1
	cfg.Seed = seed
	return cfg
}

// fleetBenchWorkloads cycles across the fleet so shards hold
// mixed-cost nodes rather than copies of one trace.
var fleetBenchWorkloads = []string{"gcc", "mcf", "mesa", "vortex"}

// buildBenchFleet assembles n mixed-config, mixed-workload nodes.
func buildBenchFleet(tb testing.TB, est *core.Estimator, n, workers int) *cluster.Cluster {
	tb.Helper()
	c, err := cluster.New(est)
	if err != nil {
		tb.Fatal(err)
	}
	c.SetWorkers(workers)
	for i := 0; i < n; i++ {
		wl := fleetBenchWorkloads[i%len(fleetBenchWorkloads)]
		if _, err := c.AddMixedConfig(fmt.Sprintf("fleet-%05d", i),
			fleetBenchConfig(uint64(3000+i)),
			[]machine.Placement{{Workload: wl, Thread: i % 2}}); err != nil {
			tb.Fatal(err)
		}
	}
	return c
}

// BenchmarkFleet1kNodes iterations step a fleet of fleetBenchNodes
// nodes fleetBenchSimSec simulated seconds each.
const (
	fleetBenchNodes  = 1000
	fleetBenchSimSec = 2.0
)

// BenchmarkFleet1kNodes steps a 1,000-node mixed-config fleet two
// simulated seconds per iteration (the aligner needs at least two
// sample windows to pair logs) through the sharded run path — the
// fleet-scale capacity number, reported as simulated node-seconds per
// wall second.
func BenchmarkFleet1kNodes(b *testing.B) {
	est := benchEstimator(b)
	for _, workers := range []int{4, 16} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			c := buildBenchFleet(b, est, fleetBenchNodes, workers)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := c.Run(fleetBenchSimSec); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			if s := b.Elapsed().Seconds(); s > 0 {
				b.ReportMetric(fleetBenchNodes*fleetBenchSimSec*float64(b.N)/s, "sim_node_s/s")
			}
			_, total, err := c.Snapshot()
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(total, "fleet_W")
		})
	}
}

// BenchmarkClusterConstruct10k builds a 10,000-node fleet per
// iteration: the regression benchmark for the former O(n^2)
// duplicate-name scan in Cluster.add, which dominated construction at
// this scale before the name-index map.
func BenchmarkClusterConstruct10k(b *testing.B) {
	est := benchEstimator(b)
	for i := 0; i < b.N; i++ {
		c := buildBenchFleet(b, est, 10000, 8)
		if c.NumNodes() != 10000 {
			b.Fatal("short fleet")
		}
	}
}
