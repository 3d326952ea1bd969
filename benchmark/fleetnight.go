package main

import (
	"context"
	"fmt"
	"hash/fnv"
	"io"
	"runtime"
	"time"

	"trickledown/internal/align"
	"trickledown/internal/cluster"
	"trickledown/internal/core"
	"trickledown/internal/machine"
	"trickledown/internal/sched"
)

// fleetNight is the fleet workload's fixed shape.
type fleetNight struct {
	nodes       int
	intervals   int     // control intervals per episode
	intervalSec float64 // simulated seconds per interval
	workers     int
	// minEpisodes is the fewest untraced episodes a run makes, however
	// slow the host: seven give the latency tail at least 112 intervals,
	// so it stays the 90th percentile.
	minEpisodes int
	seed        uint64
}

func newFleetNight(cfg runConfig) fleetNight {
	f := fleetNight{nodes: 64, intervals: 16, intervalSec: 2, workers: runtime.NumCPU(), minEpisodes: 7, seed: cfg.seed}
	if cfg.tiny {
		f.nodes, f.intervals, f.minEpisodes = 8, 3, 1
	}
	return f
}

// nodeConfig is the small fleet box: 1 CPU x 2 threads, one disk.
func nodeConfig(seed uint64) machine.Config {
	mc := machine.DefaultConfig()
	mc.NumCPUs, mc.ThreadsPerCPU, mc.NumDisks = 1, 2, 1
	mc.Seed = seed
	return mc
}

// fleetNode is one generated node: its workload and machine seed.
type fleetNode struct {
	name     string
	workload string
	seed     uint64
}

// nightPattern is the fleet's repeating layout: every run of eight nodes
// holds four idle, two dbt-2, one gcc and one mcf node, so each cluster
// shard (a contiguous run of nodes) steps the same mix whatever the seed.
var nightPattern = []string{"idle", "dbt-2", "idle", "gcc", "idle", "dbt-2", "idle", "mcf"}

// plan lays out the fleet; the seed draws every node's machine seed.
func (f fleetNight) plan() []fleetNode {
	out := make([]fleetNode, f.nodes)
	for i := range out {
		out[i] = fleetNode{
			name:     fmt.Sprintf("night-%03d", i),
			workload: nightPattern[i%len(nightPattern)],
			seed:     mix(f.seed, uint64(i)),
		}
	}
	return out
}

// fleetEnv is what set-up produces: the trained estimator and the
// scheduler's static inventory, calibrated through the estimator.
type fleetEnv struct {
	est         *core.Estimator
	idleW, capW float64
	nodes       []fleetNode
}

// trainSec is how long each training workload runs on the fleet box.
const trainSec = 45

// train fits the paper's five production models on the fleet's own
// hardware shape: gcc for CPU and chipset, mcf for memory, DiskLoad for
// disk and I/O, each on both threads with the second instance joining a
// third of the way in, so every model sees a utilisation ramp.
func (f fleetNight) train(ctx context.Context) (*core.Estimator, error) {
	sets := map[string]*align.Dataset{}
	for i, name := range []string{"gcc", "mcf", "diskload"} {
		srv, err := machine.NewMixed(nodeConfig(uint64(10+i)), []machine.Placement{
			{Workload: name, Thread: 0}, {Workload: name, Thread: 1, StartSec: trainSec / 3},
		})
		if err != nil {
			return nil, err
		}
		if err := srv.RunContext(ctx, trainSec); err != nil {
			return nil, err
		}
		if sets[name], err = srv.Dataset(); err != nil {
			return nil, err
		}
	}
	return core.TrainEstimator(core.TrainingSet{
		CPU: sets["gcc"], Memory: sets["mcf"], Disk: sets["diskload"], IO: sets["diskload"], Chipset: sets["gcc"],
	})
}

func (f fleetNight) setup(ctx context.Context) (*fleetEnv, *cluster.Cluster, error) {
	est, err := f.train(ctx)
	if err != nil {
		return nil, nil, fmt.Errorf("train: %w", err)
	}
	env := &fleetEnv{est: est, nodes: f.plan()}
	calib, err := cluster.New(est)
	if err != nil {
		return nil, nil, err
	}
	if _, err := calib.AddMixedConfig("calib-idle", nodeConfig(901),
		[]machine.Placement{{Workload: "idle", Thread: 0}}); err != nil {
		return nil, nil, err
	}
	if _, err := calib.AddMixedConfig("calib-busy", nodeConfig(902),
		[]machine.Placement{{Workload: "gcc", Thread: 0}, {Workload: "gcc", Thread: 1}}); err != nil {
		return nil, nil, err
	}
	if err := calib.RunContext(ctx, 2*f.intervalSec); err != nil {
		return nil, nil, err
	}
	for name, dst := range map[string]*float64{"calib-idle": &env.idleW, "calib-busy": &env.capW} {
		n, _ := calib.Lookup(name)
		if *dst, err = n.EstimatedMean(); err != nil {
			return nil, nil, err
		}
	}
	env.capW *= 1.05
	c, err := f.build(env, f.workers)
	return env, c, err
}

// build assembles a fresh fleet.
func (f fleetNight) build(env *fleetEnv, workers int) (*cluster.Cluster, error) {
	c, err := cluster.New(env.est)
	if err != nil {
		return nil, err
	}
	c.SetWorkers(workers)
	for _, n := range env.nodes {
		if _, err := c.AddMixedConfig(n.name, nodeConfig(n.seed),
			[]machine.Placement{{Workload: n.workload, Thread: 0}}); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// interval is one control interval's host timings in seconds.
type interval struct {
	run, snapshot, plan float64
	// nominalCPU is its CPU time over all threads, scaled to the nominal
	// host (see hostSpeed).
	nominalCPU float64
}

func (iv interval) total() float64 { return iv.run + iv.snapshot + iv.plan }

// episode is one fleet lifetime: intervals from a fresh fleet.
type episode struct {
	intervals   []interval
	gcCPU       float64 // CPU seconds in the garbage collector
	busyCPU     float64
	fingerprint uint64 // of the sequence of scheduler decisions
	errPct      float64
}

// episode steps a fresh fleet through f.intervals control intervals:
// RunContext, SnapshotInto, then sched.Plan. Plans are fingerprinted but
// not applied, so every interval steps the same nodes.
func (f fleetNight) episode(ctx context.Context, env *fleetEnv, c *cluster.Cluster, rep *report) (*episode, error) {
	cfg := sched.Config{MigrationCostJ: 2000, AmortizeSec: 300, MinNodes: f.nodes / 8}
	ep := &episode{}
	h := fnv.New64a()
	var snap []cluster.Estimate
	info := make([]sched.NodeInfo, 0, f.nodes)
	var speeds []float64
	gcm := newGCMeter()
	gc0, busy0 := gcm.read()
	for k := 0; k < f.intervals; k++ {
		t0, c0 := nanotime(), cputime()
		runErr := c.RunContext(ctx, f.intervalSec)
		t1 := nanotime()
		var snapErr error
		snap, _, snapErr = c.SnapshotInto(snap)
		t2 := nanotime()
		info = info[:0]
		for _, e := range snap {
			info = append(info, sched.NodeInfo{
				Name: e.Name, Watts: e.Watts, IdleWatts: env.idleW, CapacityWatts: env.capW,
				UsedThreads: 1, FreeThreads: 1, Healthy: true,
			})
		}
		d := sched.Plan(info, cfg)
		t3, c3 := nanotime(), cputime()
		_, speed := rep.hostSpeed(f.workers)
		speeds = append(speeds, speed)
		rep.op(runErr)
		rep.op(snapErr)
		if runErr != nil || snapErr != nil {
			return nil, fmt.Errorf("fleet-night interval %d: %v %v", k, runErr, snapErr)
		}
		io.WriteString(h, d.Summary())
		for _, a := range d.Actions {
			io.WriteString(h, a.String())
		}
		ep.intervals = append(ep.intervals, interval{
			run: float64(t1-t0) / 1e9, snapshot: float64(t2-t1) / 1e9, plan: float64(t3-t2) / 1e9,
			nominalCPU: float64(c3-c0) / 1e9,
		})
	}
	speed := median(speeds)
	for i := range ep.intervals {
		ep.intervals[i].nominalCPU /= speed
	}
	gc1, busy1 := gcm.read()
	ep.gcCPU, ep.busyCPU = gc1-gc0, busy1-busy0
	rep.sampleRSS() // every node's history is at its longest
	ep.fingerprint = h.Sum64()
	var err error
	ep.errPct, err = c.VerifyAccuracy()
	rep.op(err)
	return ep, err
}

func runFleetNight(ctx context.Context, cfg runConfig, rep *report) error {
	f := newFleetNight(cfg)
	// Set-up (training, calibration, fleet build) runs five times; the
	// median is setup_s and the last result is used.
	var env *fleetEnv
	var c *cluster.Cluster
	setups, err := nominalSetups(rep, 5, func() error {
		var err error
		env, c, err = f.setup(ctx)
		return err
	})
	if err != nil {
		return err
	}
	rep.note("fleet-night: %d nodes (1x2, one disk), %d intervals of %gs per episode, %d workers, idle %.1f W, capacity %.1f W",
		f.nodes, f.intervals, f.intervalSec, f.workers, env.idleW, env.capW)

	minEpisodes := f.minEpisodes
	if cfg.trace {
		minEpisodes = 1 // a traced run reports no latency tail
	}
	var plain, traced []*episode
	start := time.Now()
	untracedUntil, deadline := start.Add(cfg.seconds), start.Add(cfg.seconds)
	if cfg.trace {
		untracedUntil = start.Add(cfg.seconds / 2)
	}
	for {
		isTraced := cfg.trace && len(plain) >= minEpisodes && time.Now().After(untracedUntil)
		if len(plain) >= minEpisodes && (!cfg.trace || len(traced) > 0) && time.Now().After(deadline) {
			break
		}
		if c == nil {
			var err error
			if c, err = f.build(env, f.workers); err != nil {
				return err
			}
		}
		ep, err := f.episode(ctx, env, c, rep)
		if err != nil {
			return err
		}
		c = nil
		if isTraced {
			traced = append(traced, ep)
		} else {
			plain = append(plain, ep)
		}
	}

	// Every episode steps the same fleet, so every episode must reach the
	// same decisions and the same accuracy.
	all := append(append([]*episode(nil), plain...), traced...)
	for _, ep := range all[1:] {
		var err error
		if ep.fingerprint != all[0].fingerprint || ep.errPct != all[0].errPct {
			err = fmt.Errorf("fleet-night: episode decisions %016x (err %.6f%%) differ from the first %016x (err %.6f%%)",
				ep.fingerprint, ep.errPct, all[0].fingerprint, all[0].errPct)
		}
		rep.op(err)
	}
	rep.note("fleet-night: %d untraced and %d traced episodes, decision fingerprint %016x",
		len(plain), len(traced), all[0].fingerprint)

	if !cfg.trace {
		var rates []float64
		for _, ep := range plain {
			cpu := 0.0
			for _, iv := range ep.intervals {
				cpu += iv.nominalCPU
			}
			rates = append(rates, float64(f.nodes)*f.intervalSec*float64(len(ep.intervals))/cpu)
		}
		rep.note("fleet-night: throughput is simulated node-seconds per nominal CPU second of an episode; latency is one control interval (run, snapshot, plan) in nominal CPU ms over its %d workers", f.workers)
		rep.setEndToEnd(setups, rates, median(f.intervalMs(plain)), all[0].errPct)
		return nil
	}
	rep.setTail("latency_ms_tail", "ms", f.intervalMs(plain))
	return f.reportLayers(ctx, env, plain, traced, rep)
}

// intervalMs is every interval's nominal CPU time divided by the
// workers, in milliseconds: its latency on otherwise idle cores when the
// workers share the work evenly. Wall time on a shared host also counts
// the time other guests hold either core.
func (f fleetNight) intervalMs(eps []*episode) []float64 {
	var ms []float64
	for _, ep := range eps {
		for _, iv := range ep.intervals {
			ms = append(ms, iv.nominalCPU/float64(f.workers)*1e3)
		}
	}
	return ms
}

// episodeWall is an episode's summed interval time in seconds.
func episodeWall(ep *episode) float64 {
	var w float64
	for _, iv := range ep.intervals {
		w += iv.total()
	}
	return w
}

// reportLayers derives the fleet-night per-layer metrics: the interval
// breakdown from the traced episodes, then the cluster, machine, align
// and core figures measured beside the fleet.
func (f fleetNight) reportLayers(ctx context.Context, env *fleetEnv, plain, traced []*episode, rep *report) error {
	var runs, snaps, plans, plainWall, tracedWall []float64
	var gcCPU, busyCPU float64
	for _, ep := range plain {
		plainWall = append(plainWall, episodeWall(ep))
	}
	for _, ep := range traced {
		tracedWall = append(tracedWall, episodeWall(ep))
		gcCPU += ep.gcCPU
		busyCPU += ep.busyCPU
		for _, iv := range ep.intervals {
			runs = append(runs, iv.run*1e3)
			snaps = append(snaps, iv.snapshot*1e6)
			plans = append(plans, iv.plan*1e6)
		}
	}
	rep.set("cluster.run_ms", "ms", median(runs))
	rep.set("cluster.snapshot_us", "us", median(snaps))
	rep.set("sched.plan_us", "us", median(plans))

	// Speed-up: the same fleet stepped two intervals on one worker and on
	// every worker; the two must agree exactly.
	var times [2]float64
	var snaps2 [2][]cluster.Estimate
	for i, workers := range []int{1, f.workers} {
		c, err := f.build(env, workers)
		if err != nil {
			return err
		}
		t0 := nanotime()
		err = c.RunContext(ctx, 2*f.intervalSec)
		times[i] = float64(nanotime() - t0)
		rep.op(err)
		if err != nil {
			return err
		}
		snaps2[i], _, err = c.Snapshot()
		rep.op(err)
		if err != nil {
			return err
		}
	}
	var detErr error
	for i := range snaps2[0] {
		if snaps2[0][i] != snaps2[1][i] {
			detErr = fmt.Errorf("fleet-night: node %s reads %v W on one worker, %v W on %d",
				snaps2[0][i].Name, snaps2[0][i].Watts, snaps2[1][i].Watts, f.workers)
			break
		}
	}
	rep.op(detErr)
	rep.set("cluster.speedup", "x", times[0]/times[1])

	// One idle and one busy node stepped alone, for ns per slice; the busy
	// node then grows its history one interval at a time, and the robust
	// merge is timed at the episode's full history length.
	idle, err := machine.NewMixed(nodeConfig(903), []machine.Placement{{Workload: "idle", Thread: 0}})
	if err != nil {
		return err
	}
	busy, err := machine.NewMixed(nodeConfig(904), []machine.Placement{{Workload: "gcc", Thread: 0}})
	if err != nil {
		return err
	}
	sliceNs := func(s *machine.Server) (float64, error) {
		slices := float64(f.intervals) * f.intervalSec / s.Config().Slice.Seconds()
		t0 := nanotime()
		err := s.RunContext(ctx, float64(f.intervals)*f.intervalSec)
		return float64(nanotime()-t0) / slices, err
	}
	idleNs, err := sliceNs(idle)
	if err != nil {
		return err
	}
	busyNs, err := sliceNs(busy)
	if err != nil {
		return err
	}
	rep.set("machine.idle_slice_ns", "ns", idleNs)
	rep.set("machine.busy_slice_ns", "ns", busyNs)
	var mergeErr error
	merge := medianSeconds(50*time.Millisecond, func() {
		if _, _, err := busy.DatasetRobust(); err != nil {
			mergeErr = err
		}
	})
	rep.op(mergeErr)
	rep.set("align.robust_merge_us", "us", merge*1e6)

	ds, err := busy.Dataset()
	if err != nil {
		return err
	}
	const reps = 2000
	est := medianSeconds(50*time.Millisecond, func() {
		acc := 0.0
		for i := 0; i < reps; i++ {
			acc += env.est.Estimate(&ds.Rows[i%len(ds.Rows)].Counters).Total()
		}
		sink += acc
	})
	rep.set("core.estimate_ns", "ns", est/reps*1e9)
	rep.set("gc.cpu_frac", "1", gcFrac(gcCPU, busyCPU))
	rep.set("trace_overhead_frac", "1", median(tracedWall)/median(plainWall)-1)
	return nil
}
