package workload

import "trickledown/internal/sim"

// dbt2Gen models one database back-end worker of the dbt-2 (TPC-C
// approximation) workload. The paper's target system "did not have a
// sufficient number of hard disks to fully utilize the four Pentium IV
// processors", so the workload idles waiting for random disk I/O most of
// the time: CPU power barely above idle (48.3 W vs 38.4 W), memory and
// I/O marginally above idle, disk essentially at idle.
type dbt2Gen struct {
	thinkLeft float64 // seconds of simulated wait remaining
	burstLeft float64 // seconds of CPU burst remaining
	// Slow offered-load modulation (checkpointing, queue oscillation):
	// a piecewise multiplier on transaction think time.
	loadEnd float64
	loadMul float64
}

// dbt2Base is the constant part of a transaction's demand, hoisted out
// of the per-slice path.
var dbt2Base = Demand{
	UopsPerCycle:   1.05,
	SpecActivity:   0.40,
	L2PerUop:       1.0,
	L3MissPerKuop:  1.9,
	DirtyEvictFrac: 0.40,
	TLBMissPerMuop: 150,
	UCPerMcycle:    30,
	WriteFrac:      0.40,
	MemLocality:    0.50,
}

func (g *dbt2Gen) Demand(t float64, env Env, rng *sim.RNG) Demand {
	const slice = 0.001
	d := dbt2Base
	// Alternate short transaction bursts with long waits for random I/O.
	if g.burstLeft > 0 {
		g.burstLeft -= slice
		d.Active = 1
		// Each transaction touches a handful of random 8 KB pages.
		d.RandomIO = true
		if rng.Bernoulli(0.35) {
			if rng.Bernoulli(0.7) {
				d.DiskReadBytes = 8192
			} else {
				d.DiskWriteBytes = 8192
			}
		}
		return d
	}
	if t >= g.loadEnd {
		g.loadEnd = t + 8 + rng.Float64()*20
		g.loadMul = 0.30 + rng.Float64()*2.4
	}
	g.thinkLeft -= slice
	if g.thinkLeft <= 0 {
		// Start the next transaction: ~4 ms of CPU, then wait again.
		g.burstLeft = 0.002 + rng.Exp(0.002)
		g.thinkLeft = (0.025 + rng.Exp(0.050)) * g.loadMul
	}
	d.Active = 0
	d.UopsPerCycle = 0
	return d
}

// jbbGen models one SPECjbb warehouse worker. SPECjbb ramps through
// increasing warehouse counts, so system load climbs in steps from light
// to saturated and back — the source of the workload's very large CPU
// power variance (26.2 W in Table 2) and its high sustained memory
// utilization at the peak ("61% and 84% of maximum for microprocessor
// and memory").
type jbbGen struct{}

// jbbLoad returns the offered load in [0.08, 1] for time t: a staircase
// of warehouse counts 1..8, each step held for jbbStepSec, then repeated.
func jbbLoad(t float64) float64 {
	const steps = 8
	step := int(t/jbbStepSec) % steps
	return 0.08 + 0.92*float64(step+1)/steps
}

// jbbStepSec is how long each warehouse count runs.
const jbbStepSec = 25.0

func (jbbGen) Demand(t float64, env Env, rng *sim.RNG) Demand {
	load := jbbLoad(t)
	return Demand{
		Active:          clamp01(rng.Jitter(load*0.78, 0.05)),
		UopsPerCycle:    rng.Jitter(1.10, 0.04),
		SpecActivity:    0.45,
		L2PerUop:        1.0,
		L3MissPerKuop:   rng.Jitter(1.75, 0.06),
		DirtyEvictFrac:  0.40,
		Prefetchability: 0.30,
		TLBMissPerMuop:  90,
		UCPerMcycle:     5,
		WriteFrac:       0.38,
		MemLocality:     0.35,
	}
}

func init() {
	register(Spec{
		Name:              "dbt-2",
		Class:             ClassInteger,
		Instances:         8,
		StaggerSec:        5,
		DefaultDuration:   300,
		ChipsetDomainBias: 1.70,
		Make: func(instance int, rng *sim.RNG) Generator {
			return &dbt2Gen{thinkLeft: rng.Float64() * 0.05}
		},
	})
	register(Spec{
		Name:              "specjbb",
		Class:             ClassInteger,
		Instances:         8,
		StaggerSec:        0, // all warehouses managed by one JVM
		DefaultDuration:   400,
		ChipsetDomainBias: 0.05,
		Make: func(instance int, rng *sim.RNG) Generator {
			return jbbGen{}
		},
	})
}

// idleGen produces no demand: the OS halts the hardware thread and only
// the periodic timer interrupt wakes it.
type idleGen struct{}

// idleBase is the timer tick's sliver of CPU, constant across slices,
// which is why the idle spec declares it Steady.
var idleBase = Demand{
	Active:       0.004,
	UopsPerCycle: 0.6,
	SpecActivity: 0.05,
	L2PerUop:     0.5,
	UCPerMcycle:  2,
	WriteFrac:    0.3,
}

func (idleGen) Demand(t float64, env Env, rng *sim.RNG) Demand {
	// The OS timer tick itself costs a sliver of CPU.
	return idleBase
}

func init() {
	steady := idleBase
	register(Spec{
		Name:              "idle",
		Class:             ClassInteger,
		Instances:         8,
		StaggerSec:        0,
		DefaultDuration:   120,
		ChipsetDomainBias: 1.85,
		Steady:            &steady,
		Make: func(instance int, rng *sim.RNG) Generator {
			return idleGen{}
		},
	})
}

// diskLoadGen is the paper's synthetic disk workload: "Each instance of
// this workload creates a very large file (1GB). Then the contents of the
// file are overwritten. After about 100K pages have been modified, the
// sync() operating system call is made to force the modified pages to
// disk." The alternation between the in-memory overwrite phase and the
// sync-triggered flush phase produces the highest sustained memory, I/O
// and disk power of any workload (Table 1) and the oscillating traces of
// Figures 6 and 7.
type diskLoadGen struct {
	writtenBytes float64 // dirtied since last sync
	syncIssued   bool
	flushWait    float64 // seconds left blocked in sync()
	// Per-instance parameters, jittered so the eight instances'
	// write/sync cycles drift apart instead of synchronizing (which
	// would leave whole seconds with no disk activity at all).
	syncBytes float64
	dirtyRate float64
}

// diskLoadSyncBytes is the per-instance dirty threshold (~100K 4KB pages).
const diskLoadSyncBytes = 400e6

// diskLoadDirtyRate is the per-instance page-overwrite rate (bytes/s):
// store traffic into the OS page cache at memory speed, throttled by the
// compute between writes.
const diskLoadDirtyRate = 30e6

// diskLoadFlushBase is the demand of a thread blocked in sync();
// diskLoadWriteBase the constant part of the overwrite phase (jittered
// fields overwritten per slice). Both hoisted off the per-slice path.
var (
	diskLoadFlushBase = Demand{
		Active:        0.06,
		UopsPerCycle:  0.7,
		SpecActivity:  0.1,
		L2PerUop:      0.6,
		L3MissPerKuop: 0.4,
		WriteFrac:     0.3,
	}
	diskLoadWriteBase = Demand{
		Active:          0.92,
		SpecActivity:    0.30,
		L2PerUop:        1.1,
		DirtyEvictFrac:  0.90, // overwriting whole pages: write-allocate + writeback
		Prefetchability: 0.60,
		TLBMissPerMuop:  70,
		UCPerMcycle:     10,
		WriteFrac:       0.75,
		MemLocality:     0.50,
	}
)

func (g *diskLoadGen) Demand(t float64, env Env, rng *sim.RNG) Demand {
	const slice = 0.001
	if g.flushWait > 0 {
		// Blocked inside sync() while the OS drains the page cache; the
		// disk flush is DMA, so the thread barely runs. sync() returns
		// after roughly this instance's share of the writeback drains, or
		// immediately once no flush is active at all.
		g.flushWait -= slice
		if g.flushWait <= 0 || !env.FlushActive {
			g.flushWait = 0
			g.writtenBytes = 0
			g.syncIssued = false
		}
		return diskLoadFlushBase
	}
	wrote := g.dirtyRate * slice * rng.Jitter(1, 0.1)
	g.writtenBytes += wrote
	d := diskLoadWriteBase
	d.UopsPerCycle = rng.Jitter(1.25, 0.04)
	d.L3MissPerKuop = rng.Jitter(1.75, 0.05)
	d.DiskWriteBytes = wrote
	if g.writtenBytes >= g.syncBytes && !g.syncIssued {
		d.Sync = true
		g.syncIssued = true
		// Expected own-share drain time: the array sustains ~140 MB/s
		// and typically serves a few concurrent flushers.
		g.flushWait = g.syncBytes / 35e6
	}
	return d
}

func init() {
	register(Spec{
		Name:              "diskload",
		Class:             ClassInteger,
		Instances:         8,
		StaggerSec:        8,
		DefaultDuration:   300,
		ChipsetDomainBias: 1.10,
		Make: func(instance int, rng *sim.RNG) Generator {
			return &diskLoadGen{
				syncBytes: rng.Jitter(diskLoadSyncBytes, 0.35),
				dirtyRate: rng.Jitter(diskLoadDirtyRate, 0.25),
			}
		},
	})
}
