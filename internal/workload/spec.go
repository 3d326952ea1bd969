package workload

import (
	"math"

	"trickledown/internal/sim"
)

// specParams is the steady-state per-thread signature of one SPEC CPU
// 2000 workload. Values are calibrated so the simulated server reproduces
// the paper's Table 1 subsystem power characterization: which codes are
// CPU-bound (gcc, vortex, mesa), which saturate the memory bus (lucas,
// mgrid, wupwise), and mcf's low-fetch/high-speculation pathology.
type specParams struct {
	upc   float64 // fetched uops per cycle while active
	spec  float64 // speculative issue activity (power-only)
	l2    float64 // L2 accesses per uop (power-only)
	mpku  float64 // L3 demand load misses per kilo-uop
	evict float64 // writeback transactions per demand miss
	pf    float64 // prefetchability of the miss stream, 0..1
	loc   float64 // DRAM row-buffer locality, 0..1
	tlb   float64 // TLB misses per million uops
	uc    float64 // uncacheable accesses per Mcycle
	wf    float64 // write fraction of memory traffic
	// initReadMB is the dataset loaded from disk at program start ("the
	// only access to other subsystems by these workloads occurs during
	// the loading of the data set at program initialization").
	initReadMB float64
}

// phaseFunc modulates a workload's demand over time. It returns
// multipliers for activity, fetch throughput and L3 miss rate.
type phaseFunc func(t float64, g *specGen) (actMul, upcMul, missMul float64)

// specGen generates demand for one instance of a SPEC workload.
type specGen struct {
	p     specParams
	phase phaseFunc
	rng   *sim.RNG
	initT float64 // seconds spent loading the dataset
	// initDemand and baseDemand are precomputed at construction: the
	// dataset-load demand is fully constant and the steady-state demand
	// is constant in everything but the phase/jitter fields, so building
	// them field-by-field every millisecond slice was pure overhead.
	initDemand Demand
	baseDemand Demand
	// piecewise-phase state (gcc-style workloads)
	segEnd         float64
	segAct, segUpc float64
	segMiss        float64
}

// initReadRate is the sustained rate (bytes/s) at which a starting SPEC
// instance reads its dataset.
const initReadRate = 60e6

func newSpecGen(p specParams, phase phaseFunc, rng *sim.RNG) *specGen {
	g := &specGen{p: p, phase: phase, rng: rng}
	if p.initReadMB > 0 {
		g.initT = p.initReadMB * 1e6 / initReadRate
	}
	// Dataset load: thread mostly blocked on I/O, modest CPU use.
	g.initDemand = Demand{
		Active:         0.25,
		UopsPerCycle:   0.8,
		SpecActivity:   0.1,
		L2PerUop:       0.5,
		L3MissPerKuop:  0.5,
		DirtyEvictFrac: 0.3,
		TLBMissPerMuop: p.tlb,
		UCPerMcycle:    p.uc + 10,
		WriteFrac:      0.6, // filling memory with the dataset
		MemLocality:    0.8, // sequential fill
		DiskReadBytes:  initReadRate * 0.001,
	}
	// Steady state: the phase- and jitter-driven fields are overwritten
	// per slice.
	g.baseDemand = Demand{
		L2PerUop:        p.l2,
		DirtyEvictFrac:  p.evict,
		Prefetchability: p.pf,
		TLBMissPerMuop:  p.tlb,
		UCPerMcycle:     p.uc,
		WriteFrac:       p.wf,
		MemLocality:     p.loc,
	}
	return g
}

// Demand fills the named result in place and reads the parameters
// through a pointer: it runs once per thread per slice, and copying the
// parameter block and a local Demand showed up in the stepper's profile.
func (g *specGen) Demand(t float64, env Env, rng *sim.RNG) (d Demand) {
	if t < g.initT {
		return g.initDemand
	}
	p := &g.p
	actMul, upcMul, missMul := 1.0, 1.0, 1.0
	if g.phase != nil {
		actMul, upcMul, missMul = g.phase(t-g.initT, g)
	}
	d = g.baseDemand
	d.Active = clamp01(0.985 * actMul)
	d.UopsPerCycle = rng.Jitter(p.upc*upcMul, 0.03)
	d.SpecActivity = rng.Jitter(p.spec*upcMul, 0.05)
	d.L3MissPerKuop = rng.Jitter(p.mpku*missMul, 0.05)
	return d
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// piecewisePhase implements gcc-style behaviour: the workload wanders
// through compilation units with distinct front-end and memory
// signatures, which is what gives gcc its large CPU and memory power
// variance in Table 2.
func piecewisePhase(minLen, maxLen, actLo, actHi, upcLo, upcHi, missLo, missHi float64) phaseFunc {
	return func(t float64, g *specGen) (float64, float64, float64) {
		if t >= g.segEnd {
			g.segEnd = t + minLen + g.rng.Float64()*(maxLen-minLen)
			g.segAct = actLo + g.rng.Float64()*(actHi-actLo)
			g.segUpc = upcLo + g.rng.Float64()*(upcHi-upcLo)
			g.segMiss = missLo + g.rng.Float64()*(missHi-missLo)
		}
		return g.segAct, g.segUpc, g.segMiss
	}
}

// sinePhase implements slow periodic behaviour (mcf's pointer-chasing
// phases, mgrid's multigrid sweeps).
func sinePhase(period, upcAmp, missAmp float64) phaseFunc {
	return func(t float64, g *specGen) (float64, float64, float64) {
		s := math.Sin(2 * math.Pi * t / period)
		return 1, 1 + upcAmp*s, 1 + missAmp*s
	}
}

// flatPhase is steady-state behaviour (art's near-zero variance).
func flatPhase() phaseFunc {
	return func(t float64, g *specGen) (float64, float64, float64) { return 1, 1, 1 }
}

// specSpec builds a Spec for an 8-instance staggered SPEC combination.
func specSpec(name string, class Class, bias float64, p specParams, mkPhase func() phaseFunc) Spec {
	return Spec{
		Name:              name,
		Class:             class,
		Instances:         8,
		StaggerSec:        30,
		DefaultDuration:   390,
		ChipsetDomainBias: bias,
		Make: func(instance int, rng *sim.RNG) Generator {
			return newSpecGen(p, mkPhase(), rng)
		},
	}
}

func init() {
	register(specSpec("gcc", ClassInteger, 1.45, specParams{
		upc: 1.35, spec: 0.45, l2: 1.0, mpku: 0.62,
		evict: 0.35, pf: 0.35, loc: 0.45, tlb: 40, uc: 2, wf: 0.35, initReadMB: 60,
	}, func() phaseFunc { return piecewisePhase(3, 8, 0.68, 1.0, 0.45, 1.55, 0.35, 2.3) }))

	register(specSpec("mcf", ClassInteger, 1.30, specParams{
		upc: 0.34, spec: 1.90, l2: 1.4, mpku: 4.20,
		evict: 0.40, pf: 0.55, loc: 0.50, tlb: 120, uc: 2, wf: 0.32, initReadMB: 190,
	}, func() phaseFunc { return sinePhase(97, 0.45, 0.35) }))

	register(specSpec("vortex", ClassInteger, -1.20, specParams{
		upc: 1.55, spec: 0.55, l2: 1.1, mpku: 0.55,
		evict: 0.35, pf: 0.30, loc: 0.25, tlb: 60, uc: 2, wf: 0.38, initReadMB: 70,
	}, func() phaseFunc { return piecewisePhase(5, 12, 0.94, 1.0, 0.85, 1.15, 0.7, 1.4) }))

	register(specSpec("art", ClassFP, 0.15, specParams{
		upc: 1.05, spec: 0.50, l2: 0.9, mpku: 0.90,
		evict: 0.40, pf: 0.70, loc: 0.45, tlb: 15, uc: 1, wf: 0.35, initReadMB: 20,
	}, func() phaseFunc { return flatPhase() }))

	register(specSpec("lucas", ClassFP, 0.50, specParams{
		upc: 0.45, spec: 0.15, l2: 0.5, mpku: 3.60,
		evict: 0.50, pf: 0.90, loc: 0.15, tlb: 25, uc: 1, wf: 0.52, initReadMB: 130,
	}, func() phaseFunc { return sinePhase(61, 0.20, 0.10) }))

	register(specSpec("mesa", ClassFP, -1.65, specParams{
		upc: 1.38, spec: 0.35, l2: 0.9, mpku: 0.58,
		evict: 0.35, pf: 0.45, loc: 0.45, tlb: 20, uc: 1, wf: 0.35, initReadMB: 25,
	}, func() phaseFunc { return sinePhase(41, 0.08, 0.15) }))

	register(specSpec("mgrid", ClassFP, 0.05, specParams{
		upc: 0.75, spec: 0.20, l2: 0.6, mpku: 2.15,
		evict: 0.50, pf: 0.85, loc: 0.20, tlb: 18, uc: 1, wf: 0.50, initReadMB: 60,
	}, func() phaseFunc { return sinePhase(53, 0.06, 0.06) }))

	register(specSpec("wupwise", ClassFP, -0.15, specParams{
		upc: 1.36, spec: 0.40, l2: 0.8, mpku: 1.30,
		evict: 0.45, pf: 0.80, loc: 0.20, tlb: 22, uc: 1, wf: 0.46, initReadMB: 80,
	}, func() phaseFunc { return sinePhase(71, 0.22, 0.15) }))
}
