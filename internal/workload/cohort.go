package workload

import (
	"fmt"

	"trickledown/internal/sim"
)

// The shared-resource interference model of a tenant cohort.
const (
	// cohortL3Sensitivity is the maximum fractional inflation of a
	// tenant's L3 miss rate at saturating co-tenant pressure: co-tenants
	// evict each other's lines from the shared last-level cache.
	cohortL3Sensitivity = 0.6
	// cohortBusSensitivity is the maximum fractional inflation of
	// writeback (dirty-evict) bus transactions: contended capacity turns
	// over dirty lines faster.
	cohortBusSensitivity = 0.3
	// cohortPressureScale is the co-tenant pressure (summed demand L3
	// misses per kilocycle) at which interference reaches half its
	// maximum — a Michaelis-Menten saturation, so inflation never
	// diverges however many tenants pile on.
	cohortPressureScale = 2.0
)

// TenantUsage accumulates one tenant's post-interference demand — its
// share of each subsystem's driving events, in the integrals core's
// per-tenant attribution divides by. All sums are per recorded
// interval (one machine slice each).
type TenantUsage struct {
	// Name is the tenant label.
	Name string
	// Intervals counts demand calls folded in.
	Intervals int64
	// ActiveSum integrates the Active fraction (unhalted time, the
	// paper's %Active CPU driver).
	ActiveSum float64
	// UopSum integrates Active×UopsPerCycle (fetched uops, Eq. 2).
	UopSum float64
	// L3MissSum integrates demand L3 misses per kilocycle.
	L3MissSum float64
	// BusSum integrates miss+writeback bus transactions per kilocycle
	// (the Eq. 4/5 memory driver).
	BusSum float64
	// DiskBytes and NetBytes integrate I/O traffic (the interrupt-rate
	// drivers of Eq. 3/7).
	DiskBytes float64
	NetBytes  float64
}

// Cohort places N tenant generators on one node and models their
// interference on the shared L3 and memory bus: each tenant's miss and
// writeback rates inflate with the *previous* interval's co-tenant
// pressure (a one-slice-lagged feedback, like the machine's bus-
// utilization environment), so the result is independent of the order
// the machine steps threads within a slice.
//
// A Cohort instance is the shared state of exactly one node: build one
// Cohort per machine. Its tenant generators are stepped by that single
// machine's (single-threaded) slice loop, so no locking is needed even
// when many nodes step in parallel cluster shards.
type Cohort struct {
	names  []string
	gens   []Generator
	sealed bool

	started bool
	curT    float64
	// prev holds each tenant's pressure from the last completed
	// interval; cur fills during the current one.
	prev      []float64
	cur       []float64
	prevTotal float64

	usage []TenantUsage
}

// NewCohort creates an empty cohort.
func NewCohort() *Cohort {
	return &Cohort{}
}

// Add registers a tenant and returns its index. Tenants must all be
// added before the first Generator call.
func (c *Cohort) Add(name string, gen Generator) (int, error) {
	if c.sealed {
		return 0, fmt.Errorf("workload: cohort sealed; add tenants before building generators")
	}
	if name == "" || gen == nil {
		return 0, fmt.Errorf("workload: cohort tenant needs a name and a generator")
	}
	c.names = append(c.names, name)
	c.gens = append(c.gens, gen)
	return len(c.gens) - 1, nil
}

// Tenants returns the tenant count.
func (c *Cohort) Tenants() int { return len(c.gens) }

// Generator returns tenant i's generator, sealing the cohort.
func (c *Cohort) Generator(i int) (Generator, error) {
	if len(c.gens) == 0 {
		return nil, fmt.Errorf("workload: cohort has zero tenants")
	}
	if i < 0 || i >= len(c.gens) {
		return nil, fmt.Errorf("workload: cohort tenant %d out of range [0,%d)", i, len(c.gens))
	}
	c.seal()
	return &cohortTenant{c: c, i: i}, nil
}

// Spec bridges the cohort into the machine constructors: instance i is
// tenant i, all starting at t=0 (tenants share the node for the whole
// run). The returned spec is bound to this cohort's shared state —
// place it on exactly one machine.
func (c *Cohort) Spec(name string) (Spec, error) {
	if len(c.gens) == 0 {
		return Spec{}, fmt.Errorf("workload: cohort has zero tenants")
	}
	c.seal()
	return Spec{
		Name:            name,
		Class:           ClassInteger,
		Instances:       len(c.gens),
		StaggerSec:      0,
		DefaultDuration: 60,
		Make: func(instance int, rng *sim.RNG) Generator {
			g, err := c.Generator(instance)
			if err != nil {
				return idleGen{}
			}
			return g
		},
	}, nil
}

// Usage returns a copy of the per-tenant usage accumulators.
func (c *Cohort) Usage() []TenantUsage {
	out := make([]TenantUsage, len(c.usage))
	copy(out, c.usage)
	return out
}

func (c *Cohort) seal() {
	if c.sealed {
		return
	}
	c.sealed = true
	n := len(c.gens)
	c.prev = make([]float64, n)
	c.cur = make([]float64, n)
	c.usage = make([]TenantUsage, n)
	for i, name := range c.names {
		c.usage[i].Name = name
	}
}

// rotate advances the interference state when the first tenant of a new
// interval arrives: the just-completed interval's pressures become the
// visible "previous interval" for everyone.
func (c *Cohort) rotate(t float64) {
	if c.started && t <= c.curT {
		return
	}
	if c.started {
		copy(c.prev, c.cur)
		c.prevTotal = 0
		for _, p := range c.prev {
			c.prevTotal += p
		}
	}
	c.started = true
	c.curT = t
	for i := range c.cur {
		c.cur[i] = 0
	}
}

// pressure scores how hard one tenant leans on the shared L3/bus:
// demand misses per kilocycle, writebacks included.
func pressure(d *Demand) float64 {
	return d.Active * d.UopsPerCycle * d.L3MissPerKuop * (1 + d.DirtyEvictFrac)
}

// cohortTenant is one tenant's view of the shared cohort.
type cohortTenant struct {
	c *Cohort
	i int
}

// Name implements Generator.
func (w *cohortTenant) Name() string { return "tenant:" + w.c.names[w.i] }

// Demand implements Generator: the inner tenant's demand with shared-
// cache and bus interference applied as a function of last interval's
// co-tenant pressure.
func (w *cohortTenant) Demand(t float64, env Env, rng *sim.RNG) Demand {
	c := w.c
	c.rotate(t)
	d := c.gens[w.i].Demand(t, env, rng)

	other := c.prevTotal - c.prev[w.i]
	if other < 0 {
		other = 0
	}
	// Saturating interference factor in [0,1): 0 when running alone
	// (single tenant ≡ plain generator, bit for bit).
	f := other / (other + cohortPressureScale)
	if f > 0 {
		d.L3MissPerKuop *= 1 + cohortL3Sensitivity*f
		d.DirtyEvictFrac *= 1 + cohortBusSensitivity*f
		// Interleaved miss streams defeat the stream prefetcher and
		// thrash DRAM row buffers.
		d.Prefetchability *= 1 - 0.5*f
		d.MemLocality *= 1 - 0.5*f
	}
	// Saturation clamp: interference never pushes demand past the
	// machine's capacity.
	d.Active = clamp01(d.Active)

	c.cur[w.i] = pressure(&d)
	u := &c.usage[w.i]
	u.Intervals++
	u.ActiveSum += d.Active
	u.UopSum += d.Active * d.UopsPerCycle
	miss := d.Active * d.UopsPerCycle * d.L3MissPerKuop
	u.L3MissSum += miss
	u.BusSum += miss * (1 + d.DirtyEvictFrac)
	u.DiskBytes += d.DiskReadBytes + d.DiskWriteBytes
	u.NetBytes += d.NetRxBytes + d.NetTxBytes
	return d
}

// Reset clears the interference state and usage accumulators (for
// reusing a cohort across runs is intentionally NOT supported; Reset
// exists for tests that replay the same cohort from t=0).
func (c *Cohort) Reset() {
	c.started = false
	c.curT = 0
	c.prevTotal = 0
	for i := range c.prev {
		c.prev[i] = 0
		c.cur[i] = 0
	}
	for i := range c.usage {
		name := c.usage[i].Name
		c.usage[i] = TenantUsage{Name: name}
	}
}
