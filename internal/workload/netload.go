package workload

import "trickledown/internal/sim"

// netloadGen is an extension beyond the paper's evaluation set: a
// web/streaming server workload exercising the network box of the
// paper's Figure 1 (the one subsystem path its workloads leave idle —
// "this workload does not require network clients"). Each instance
// serves bursts of requests: moderate CPU per request, small receive
// payloads, large transmit payloads DMA'd from the page cache, and
// coalesced NIC completion interrupts. It exists to show the
// trickle-down I/O model generalizes to non-disk DMA sources.
type netloadGen struct {
	burstLeft float64 // seconds left in the current service burst
	idleLeft  float64 // seconds left waiting for requests
}

// Per-instance service rates.
const (
	netTxPerSec = 11e6 // bytes/s transmitted while serving
	netRxPerSec = 1.2e6
)

// netloadBase is the constant part of a request's demand, hoisted out of
// the per-slice path.
var netloadBase = Demand{
	UopsPerCycle:    1.15,
	SpecActivity:    0.40,
	L2PerUop:        0.9,
	L3MissPerKuop:   1.1,
	DirtyEvictFrac:  0.35,
	Prefetchability: 0.40,
	TLBMissPerMuop:  80,
	UCPerMcycle:     20,
	WriteFrac:       0.35,
	MemLocality:     0.55,
}

func (g *netloadGen) Demand(t float64, env Env, rng *sim.RNG) Demand {
	const slice = 0.001
	d := netloadBase
	if g.burstLeft > 0 {
		g.burstLeft -= slice
		d.Active = 0.9
		d.NetTxBytes = netTxPerSec * slice * rng.Jitter(1, 0.2)
		d.NetRxBytes = netRxPerSec * slice * rng.Jitter(1, 0.2)
		return d
	}
	g.idleLeft -= slice
	if g.idleLeft <= 0 {
		// Next request batch: serve for a while, then wait briefly.
		g.burstLeft = 0.010 + rng.Exp(0.025)
		g.idleLeft = 0.004 + rng.Exp(0.012)
	}
	d.Active = 0.02 // interrupt handling between bursts
	d.UopsPerCycle = 0.7
	return d
}

func init() {
	register(Spec{
		Name:              "netload",
		Class:             ClassInteger,
		Instances:         8,
		StaggerSec:        5,
		DefaultDuration:   240,
		ChipsetDomainBias: 1.20,
		Make: func(instance int, rng *sim.RNG) Generator {
			return &netloadGen{idleLeft: rng.Float64() * 0.02}
		},
	})
}
