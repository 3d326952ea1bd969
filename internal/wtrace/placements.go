package wtrace

import (
	"trickledown/internal/machine"
	"trickledown/internal/sim"
	"trickledown/internal/workload"
)

// Placements is the one bridge from a trace back into a machine: it
// binds every recorded stream to its hardware thread with its recorded
// start offset. Each placement carries the replay spec directly and its
// own StartSec, so any recorded layout (a registry workload's uniform
// stagger or a mixed tdpower -placement run) replays exactly. Feed the
// result to machine.NewMixed or cluster.AddMixedConfig on a machine
// with at least Header.Threads hardware threads.
func (tr *Trace) Placements() ([]machine.Placement, error) {
	if err := tr.Validate(); err != nil {
		return nil, err
	}
	h := tr.Header
	shared := tr
	// One shared spec: the machine numbers instances per spec name in
	// placement order, so thread i's placement gets instance i and
	// replays stream i.
	spec := workload.Spec{
		Name:            "replay:" + h.Workload,
		Class:           workload.ClassInteger,
		Instances:       h.Threads,
		DefaultDuration: tr.Duration(),
		Make: func(instance int, rng *sim.RNG) workload.Generator {
			g, err := shared.Generator(instance)
			if err != nil {
				return &Replay{rate: h.RatePerSec}
			}
			return g
		},
		ChipsetDomainBias: h.ChipsetDomainBias,
	}
	out := make([]machine.Placement, h.Threads)
	for i := range out {
		out[i] = machine.Placement{
			Workload: spec.Name,
			Thread:   i,
			StartSec: h.Starts[i],
			Spec:     &spec,
		}
	}
	return out, nil
}
