// Package faults is the chaos layer: a declarative, seeded Plan of
// typed fault specs — stuck/drifting/dead DAQ channels, dropped sync
// pulses, glitching or saturating PMU counters, node crashes and worker
// panics — compiled into injectors that plug into the hook interfaces of
// internal/daq, internal/perfctr and internal/machine.
//
// The paper's measurement chain worked because the hardware behaved;
// production deployments of counter-driven power models do not get that
// luxury. This package exists so the degradation machinery (robust
// alignment, pool panic recovery, cluster quarantine) can be exercised
// deterministically: every random decision is a pure function of the
// plan seed, the spec index and the simulated timestamp, so the same
// Plan with the same seed produces a byte-identical fault schedule and
// bit-identical injections, run after run. An empty Plan (or a plan
// whose specs target other nodes) perturbs nothing: wiring it in leaves
// a healthy run byte-identical to an unwired one.
package faults

import (
	"bytes"
	"errors"
	"fmt"
	"math"

	"trickledown/internal/machine"
	"trickledown/internal/perfctr"
	"trickledown/internal/power"
	"trickledown/internal/stats"
	"trickledown/internal/telemetry"
)

// Injection telemetry, labeled by fault kind. Incremented only when a
// fault actually perturbs data (an inactive spec costs nothing).
var mInjected = telemetry.NewCounterVec("faults_injected_total",
	"fault perturbations applied to sensor, counter or node state", "kind")

// ErrInjectedCrash is the sentinel wrapped by every injected node crash,
// so quarantine logic and tests can recognize chaos-layer kills with
// errors.Is.
var ErrInjectedCrash = errors.New("faults: injected node crash")

// Kind enumerates the fault taxonomy.
type Kind int

const (
	// DAQStuck pins one sense channel at Magnitude Watts: a shorted or
	// railed sensor that keeps reporting, plausibly but wrongly.
	DAQStuck Kind = iota
	// DAQDrift adds Magnitude Watts per second of linear drift to one
	// channel: a warming sense resistor or sagging reference.
	DAQDrift
	// DAQDropout makes one channel read NaN: an unplugged probe. The
	// poisoned windows are rejected and repaired downstream
	// (align.MergeRobust).
	DAQDropout
	// SyncDrop eats each serial sync edge with probability Magnitude:
	// the flaky sync line that desynchronizes the two logs.
	SyncDrop
	// CounterGlitch overwrites one random counter of the targeted CPU
	// with the P4's 40-bit full-scale value, with probability Magnitude
	// per sample: the misprogrammed/wrapping slot.
	CounterGlitch
	// CounterSaturate clamps every counter of the targeted CPU at
	// Magnitude counts per interval: a slot stuck at a ceiling.
	CounterSaturate
	// NodeCrash kills the node at Start seconds: its run returns an
	// error wrapping ErrInjectedCrash and the machine stays dead.
	NodeCrash
	// WorkerPanic panics the node's stepping goroutine at Start seconds,
	// exercising panic recovery in the worker pool above.
	WorkerPanic
	// WorkloadDrift remixes the targeted CPU's counters toward a
	// memory-bound regime while the measured rails stay put: reported
	// unhalted cycles and fetched uops shrink and bus transactions grow
	// by Magnitude (a fraction in [0,1)), ramping in linearly over
	// workloadDriftRampSec from Start. The counter→power relationship
	// the models were fit on is thereby invalidated without any sensor
	// fault — the workload-mix change the self-healing layer
	// (internal/adapt) must detect and retrain through. Deterministic in
	// time, so drift drills replay bit for bit.
	WorkloadDrift
	numKinds
)

// workloadDriftRampSec is how long a WorkloadDrift takes to reach full
// Magnitude: gradual enough to look like a real mix shift, fast enough
// for short drills.
const workloadDriftRampSec = 20.0

var kindNames = [...]string{
	DAQStuck:        "daq_stuck",
	DAQDrift:        "daq_drift",
	DAQDropout:      "daq_dropout",
	SyncDrop:        "sync_drop",
	CounterGlitch:   "counter_glitch",
	CounterSaturate: "counter_saturate",
	NodeCrash:       "node_crash",
	WorkerPanic:     "worker_panic",
	WorkloadDrift:   "workload_drift",
}

// String returns the kind's schedule mnemonic.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Valid reports whether k names a defined fault kind.
func (k Kind) Valid() bool { return k >= 0 && k < numKinds }

// Spec is one fault to inject.
type Spec struct {
	// Kind selects the fault type.
	Kind Kind
	// Node targets one node by name; empty targets every node the plan
	// is attached to (single-machine runs attach under the empty name).
	Node string
	// Channel is the DAQ sense channel for DAQStuck/DAQDrift/DAQDropout.
	Channel power.Subsystem
	// CPU targets one processor for counter faults; negative means all.
	CPU int
	// Start is when the fault begins, in simulated target-clock seconds.
	Start float64
	// Duration bounds the fault; 0 or negative means until the end of
	// the run. Crash and panic faults ignore it (dead stays dead).
	Duration float64
	// Magnitude is the kind-specific parameter: stuck-at Watts, drift
	// Watts/second, drop/glitch probability in [0,1], or the saturation
	// ceiling in counts.
	Magnitude float64
}

// active reports whether the spec's window covers time t.
func (s *Spec) active(t float64) bool {
	if t < s.Start {
		return false
	}
	return s.Duration <= 0 || t < s.Start+s.Duration
}

// Plan is a reproducible set of faults: Specs plus the Seed every random
// decision derives from.
type Plan struct {
	Seed  uint64
	Specs []Spec
}

// Validate rejects malformed specs before anything is wired in.
func (p *Plan) Validate() error {
	for i, s := range p.Specs {
		switch {
		case !s.Kind.Valid():
			return fmt.Errorf("faults: spec %d: invalid kind %d", i, int(s.Kind))
		case s.Start < 0:
			return fmt.Errorf("faults: spec %d (%s): negative start %g", i, s.Kind, s.Start)
		case math.IsNaN(s.Start) || math.IsInf(s.Start, 0) || math.IsNaN(s.Magnitude) || math.IsInf(s.Magnitude, 0):
			return fmt.Errorf("faults: spec %d (%s): non-finite parameter", i, s.Kind)
		}
		if s.Kind == SyncDrop || s.Kind == CounterGlitch {
			if s.Magnitude < 0 || s.Magnitude > 1 {
				return fmt.Errorf("faults: spec %d (%s): probability %g outside [0,1]", i, s.Kind, s.Magnitude)
			}
		}
		if s.Kind == WorkloadDrift {
			if s.Magnitude < 0 || s.Magnitude >= 1 {
				return fmt.Errorf("faults: spec %d (%s): drift fraction %g outside [0,1)", i, s.Kind, s.Magnitude)
			}
		}
	}
	return nil
}

// mix is SplitMix64's stateless hash of x, behind every schedule
// decision.
func mix(x uint64) uint64 { return stats.SplitMix64(&x) }

// specSeed derives spec i's schedule seed from the plan seed.
func specSeed(planSeed uint64, i int) uint64 {
	return mix(planSeed ^ mix(uint64(i)+1))
}

// Schedule renders the fully derived fault schedule as deterministic
// text: the same Plan and Seed produce byte-identical output, which is
// the reproducibility contract chaos runs are audited against.
func (p *Plan) Schedule() []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "fault plan seed=%#016x specs=%d\n", p.Seed, len(p.Specs))
	for i, s := range p.Specs {
		node := s.Node
		if node == "" {
			node = "*"
		}
		fmt.Fprintf(&b, "[%02d] %-16s node=%-10s channel=%-8s cpu=%-3d start=%gs dur=%gs mag=%g seed=%#016x\n",
			i, s.Kind, node, s.Channel, s.CPU, s.Start, s.Duration, s.Magnitude, specSeed(p.Seed, i))
	}
	return b.Bytes()
}

// compiled is one spec bound to its derived seed and telemetry counter.
type compiled struct {
	Spec
	seed uint64
	m    *telemetry.Counter
	err  error // cached crash error (NodeCrash/WorkerPanic)
}

// chance is a deterministic pseudo-random event: a pure function of the
// spec seed and the timestamp bits, so replaying a run replays every
// decision.
func (c *compiled) chance(t, p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	h := mix(c.seed ^ mix(math.Float64bits(t)))
	return float64(h>>11)/(1<<53) < p
}

// Injector is a plan compiled for one node. It implements
// daq.FaultInjector, perfctr.FaultInjector and machine.CrashInjector;
// Attach wires it into an assembled server. A nil *Injector is a valid
// no-op for all three interfaces' call sites guarded by the hook owners.
type Injector struct {
	node  string
	specs []compiled
}

// Injector compiles the plan for one node, returning nil when no spec
// targets it (so healthy nodes carry no hooks at all).
func (p *Plan) Injector(node string) *Injector {
	var specs []compiled
	for i, s := range p.Specs {
		if s.Node != "" && s.Node != node {
			continue
		}
		specs = append(specs, compiled{
			Spec: s,
			seed: specSeed(p.Seed, i),
			m:    mInjected.With(s.Kind.String()),
		})
	}
	if len(specs) == 0 {
		return nil
	}
	return &Injector{node: node, specs: specs}
}

// PerturbReading implements daq.FaultInjector: sensor-chain faults.
func (in *Injector) PerturbReading(t float64, r power.Reading) power.Reading {
	for i := range in.specs {
		s := &in.specs[i]
		if !s.active(t) {
			continue
		}
		switch s.Kind {
		case DAQStuck:
			r[s.Channel] = s.Magnitude
		case DAQDrift:
			r[s.Channel] += s.Magnitude * (t - s.Start)
		case DAQDropout:
			r[s.Channel] = math.NaN()
		default:
			continue
		}
		s.m.Inc()
	}
	return r
}

// DropSync implements daq.FaultInjector: the flaky serial line.
func (in *Injector) DropSync(t float64) bool {
	for i := range in.specs {
		s := &in.specs[i]
		if s.Kind == SyncDrop && s.active(t) && s.chance(t, s.Magnitude) {
			s.m.Inc()
			return true
		}
	}
	return false
}

// counterFields enumerates the mutable counters of one CPU's sample, in
// a fixed order the glitch picker indexes into.
func counterFields(c *perfctr.CPUCounts) []*uint64 {
	return []*uint64{
		&c.Cycles, &c.HaltedCycles, &c.FetchedUops, &c.L3LoadMisses,
		&c.L3Misses, &c.TLBMisses, &c.BusTx, &c.BusPrefetchTx,
		&c.DMAOther, &c.Uncacheable,
	}
}

// p4FullScale is the Pentium 4's 40-bit counter ceiling, the value a
// glitching slot reads back.
const p4FullScale = (uint64(1) << 40) - 1

// PerturbCounts implements perfctr.FaultInjector: PMU glitches.
func (in *Injector) PerturbCounts(t float64, cpu int, c *perfctr.CPUCounts) {
	for i := range in.specs {
		s := &in.specs[i]
		if !s.active(t) || (s.CPU >= 0 && s.CPU != cpu) {
			continue
		}
		switch s.Kind {
		case CounterGlitch:
			if !s.chance(t+float64(cpu)*1e-9, s.Magnitude) {
				continue
			}
			fields := counterFields(c)
			pick := mix(s.seed^mix(math.Float64bits(t))^mix(uint64(cpu)+1)) % uint64(len(fields))
			*fields[pick] = p4FullScale
		case CounterSaturate:
			ceiling := uint64(s.Magnitude)
			if ceiling == 0 {
				ceiling = 1 << 20
			}
			hit := false
			for _, f := range counterFields(c) {
				if *f > ceiling {
					*f = ceiling
					hit = true
				}
			}
			if !hit {
				continue
			}
		case WorkloadDrift:
			r := (t - s.Start) / workloadDriftRampSec
			if r <= 0 {
				continue
			}
			if r > 1 {
				r = 1
			}
			m := s.Magnitude * r
			if c.Cycles > c.HaltedCycles {
				active := float64(c.Cycles - c.HaltedCycles)
				c.HaltedCycles = c.Cycles - uint64(active*(1-m))
			}
			c.FetchedUops = uint64(float64(c.FetchedUops) * (1 - m))
			c.BusTx = uint64(float64(c.BusTx) * (1 + m))
			c.BusPrefetchTx = uint64(float64(c.BusPrefetchTx) * (1 + m))
		default:
			continue
		}
		s.m.Inc()
	}
}

// CrashErr implements machine.CrashInjector: the node dies at Start.
func (in *Injector) CrashErr(now float64) error {
	for i := range in.specs {
		s := &in.specs[i]
		if s.Kind != NodeCrash || now < s.Start {
			continue
		}
		if s.err == nil {
			s.err = fmt.Errorf("%w: node %q at %gs", ErrInjectedCrash, in.node, s.Start)
			s.m.Inc()
		}
		return s.err
	}
	return nil
}

// PanicAt implements machine.CrashInjector: the stepping goroutine blows
// up at Start.
func (in *Injector) PanicAt(now float64) bool {
	for i := range in.specs {
		s := &in.specs[i]
		if s.Kind == WorkerPanic && now >= s.Start {
			s.m.Inc()
			return true
		}
	}
	return false
}

// Attach compiles the plan for the named node and wires the injector
// into the server's DAQ, counter sampler and crash hook. It reports
// whether any fault targets the node; a false return leaves the server
// untouched (and byte-identical to an unwired run).
func Attach(p *Plan, node string, srv *machine.Server) bool {
	in := p.Injector(node)
	if in == nil {
		return false
	}
	srv.DAQ().SetFaultInjector(in)
	srv.Sampler().SetFaultInjector(in)
	srv.SetCrashInjector(in)
	return true
}
