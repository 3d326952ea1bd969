package main

import (
	"fmt"

	"trickledown/internal/chipset"
	"trickledown/internal/cpu"
	"trickledown/internal/daq"
	"trickledown/internal/disk"
	"trickledown/internal/iobus"
	"trickledown/internal/machine"
	"trickledown/internal/mem"
	"trickledown/internal/osmodel"
	"trickledown/internal/perfctr"
	"trickledown/internal/pmu"
	"trickledown/internal/power"
	"trickledown/internal/sim"
	"trickledown/internal/workload"
)

// sampleEvery is how often (in slices) the in-situ timers run: the
// workload layer is timed on slices k%sampleEvery == 0, and a whole slice
// (machine.slice_ns) on slices k%sampleEvery == sampleEvery/2. Sampling
// keeps the clock reads, ~50 ns each, from inflating what they measure.
const sampleEvery = 16

// window is a recorded stretch of one server's per-slice inputs: what
// each hardware thread demanded, and the bus utilisation and rail truth
// the machine reported after the slice.
type window struct {
	name    string
	bias    float64
	start   int64 // first recorded slice index
	demands [][]workload.Demand
	busUtil []float64 // busUtil[k] is after slice k; busPrev before the first
	busPrev float64
	truth   []power.Reading
	machine machine.Config
}

// sliceTracer times one server's slices from OnSlice deltas, times the
// workload layer in situ through wrapped generators, and optionally
// records a window of per-slice inputs for the layer replay.
type sliceTracer struct {
	idx  int64 // slices completed on this server
	prev int64 // nanotime at the end of the OnSlice callback before a timed slice

	sliceNs, sliceN       int64
	demandNs, demandCalls int64
	demandSlices          int64
	cur                   []workload.Demand
	win                   *window
	winStart, winEnd      int64
}

// newSliceTracer returns a tracer for a server with the given thread
// count; a non-nil win records slices [start, start+len) into it.
func newSliceTracer(threads int, win *window, slices int) *sliceTracer {
	t := &sliceTracer{cur: make([]workload.Demand, threads), win: win}
	if win != nil {
		t.winStart, t.winEnd = win.start, win.start+int64(slices)
	}
	return t
}

func (t *sliceTracer) recording() bool {
	return t.win != nil && t.idx >= t.winStart && t.idx < t.winEnd
}

// wrap returns spec with every generator timed by the tracer. Instance i
// of a machine.New server runs on hardware thread i.
func (t *sliceTracer) wrap(spec workload.Spec) workload.Spec {
	inner := spec.Make
	spec.Make = func(instance int, rng *sim.RNG) workload.Generator {
		return &timedGen{Generator: inner(instance, rng), t: t, thread: instance}
	}
	return spec
}

// onSlice is the server's per-slice observer.
func (t *sliceTracer) onSlice(info machine.SliceInfo) {
	k := t.idx
	switch k % sampleEvery {
	case 0:
		t.demandSlices++
	case sampleEvery / 2:
		t.sliceNs += nanotime() - t.prev
		t.sliceN++
	}
	if w := t.win; w != nil {
		switch {
		case k == t.winStart-1:
			w.busPrev = info.BusUtil
		case t.recording():
			w.demands = append(w.demands, append([]workload.Demand(nil), t.cur...))
			w.busUtil = append(w.busUtil, info.BusUtil)
			w.truth = append(w.truth, info.Truth)
		}
		clear(t.cur)
	}
	t.idx++
	if t.idx%sampleEvery == sampleEvery/2 {
		t.prev = nanotime()
	}
}

// timedGen is the Placement.Spec-style wrapper: it forwards to the real
// generator, timing one slice in sampleEvery.
type timedGen struct {
	workload.Generator
	t      *sliceTracer
	thread int
}

func (g *timedGen) Demand(at float64, env workload.Env, rng *sim.RNG) workload.Demand {
	if t := g.t; t.idx%sampleEvery == 0 || t.recording() {
		return g.traced(at, env, rng)
	}
	return g.Generator.Demand(at, env, rng)
}

func (g *timedGen) traced(at float64, env workload.Env, rng *sim.RNG) workload.Demand {
	t := g.t
	var d workload.Demand
	if t.idx%sampleEvery == 0 {
		t0 := nanotime()
		d = g.Generator.Demand(at, env, rng)
		t.demandNs += nanotime() - t0
		t.demandCalls++
	} else {
		d = g.Generator.Demand(at, env, rng)
	}
	if t.recording() {
		t.cur[g.thread] = d
	}
	return d
}

// layerTable accumulates host time per stepper layer.
type layerTable struct {
	// In situ, from the traced passes: whole slices from passes without
	// the generator wrapper (or, if there were none, with it), and the
	// workload layer from the wrapped pass.
	sliceNs, sliceN               float64
	wrappedSliceNs, wrappedSliceN float64
	demandNs, demandCalls         float64
	demandSlices                  float64
	// From the replay.
	replaySlices                         float64
	os, cpu, mem, chip, truth, daq, perf float64
}

func (lt *layerTable) addTracer(t *sliceTracer) {
	if t.win == nil {
		lt.sliceNs += float64(t.sliceNs)
		lt.sliceN += float64(t.sliceN)
		return
	}
	lt.wrappedSliceNs += float64(t.sliceNs)
	lt.wrappedSliceN += float64(t.sliceN)
	lt.demandNs += float64(t.demandNs)
	lt.demandCalls += float64(t.demandCalls)
	lt.demandSlices += float64(t.demandSlices)
}

// replay feeds a recorded window into fresh instances of each layer,
// through their exported Step/Acquire calls in the machine's data-flow
// order, and times each call. The machine's own glue (traffic
// classification, rail drift) is not replayed and lands in the
// residual.
func (lt *layerTable) replay(w *window) error {
	cfg := w.machine
	rng := sim.NewRNG(cfg.Seed)
	clock := sim.NewClock(cfg.Slice, cfg.CoreHz)
	for i := int64(0); i < w.start; i++ {
		clock.Tick()
	}
	io := iobus.New(cfg.NumCPUs)
	ctl := disk.NewController(cfg.NumDisks, rng)
	osl := osmodel.New(osmodel.DefaultConfig(cfg.NumCPUs), io, ctl, rng)
	procs := make([]*cpu.Processor, cfg.NumCPUs)
	pmus := make([]*pmu.PMU, cfg.NumCPUs)
	for i := range procs {
		procs[i] = cpu.New(i, rng)
		pmus[i] = procs[i].PMU()
	}
	memory := mem.New()
	chip := chipset.New(rng)
	chip.SetDomainBias(w.bias)
	dq := daq.New(cfg.DAQ, rng)
	sampler, err := perfctr.NewSampler(cfg.SamplePeriodSec, pmus, io.APIC, rng)
	if err != nil {
		return fmt.Errorf("replay %s: %w", w.name, err)
	}
	sampler.AttachUtilSource(osl)
	sampler.AttachThreadUtilSource(osl.ThreadBusySource())
	sampler.OnSample(dq.SyncPulse)
	profile := power.ServerProfile()
	stats := make([]cpu.SliceStats, cfg.NumCPUs)
	cycles := clock.CyclesPerSlice()
	sliceSec := clock.SliceSeconds()

	busPrev := w.busPrev
	for k, d := range w.demands {
		t0 := nanotime()
		osRes := osl.Step(clock, d)
		t1 := nanotime()
		for i, p := range procs {
			stats[i] = p.Step(cycles, &d[2*i], &d[2*i+1], busPrev)
		}
		t2 := nanotime()
		lt.os += float64(t1 - t0)
		lt.cpu += float64(t2 - t1)

		var tr mem.Traffic
		var writeTx, locTx, classTx, demandSum float64
		for i := range stats {
			st := &stats[i]
			tr.CPUTx += st.DemandBusTx
			tr.PrefetchTx += st.PrefetchBusTx
			writeTx += st.TotalBusTx() * st.WriteFrac
			locTx += st.TotalBusTx() * st.MemLocality
			classTx += st.TotalBusTx()
			demandSum += st.DemandBusTx
		}
		tr.Locality = 0.5
		if classTx > 0 {
			tr.WriteFrac, tr.Locality = writeTx/classTx, locTx/classTx
		}
		tr.DMATx = osRes.DMA.BusTx
		if osRes.DMA.Bytes > 0 {
			tr.DMAWriteFrac = osRes.DMA.WriteBytes / osRes.DMA.Bytes
		}

		t3 := nanotime()
		memStats := memory.Step(sliceSec, tr)
		t4 := nanotime()
		for i, p := range procs {
			p.ObserveDMA(memStats.DMATx + snoopShare*(demandSum-stats[i].DemandBusTx))
		}
		t5 := nanotime()
		chipStats := chip.Step(sliceSec, w.busUtil[k])
		t6 := nanotime()
		var truth float64
		for i := range stats {
			truth += profile.CPU(stats[i])
		}
		truth += profile.Chipset(chipStats) + profile.Memory(memStats, sliceSec) +
			profile.IO(osRes.DMA, float64(osRes.DeviceInts), sliceSec) +
			profile.Disk(osRes.Disk, sliceSec, cfg.NumDisks)
		t7 := nanotime()
		dq.Acquire(sliceSec, w.truth[k])
		t8 := nanotime()
		sampler.Step(clock)
		t9 := nanotime()
		sink += truth

		lt.mem += float64(t4 - t3)
		lt.cpu += float64(t5 - t4)
		lt.chip += float64(t6 - t5)
		lt.truth += float64(t7 - t6)
		lt.daq += float64(t8 - t7)
		lt.perf += float64(t9 - t8)
		busPrev = w.busUtil[k]
		clock.Tick()
	}
	lt.replaySlices += float64(len(w.demands))
	return nil
}

// snoopShare mirrors the machine's share of peer demand traffic each
// processor's DMA/other counter sees.
const snoopShare = 0.05

// sink keeps replayed results observable so the compiler cannot drop
// the calls that produce them.
var sink float64

// layerRow is one line of the stepper table.
type layerRow struct {
	name string
	ns   float64
}

// rows returns per-slice host ns for each layer, with the timer's own
// cost subtracted (overhead is ns per empty timed region). The replay
// times eight regions per slice, two of them for the processors.
func (lt *layerTable) rows(overhead float64) (layers []layerRow, slice, residual float64) {
	per := func(acc, regionsPerSlice float64) float64 {
		if lt.replaySlices == 0 {
			return 0
		}
		return acc/lt.replaySlices - regionsPerSlice*overhead
	}
	demand := 0.0
	if lt.demandSlices > 0 {
		demand = (lt.demandNs - lt.demandCalls*overhead) / lt.demandSlices
	}
	layers = []layerRow{
		{"workload.demand_ns", demand},
		{"osmodel.step_ns", per(lt.os, 1)},
		{"cpu.step_ns", per(lt.cpu, 2)},
		{"mem.step_ns", per(lt.mem, 1)},
		{"chipset.step_ns", per(lt.chip, 1)},
		{"power.truth_ns", per(lt.truth, 1)},
		{"daq.acquire_ns", per(lt.daq, 1)},
		{"perfctr.sample_ns", per(lt.perf, 1)},
	}
	switch {
	case lt.sliceN > 0:
		slice = lt.sliceNs / lt.sliceN
	case lt.wrappedSliceN > 0:
		slice = lt.wrappedSliceNs / lt.wrappedSliceN
	}
	residual = slice
	for _, l := range layers {
		residual -= l.ns
	}
	return layers, slice, residual
}
