// Package machine assembles the full target server of the paper — four
// SMT processors, front-side bus and DRAM, chipset, I/O subsystem, two
// SCSI disks, the OS layer — together with the measurement apparatus:
// mechanistic ground-truth power on every rail feeding the DAQ, and a
// perfctr sampler reading the PMUs at 1 Hz with the serial sync pulse
// joining the two.
//
// A Server runs one workload (with the paper's staggered multi-instance
// placement) and yields the aligned power/counter dataset that the
// modeling layer (internal/core) trains and validates on.
package machine

import (
	"context"
	"fmt"
	"math"
	"time"

	"trickledown/internal/align"
	"trickledown/internal/chipset"
	"trickledown/internal/cpu"
	"trickledown/internal/daq"
	"trickledown/internal/disk"
	"trickledown/internal/iobus"
	"trickledown/internal/mem"
	"trickledown/internal/osmodel"
	"trickledown/internal/perfctr"
	"trickledown/internal/pmu"
	"trickledown/internal/power"
	"trickledown/internal/sim"
	"trickledown/internal/telemetry"
	"trickledown/internal/workload"
)

// Config describes the hardware build of the server.
type Config struct {
	// NumCPUs and ThreadsPerCPU size the SMP (the paper: 4 x 2).
	NumCPUs       int
	ThreadsPerCPU int
	// NumDisks sizes the SCSI array (the paper: 2).
	NumDisks int
	// CoreHz and Slice set the simulation time base.
	CoreHz float64
	Slice  time.Duration
	// SamplePeriodSec is the counter sampling period (the paper: 1 s).
	SamplePeriodSec float64
	// Seed makes the whole run reproducible.
	Seed uint64
	// DAQ configures the acquisition hardware.
	DAQ daq.Config
	// DiskPolicy optionally enables disk power management (spindown);
	// the zero value reproduces the paper's always-spinning SCSI disks.
	DiskPolicy disk.PowerPolicy
	// Power selects the machine generation's ground-truth power profile;
	// nil means the paper's server (power.ServerProfile).
	Power *power.Profile
}

// DefaultConfig is the paper's server.
func DefaultConfig() Config {
	return Config{
		NumCPUs:         4,
		ThreadsPerCPU:   2,
		NumDisks:        2,
		CoreHz:          sim.DefaultCoreHz,
		Slice:           sim.DefaultSlice,
		SamplePeriodSec: 1.0,
		Seed:            1,
		DAQ:             daq.DefaultConfig(),
	}
}

// mDemandSanitized counts the demand fields step zeroed for being NaN
// or ±Inf.
var mDemandSanitized = telemetry.NewCounter("machine_demand_sanitized_total",
	"non-finite workload demand fields zeroed before the OS and processors saw them")

// job binds a workload instance to a hardware thread with its staggered
// start time.
type job struct {
	gen   workload.Generator
	start float64
}

// railDrift models the slow wander of each rail's consumption with
// temperature and regulator state — the reason even a perfectly idle
// machine shows tenths-of-a-Watt standard deviation in the paper's
// Table 2. Each rail is an independent Ornstein-Uhlenbeck process; the
// chipset rail is excluded because its (larger) domain-coupling drift
// lives in internal/chipset.
type railDrift struct {
	rng   *sim.RNG
	state power.Reading
	sigma power.Reading
	tau   float64
	// noiseScale holds sigma[i]·sqrt(2·noiseSlice/tau), each rail's
	// noise scale for a slice of noiseSlice seconds, recomputed only
	// when the slice length changes.
	noiseSlice float64
	noiseScale power.Reading
}

func newRailDrift(parent *sim.RNG) *railDrift {
	return &railDrift{
		rng: parent.Split(),
		sigma: power.Reading{
			power.SubCPU:    0.35,
			power.SubMemory: 0.16,
			power.SubIO:     0.12,
			power.SubDisk:   0.025,
		},
		tau: 25,
	}
}

// step advances the drift by one slice and adds the current offsets
// into *truth.
func (d *railDrift) step(sliceSec float64, truth *power.Reading) {
	if sliceSec != d.noiseSlice {
		d.noiseSlice = sliceSec
		k := math.Sqrt(2 * sliceSec / d.tau)
		for i, s := range d.sigma {
			d.noiseScale[i] = s * k
		}
	}
	for i := range d.state {
		if d.sigma[i] != 0 {
			d.state[i] += -d.state[i]/d.tau*sliceSec + d.noiseScale[i]*d.rng.Norm(0, 1)
		}
		truth[i] += d.state[i]
	}
}

// snoopShare is the fraction of a processor's demand bus transactions
// that appear as snoop traffic in its peers' DMA/other counters — the
// P4 counter ambiguity the paper flags ("all memory bus accesses that do
// not originate within a processor are combined into a single metric").
const snoopShare = 0.05

// CrashInjector lets a chaos harness kill the machine mid-run: a crash
// turns RunContext into an error return (the node died), a panic unwinds
// the stepping goroutine itself (exercising worker-level recovery in the
// layers above, internal/pool). Implementations must be deterministic in
// the simulated time so chaos runs stay reproducible.
type CrashInjector interface {
	// CrashErr is consulted every slice; the first non-nil return crashes
	// the machine: the current run stops (RunContext returns this error)
	// and the machine stays dead for the rest of simulated time.
	CrashErr(nowSec float64) error
	// PanicAt is consulted every slice; returning true panics the
	// stepping goroutine with the machine left between slices.
	PanicAt(nowSec float64) bool
}

// SliceInfo is handed to per-slice observers (examples and tests); all
// values describe the slice just computed.
type SliceInfo struct {
	Seconds float64
	Truth   power.Reading
	BusUtil float64
}

// Server is the assembled machine.
type Server struct {
	cfg    Config
	clock  *sim.Clock
	engine *sim.Engine
	rng    *sim.RNG

	procs   []*cpu.Processor
	memory  *mem.Memory
	chip    *chipset.Chipset
	io      *iobus.Subsystem
	ctl     *disk.Controller
	os      *osmodel.OS
	dq      *daq.DAQ
	sampler *perfctr.Sampler

	jobs    []job
	demands []workload.Demand
	jobRNGs []*sim.RNG
	env     workload.Env
	busUtil float64

	drift   *railDrift
	profile power.Profile
	// Per-slice hand-off slots: each layer writes its result here in
	// place and the next reads it by pointer, so no stats struct is
	// copied per slice.
	lastCPU []cpu.SliceStats
	osRes   osmodel.Result
	traffic mem.Traffic
	memSt   mem.Stats

	onSlice []func(SliceInfo)

	crash     CrashInjector
	crashErr  error
	abortSlot func() // cancels the in-flight RunContext after a crash
}

// Placement pins one workload instance to a hardware thread with a
// start time — the unit of heterogeneous (consolidated) scheduling.
type Placement struct {
	// Workload is a registered workload name.
	Workload string
	// Thread is the hardware thread index (0 .. NumCPUs*ThreadsPerCPU-1);
	// threads 2i and 2i+1 share processor i.
	Thread int
	// StartSec delays the instance's start.
	StartSec float64
	// Spec, when non-nil, supplies the workload spec directly instead
	// of resolving Workload through the registry — the hook that lets
	// unregistered generators (trace replays, tenant cohorts, wrapped
	// recorders) ride the unchanged machine/cluster constructors.
	// Instance counting and chipset-bias dedup key on Spec.Name.
	Spec *workload.Spec
}

// New builds a server running the named workload. The workload's
// instances are placed on hardware threads in order with the spec's
// staggered starts.
func New(cfg Config, spec workload.Spec) (*Server, error) {
	placements := make([]Placement, spec.Instances)
	for i := 0; i < spec.Instances; i++ {
		placements[i] = Placement{
			Workload: spec.Name,
			Thread:   i,
			StartSec: float64(i) * spec.StaggerSec,
		}
	}
	return newServer(cfg, placements, func(name string) (workload.Spec, error) {
		if name == spec.Name {
			return spec, nil
		}
		return workload.ByName(name)
	})
}

// NewMixed builds a server running a heterogeneous set of workload
// instances — the consolidation scenario the paper's ensemble-management
// motivation implies. The chipset's workload-dependent domain bias is
// averaged over the distinct placed workloads.
func NewMixed(cfg Config, placements []Placement) (*Server, error) {
	if len(placements) == 0 {
		return nil, fmt.Errorf("machine: no placements")
	}
	return newServer(cfg, placements, workload.ByName)
}

// newServer assembles the machine and places instances.
func newServer(cfg Config, placements []Placement, lookup func(string) (workload.Spec, error)) (*Server, error) {
	if cfg.NumCPUs <= 0 || cfg.ThreadsPerCPU <= 0 {
		return nil, fmt.Errorf("machine: invalid CPU configuration %d x %d", cfg.NumCPUs, cfg.ThreadsPerCPU)
	}
	if cfg.NumDisks <= 0 {
		return nil, fmt.Errorf("machine: need at least one disk")
	}
	threads := cfg.NumCPUs * cfg.ThreadsPerCPU
	if len(placements) > threads {
		return nil, fmt.Errorf("machine: %d instances exceed %d hardware threads", len(placements), threads)
	}
	rng := sim.NewRNG(cfg.Seed)
	s := &Server{
		cfg:     cfg,
		clock:   sim.NewClock(cfg.Slice, cfg.CoreHz),
		rng:     rng,
		memory:  mem.New(),
		chip:    chipset.New(rng),
		io:      iobus.New(cfg.NumCPUs),
		ctl:     disk.NewController(cfg.NumDisks, rng),
		demands: make([]workload.Demand, threads),
	}
	s.ctl.SetPowerPolicy(cfg.DiskPolicy)
	s.profile = power.ServerProfile()
	if cfg.Power != nil {
		if err := cfg.Power.Validate(); err != nil {
			return nil, err
		}
		s.profile = *cfg.Power
	}
	s.engine = sim.NewEngine(s.clock)
	for i := 0; i < cfg.NumCPUs; i++ {
		s.procs = append(s.procs, cpu.New(i, rng))
	}
	s.lastCPU = make([]cpu.SliceStats, cfg.NumCPUs)
	s.os = osmodel.New(osmodel.DefaultConfig(cfg.NumCPUs), s.io, s.ctl, rng)
	s.dq = daq.New(cfg.DAQ, rng)
	s.drift = newRailDrift(rng)

	pmus := make([]*pmu.PMU, cfg.NumCPUs)
	for i, p := range s.procs {
		pmus[i] = p.PMU()
	}
	sampler, err := perfctr.NewSampler(cfg.SamplePeriodSec, pmus, s.io.APIC, rng)
	if err != nil {
		return nil, err
	}
	s.sampler = sampler
	s.sampler.AttachUtilSource(s.os)
	s.sampler.AttachThreadUtilSource(s.os.ThreadBusySource())
	// The serial sync byte: every counter sample closes a DAQ window.
	s.sampler.OnSample(s.dq.SyncPulse)

	// Place the instances; the chipset domain bias averages over the
	// distinct workloads present.
	s.jobs = make([]job, threads)
	s.jobRNGs = make([]*sim.RNG, threads)
	for i := 0; i < threads; i++ {
		s.jobRNGs[i] = rng.Split()
	}
	seen := map[string]bool{}
	var bias float64
	instanceOf := map[string]int{}
	for _, pl := range placements {
		var spec workload.Spec
		if pl.Spec != nil {
			spec = *pl.Spec
			if spec.Name == "" || spec.Make == nil {
				return nil, fmt.Errorf("machine: inline spec for thread %d needs a name and a Make", pl.Thread)
			}
		} else {
			var err error
			spec, err = lookup(pl.Workload)
			if err != nil {
				return nil, err
			}
		}
		if pl.Thread < 0 || pl.Thread >= threads {
			return nil, fmt.Errorf("machine: thread %d out of range [0,%d)", pl.Thread, threads)
		}
		if s.jobs[pl.Thread].gen != nil {
			return nil, fmt.Errorf("machine: thread %d placed twice", pl.Thread)
		}
		if pl.StartSec < 0 {
			return nil, fmt.Errorf("machine: negative start for thread %d", pl.Thread)
		}
		inst := instanceOf[spec.Name]
		instanceOf[spec.Name]++
		s.jobs[pl.Thread] = job{
			gen:   spec.Make(inst, rng.Split()),
			start: pl.StartSec,
		}
		if !seen[spec.Name] {
			seen[spec.Name] = true
			bias += spec.ChipsetDomainBias
		}
	}
	s.chip.SetDomainBias(bias / float64(len(seen)))
	s.engine.Register(sim.ComponentFunc(s.step))
	return s, nil
}

// SetFreqScaleAll sets every processor's DVFS operating point.
func (s *Server) SetFreqScaleAll(scale float64) {
	for _, p := range s.procs {
		p.SetFreqScale(scale)
	}
}

// SetThrottleAll applies the same throttle to every processor.
func (s *Server) SetThrottleAll(frac float64) {
	for _, p := range s.procs {
		p.SetThrottle(frac)
	}
}

// SetCrashInjector installs a crash/panic injector consulted every slice
// (nil restores a machine that only dies when told to by physics). Call
// it before the run.
func (s *Server) SetCrashInjector(ci CrashInjector) { s.crash = ci }

// CrashErr returns the error this machine died with, or nil while it is
// still running.
func (s *Server) CrashErr() error { return s.crashErr }

// OnSlice registers an observer called after every slice.
func (s *Server) OnSlice(fn func(SliceInfo)) {
	if fn != nil {
		s.onSlice = append(s.onSlice, fn)
	}
}

// step advances the whole machine one slice, in data-flow order:
// demand -> OS/IO path -> processors -> memory bus -> ground truth ->
// acquisition -> sampling.
func (s *Server) step(c *sim.Clock) {
	now := c.Seconds()
	sliceSec := c.SliceSeconds()

	// 0. Chaos hooks. A crashed machine freezes: no demand, no power, no
	// samples — the measurement chain sees the node disappear.
	if s.crashErr != nil {
		return
	}
	if s.crash != nil {
		if s.crash.PanicAt(now) {
			panic(fmt.Sprintf("machine: injected panic at %.3fs", now))
		}
		if err := s.crash.CrashErr(now); err != nil {
			s.crashErr = err
			if s.abortSlot != nil {
				s.abortSlot()
			}
			return
		}
	}

	// 1. Thread demand.
	for i := range s.jobs {
		j := &s.jobs[i]
		if j.gen == nil || now < j.start {
			s.demands[i] = workload.Demand{}
			continue
		}
		s.demands[i] = j.gen.Demand(now-j.start, s.env, s.jobRNGs[i])
	}
	// Zero non-finite demand before anything consumes it. A pass of its
	// own, so its loads do not wait on the copies the loop above stored.
	for i := range s.demands {
		if n := s.demands[i].Sanitize(); n > 0 {
			mDemandSanitized.Add(uint64(n))
		}
	}

	// 2. OS and the I/O path (page cache, disks, DMA, interrupts).
	osRes := &s.osRes
	s.os.StepInto(osRes, c, s.demands)

	// 3. Processors (prefetcher feedback uses last slice's bus
	// utilization, the paper's streaming-detection effect). Each
	// processor writes its stats straight into its lastCPU slot.
	cycles := c.CyclesPerSlice()
	var cpuTruth, demandSum float64
	tr := &s.traffic
	*tr = mem.Traffic{}
	var writeTx, locTx, classTx float64
	for i, p := range s.procs {
		st := &s.lastCPU[i]
		p.StepInto(st, cycles, &s.demands[2*i], &s.demands[2*i+1], s.busUtil)
		cpuTruth += s.profile.CPUOf(st)
		tr.CPUTx += st.DemandBusTx
		tr.PrefetchTx += st.PrefetchBusTx
		tx := st.DemandBusTx + st.PrefetchBusTx
		writeTx += tx * st.WriteFrac
		locTx += tx * st.MemLocality
		classTx += tx
		demandSum += st.DemandBusTx
	}
	if classTx > 0 {
		tr.WriteFrac = writeTx / classTx
		tr.Locality = locTx / classTx
	} else {
		tr.Locality = 0.5
	}
	tr.DMATx = osRes.DMA.BusTx
	if osRes.DMA.Bytes > 0 {
		tr.DMAWriteFrac = osRes.DMA.WriteBytes / osRes.DMA.Bytes
	}

	// 4. Memory bus and DRAM.
	memStats := &s.memSt
	s.memory.StepInto(memStats, sliceSec, tr)
	s.busUtil = memStats.Util
	// Non-self transactions are visible to every processor's PMU. The
	// P4's DMA/other metric "cannot distinguish between DMA and
	// processor coherency traffic": each processor also counts the
	// snoop traffic of its peers, a contaminant that degrades DMA-based
	// models while interrupt counts stay clean (part of why the paper's
	// selection lands on interrupts for disk and I/O).
	for i, p := range s.procs {
		coherence := snoopShare * (demandSum - s.lastCPU[i].DemandBusTx)
		p.ObserveDMA(memStats.DMATx + coherence)
	}

	// 5. Chipset.
	chipStats := s.chip.Step(sliceSec, memStats.Util)

	// 6. Ground truth on the five rails.
	truth := power.Reading{
		power.SubCPU:     cpuTruth,
		power.SubChipset: s.profile.Chipset(chipStats),
		power.SubMemory:  s.profile.MemoryOf(memStats, sliceSec),
		power.SubIO:      s.profile.IO(osRes.DMA, float64(osRes.DeviceInts), sliceSec),
		power.SubDisk:    s.profile.DiskOf(&osRes.Disk, sliceSec, s.cfg.NumDisks),
	}
	s.drift.step(sliceSec, &truth)

	// 7. Acquisition and counter sampling.
	s.dq.Acquire(sliceSec, truth)
	s.sampler.Step(c)

	// 8. Feedback for the next slice's generators.
	s.env = workload.Env{
		BusUtil:     memStats.Util,
		DirtyBytes:  osRes.DirtyBytes,
		FlushActive: osRes.FlushActive,
	}
	for _, fn := range s.onSlice {
		fn(SliceInfo{Seconds: now, Truth: truth, BusUtil: memStats.Util})
	}
}

// Run advances the machine by the given number of simulated seconds.
func (s *Server) Run(seconds float64) {
	// A background context never cancels, so the error is always nil.
	_ = s.RunContext(context.Background(), seconds)
}

// RunContext advances the machine by the given number of simulated
// seconds, stopping early (between slices, with the machine left in a
// consistent state) when ctx is cancelled. A partial run's samples
// remain valid: Dataset still returns everything sampled so far.
//
// If a CrashInjector kills the machine mid-run, RunContext returns the
// injected crash error (everything sampled before the crash remains
// available) and every later run returns it again immediately: a dead
// node stays dead.
func (s *Server) RunContext(ctx context.Context, seconds float64) error {
	if s.crashErr != nil {
		return s.crashErr
	}
	// Round to the nearest nanosecond: truncating would turn 2.05 s
	// into 2.049999999 s and step one slice too few.
	d := time.Duration(math.Round(seconds * float64(time.Second)))
	if s.crash == nil {
		return s.engine.RunForContext(ctx, d)
	}
	// A crash is detected inside a slice step, which cannot abort the
	// engine loop directly; it cancels this run-scoped context instead
	// and the engine stops at the next cancellation check.
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	s.abortSlot = cancel
	err := s.engine.RunForContext(runCtx, d)
	s.abortSlot = nil
	if s.crashErr != nil {
		return s.crashErr
	}
	return err
}

// Dataset merges the DAQ and counter logs into the aligned trace.
func (s *Server) Dataset() (*align.Dataset, error) {
	return align.Merge(s.dq.Records(), s.sampler.Samples())
}

// DatasetRobust merges the logs through the degradation-tolerant path
// (align.MergeRobust): dropped sync pulses, duplicate edges and NaN
// windows are repaired or excised instead of failing the merge, and the
// returned Quality reports every repair. On a healthy machine it returns
// exactly what Dataset returns.
func (s *Server) DatasetRobust() (*align.Dataset, align.Quality, error) {
	return align.MergeRobust(s.dq.Records(), s.sampler.Samples())
}

// Sampler exposes the counter sampler (for live-estimation examples).
func (s *Server) Sampler() *perfctr.Sampler { return s.sampler }

// DAQ exposes the acquisition workstation.
func (s *Server) DAQ() *daq.DAQ { return s.dq }

// Config returns the hardware configuration.
func (s *Server) Config() Config { return s.cfg }

// RunWorkload is a convenience: build a default server for the named
// workload with the given seed, run it for seconds (the spec default if
// seconds <= 0), and return the aligned dataset.
func RunWorkload(name string, seconds float64, seed uint64) (*align.Dataset, error) {
	spec, err := workload.ByName(name)
	if err != nil {
		return nil, err
	}
	cfg := DefaultConfig()
	cfg.Seed = seed
	srv, err := New(cfg, spec)
	if err != nil {
		return nil, err
	}
	if seconds <= 0 {
		seconds = spec.DefaultDuration
	}
	srv.Run(seconds)
	return srv.Dataset()
}
