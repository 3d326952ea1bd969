// Package experiments regenerates every table and figure of the paper's
// evaluation section on the simulated server: the subsystem power
// characterization (Tables 1 and 2), the model validation errors
// (Tables 3 and 4), the measured-vs-modeled traces (Figures 2, 3, 5, 6
// and 7) and the prefetch/non-prefetch bus-transaction sweep (Figure 4).
//
// Each experiment reports our numbers next to the paper's published
// values; the reproduction target is the *shape* — orderings, ranges and
// crossovers — not the absolute Watts of the authors' testbed.
package experiments

import (
	"errors"
	"log/slog"
	"strconv"
	"strings"
	"sync"
	"time"

	"trickledown/internal/align"
	"trickledown/internal/core"
	"trickledown/internal/machine"
	"trickledown/internal/pool"
	"trickledown/internal/power"
	"trickledown/internal/telemetry"
	"trickledown/internal/tracez"
	"trickledown/internal/workload"
)

// Runner telemetry: cache effectiveness for the shared simulation
// traces. A "hit" includes joining an in-flight run (the sync.Once
// dedup); a "miss" is the caller that actually pays for the simulation.
// Table and figure generation are timed as "experiments.*" spans.
var (
	mCacheHits = telemetry.NewCounter("experiments_cache_hits_total",
		"dataset requests served from the runner cache (or joined in flight)")
	mCacheMisses = telemetry.NewCounter("experiments_cache_misses_total",
		"dataset requests that ran a fresh simulation")
	mCellFailures = telemetry.NewCounter("experiments_cell_failures_total",
		"table cells rendered n/a because their run or validation failed")
)

// Options configures an experiment run.
type Options struct {
	// Seed drives the validation runs; TrainSeed the training runs.
	// They differ by default so models are never validated on the trace
	// they were fitted to (except where the paper itself does so).
	Seed      uint64
	TrainSeed uint64
	// Scale multiplies every run duration (1.0 reproduces the paper's
	// trace lengths; tests use small scales). Durations never drop below
	// 30 seconds.
	Scale float64
	// Workers bounds how many simulations the runner executes
	// concurrently across all table and figure generation; non-positive
	// means runtime.GOMAXPROCS. The bound is shared: concurrent table
	// calls fan out through one scheduler instead of stacking goroutines.
	Workers int
}

// DefaultOptions runs at full paper-scale durations.
func DefaultOptions() Options {
	return Options{Seed: 100, TrainSeed: 10, Scale: 1.0}
}

// Runner executes experiments, caching simulated traces so tables and
// figures that need the same run share it. Distinct runs execute in
// parallel on one bounded worker pool (each simulation is independent
// and seeded), the cache is guarded by a mutex, and duplicate requests
// for the same key share one in-flight run. All Runner methods are safe
// for concurrent use.
type Runner struct {
	opt   Options
	p     *pool.Pool
	mu    sync.Mutex
	cache map[string]*entry

	// cellErrs collects per-cell failures tolerated during table
	// generation (rendered as n/a); see CellErrors.
	cellMu   sync.Mutex
	cellErrs []error

	// failDataset, when set, fails dataset requests for matching
	// workloads — the test hook for the degraded-table path.
	failDataset func(name string) error

	// Lazy one-time training; the sync.Onces make concurrent first
	// callers race-free (the fields are written exactly once, before any
	// reader returns).
	estOnce sync.Once
	est     *core.Estimator
	estErr  error
	memOnce sync.Once
	memL3   *core.Model
	memErr  error
}

// entry is one cached (possibly in-flight) simulation run.
type entry struct {
	once sync.Once
	ds   *align.Dataset
	err  error
}

// NewRunner returns a runner with the given options. A zero Scale is
// replaced by 1.0.
func NewRunner(opt Options) *Runner {
	if opt.Scale <= 0 {
		opt.Scale = 1.0
	}
	return &Runner{opt: opt, p: pool.New(opt.Workers), cache: make(map[string]*entry)}
}

// duration scales d with a 30-second floor.
func (r *Runner) duration(d float64) float64 {
	d *= r.opt.Scale
	if d < 30 {
		return 30
	}
	return d
}

// scaledSpec returns the workload spec with its instance stagger scaled
// alongside the durations, so reduced-scale runs still reach the
// all-instances-running regime.
func (r *Runner) scaledSpec(name string) (workload.Spec, error) {
	spec, err := workload.ByName(name)
	if err != nil {
		return workload.Spec{}, err
	}
	spec.StaggerSec *= r.opt.Scale
	return spec, nil
}

// dataset returns the aligned trace for a workload run, cached.
func (r *Runner) dataset(name string, seconds float64, seed uint64) (*align.Dataset, error) {
	spec, err := r.scaledSpec(name)
	if err != nil {
		return nil, err
	}
	return r.datasetSpec(spec, seconds, seed)
}

// datasetKey builds the cache key for one (spec, duration, seed) run.
// The float parameters are formatted at full precision: %.0f-style
// rounding once collided distinct reduced-scale runs (e.g. Scale=0.01
// staggers 0.3 and 0.9 both printed as "0"), silently sharing the wrong
// trace between experiments.
func datasetKey(spec workload.Spec, seconds float64, seed uint64) string {
	return strings.Join([]string{
		spec.Name,
		strconv.FormatFloat(spec.StaggerSec, 'g', -1, 64),
		strconv.FormatFloat(seconds, 'g', -1, 64),
		strconv.FormatUint(seed, 10),
	}, "/")
}

// datasetSpec runs an explicit (possibly modified) spec, cached and
// deduplicated across goroutines.
func (r *Runner) datasetSpec(spec workload.Spec, seconds float64, seed uint64) (*align.Dataset, error) {
	if r.failDataset != nil {
		if err := r.failDataset(spec.Name); err != nil {
			return nil, err
		}
	}
	key := datasetKey(spec, seconds, seed)
	r.mu.Lock()
	e, ok := r.cache[key]
	if !ok {
		e = &entry{}
		r.cache[key] = e
	}
	r.mu.Unlock()
	if ok {
		mCacheHits.Inc()
	} else {
		mCacheMisses.Inc()
	}
	e.once.Do(func() {
		defer telemetry.StartSpan("experiments.simulate").End()
		// Each simulated cell is one trace on the process recorder:
		// a failed workload shows up in /debug/tracez errored with its
		// cache key, not just as a counter increment.
		rec := tracez.Default()
		tr := rec.StartAt(tracez.NewTraceID(), spec.Name, "experiments", time.Now())
		tr.AddNote(tracez.EvNote, int64(seconds), key)
		defer func() {
			if e.err != nil {
				tr.Outcome = "error"
				tr.AddNote(tracez.EvQuarantine, 0, e.err.Error())
			}
			rec.Finish(tr)
		}()
		cfg := machine.DefaultConfig()
		cfg.Seed = seed
		srv, err := machine.New(cfg, spec)
		if err != nil {
			e.err = err
			return
		}
		srv.Run(seconds)
		e.ds, e.err = srv.Dataset()
	})
	return e.ds, e.err
}

// recordCellErr logs and stores one tolerated cell failure.
func (r *Runner) recordCellErr(err error) {
	mCellFailures.Inc()
	slog.Warn("experiments: cell failed, rendering n/a", "err", err)
	r.cellMu.Lock()
	r.cellErrs = append(r.cellErrs, err)
	r.cellMu.Unlock()
}

// CellErrors returns every failure the table generators tolerated so
// far, joined, or nil when all cells computed. Callers that print
// tables should surface this afterwards: an n/a cell has its cause
// here.
func (r *Runner) CellErrors() error {
	r.cellMu.Lock()
	defer r.cellMu.Unlock()
	return errors.Join(r.cellErrs...)
}

// mcfLong is the long mcf sweep behind Figures 4 and 5: instances join
// at 120-second intervals so utilization climbs in visible steps across
// most of the ~29-minute trace.
func (r *Runner) mcfLong() (*align.Dataset, error) {
	spec, err := r.scaledSpec("mcf")
	if err != nil {
		return nil, err
	}
	spec.StaggerSec = 120 * r.opt.Scale
	return r.datasetSpec(spec, r.duration(1740), r.opt.Seed)
}

// validation returns the validation trace for a workload at its default
// duration.
func (r *Runner) validation(name string) (*align.Dataset, error) {
	spec, err := workload.ByName(name)
	if err != nil {
		return nil, err
	}
	return r.dataset(name, r.duration(spec.DefaultDuration), r.opt.Seed)
}

// ValidationDataset exposes the runner's cached per-workload validation
// trace (default duration, validation seed) to the conformance
// subsystem: internal/validate drives its cross-validation folds
// through this method so CV and the tables share one simulation cache
// instead of re-running every workload. Safe for concurrent use.
func (r *Runner) ValidationDataset(name string) (*align.Dataset, error) {
	return r.validation(name)
}

// Estimator trains (once) and returns the paper's five production
// models: Eq. 1 on gcc, Eq. 3 on mcf, Eq. 4 and Eq. 5 on DiskLoad, and
// the chipset constant on gcc. Safe for concurrent use: the first
// caller trains, everyone else waits for and shares the result.
func (r *Runner) Estimator() (*core.Estimator, error) {
	r.estOnce.Do(func() {
		r.est, r.estErr = r.trainEstimator()
	})
	return r.est, r.estErr
}

func (r *Runner) trainEstimator() (*core.Estimator, error) {
	defer telemetry.StartSpan("experiments.train").End()
	gcc, err := r.dataset("gcc", r.duration(390), r.opt.TrainSeed)
	if err != nil {
		return nil, err
	}
	mcf, err := r.dataset("mcf", r.duration(600), r.opt.TrainSeed)
	if err != nil {
		return nil, err
	}
	dl, err := r.dataset("diskload", r.duration(300), r.opt.TrainSeed)
	if err != nil {
		return nil, err
	}
	est, err := fitTrio(gcc, mcf, dl)
	if err != nil {
		return nil, err
	}
	est.Provenance().TrainedAt = time.Now().UTC().Format(time.RFC3339)
	return est, nil
}

// TrainTrio trains the five production models on fixed-seed runs of
// the paper's training trio: gcc (seed 1) for the CPU and chipset, mcf
// (seed 2) for memory, and diskload (seed 3) for disk and I/O, each run
// for the given simulated seconds. The result carries fit provenance
// without a timestamp, so programs that print from it stay
// deterministic.
func TrainTrio(gccSec, mcfSec, diskSec float64) (*core.Estimator, error) {
	gcc, err := machine.RunWorkload("gcc", gccSec, 1)
	if err != nil {
		return nil, err
	}
	mcf, err := machine.RunWorkload("mcf", mcfSec, 2)
	if err != nil {
		return nil, err
	}
	dl, err := machine.RunWorkload("diskload", diskSec, 3)
	if err != nil {
		return nil, err
	}
	return fitTrio(gcc, mcf, dl)
}

// fitTrio fits Eq. 1 and the chipset constant on gcc, Eq. 3 on mcf and
// Eq. 4 and Eq. 5 on diskload, and stamps fit provenance: fingerprint
// and rate envelopes over the full training corpus, so a serving
// process can report which data the live coefficients descend from and
// the adapt layer can detect workload-mix drift without ground-truth
// rails.
func fitTrio(gcc, mcf, dl *align.Dataset) (*core.Estimator, error) {
	est, err := core.TrainEstimator(core.TrainingSet{
		CPU: gcc, Memory: mcf, Disk: dl, IO: dl, Chipset: gcc,
	})
	if err != nil {
		return nil, err
	}
	all := align.Concat(gcc, mcf, dl)
	fp := align.Fingerprint(all)
	est.SetProvenance(&core.Provenance{
		SchemaVersion: core.ProvenanceSchemaVersion,
		Version:       "train-" + fp,
		Fingerprint:   fp,
		Envelopes:     core.ComputeEnvelopes(all),
		Reason:        "offline-train",
	})
	return est, nil
}

// MemL3Model trains (once) the Equation 2 cache-miss memory model on
// mesa, the paper's choice ("the first workload we considered was the
// integer workload mesa"). Safe for concurrent use.
func (r *Runner) MemL3Model() (*core.Model, error) {
	r.memOnce.Do(func() {
		r.memL3, r.memErr = r.trainMemL3()
	})
	return r.memL3, r.memErr
}

func (r *Runner) trainMemL3() (*core.Model, error) {
	defer telemetry.StartSpan("experiments.train_mem_l3").End()
	mesa, err := r.dataset("mesa", r.duration(600), r.opt.TrainSeed)
	if err != nil {
		return nil, err
	}
	return core.Train(core.MemL3Spec(), mesa)
}

// Equations renders every fitted production model plus the Eq. 2
// alternative, for comparison against the paper's published forms.
func (r *Runner) Equations() ([]string, error) {
	est, err := r.Estimator()
	if err != nil {
		return nil, err
	}
	l3, err := r.MemL3Model()
	if err != nil {
		return nil, err
	}
	out := []string{
		est.Model(power.SubCPU).String(),
		est.Model(power.SubChipset).String(),
		est.Model(power.SubMemory).String(),
		l3.String(),
		est.Model(power.SubIO).String(),
		est.Model(power.SubDisk).String(),
	}
	return out, nil
}
