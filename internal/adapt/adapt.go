package adapt

import (
	"fmt"
	"math"
	"sync"

	"trickledown/internal/align"
	"trickledown/internal/core"
	"trickledown/internal/perfctr"
	"trickledown/internal/power"
	"trickledown/internal/stats"
	"trickledown/internal/telemetry"
	"trickledown/internal/tracez"
	"trickledown/internal/validate"
)

// Cross-layer telemetry (satellite: swap observability). The swap
// histogram carries exemplar trace IDs so a swap seen on a dashboard
// links straight to its flight-recorder note.
var (
	mAlarms      = telemetry.NewCounterVec("adapt_drift_alarms_total", "Drift alarms by detector (residual, envelope).", "detector")
	mRetrains    = telemetry.NewCounterVec("adapt_retrains_total", "Challenger refits by outcome (started, succeeded, rejected).", "outcome")
	mSwaps       = telemetry.NewCounter("adapt_swaps_total", "Champion hot-swaps performed.")
	mRollbacks   = telemetry.NewCounter("adapt_rollbacks_total", "Rollbacks to a prior champion.")
	mQuarantined = telemetry.NewCounter("adapt_residuals_quarantined_total", "Non-finite residuals dropped before the detector.")
	mModelAge    = telemetry.NewGauge("adapt_active_model_age_observations", "Observations served by the active champion.")
	mSwapErr     = telemetry.NewHistogram("adapt_swap_window_err_pct", "Challenger window error at swap time, percent.",
		[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 12, 20})
)

// The detectors' and gate's fixed settings.
const (
	// baselineErrPct is the residual detector's slack: per-sample error
	// this far above zero is in-envelope. It is the GOLDEN corpus's
	// held-out mean error, rounded up.
	baselineErrPct = 5
	// alarmBudgetPct is the Page-Hinkley lambda: the cumulative excess
	// error (percent·samples) that raises the drift alarm.
	alarmBudgetPct = 60
	// envelopeSlackZ is the residual-free CUSUM's per-sample z slack.
	envelopeSlackZ = 3
)

// Config tunes a Manager. Champion is required; everything else has a
// serving-grade default. A refit is attempted once the window is half
// full, and a challenger must hold its window error under
// validate.PaperBoundPct.
type Config struct {
	// Champion is the initial serving estimator.
	Champion *core.Estimator
	// Window is the sliding-window size in observations for refits and
	// shadow evaluation. Default 180 (three minutes at 1 Hz).
	Window int
	// EnvelopeBudgetZ is the residual-free CUSUM's alarm threshold.
	// Default 240.
	EnvelopeBudgetZ float64
	// RollbackDepth bounds the ring of previous champions. Default 4.
	RollbackDepth int
	// GuardWindow is how many post-swap observations a residual alarm
	// triggers instant rollback instead of a fresh retrain. Default
	// Window/2.
	GuardWindow int
	// Cooldown is the minimum observations between promotion attempts,
	// successful or not. Default Window/4.
	Cooldown int
	// PhaseThresholdW is the phase detector's band (Watts); retraining
	// is gated off near phase boundaries. Default 12.
	PhaseThresholdW float64
	// PhaseSettle is how many samples the current phase must have
	// persisted before a promotion may proceed. Default 8.
	PhaseSettle int
	// Seed makes minted swap trace IDs (and thus flight-recorder and
	// exemplar references) deterministic for drills. Default 1.
	Seed uint64
	// ChallengerHook, when set, may replace a fitted challenger before
	// the shadow gate sees it. CI's negative control injects a
	// deliberately bad challenger here and asserts the gate rejects it.
	ChallengerHook func(*core.Estimator) *core.Estimator
}

func (c Config) withDefaults() Config {
	if c.Window <= 0 {
		c.Window = 180
	}
	if c.EnvelopeBudgetZ <= 0 {
		c.EnvelopeBudgetZ = 240
	}
	if c.RollbackDepth <= 0 {
		c.RollbackDepth = 4
	}
	if c.GuardWindow <= 0 {
		c.GuardWindow = c.Window / 2
	}
	if c.Cooldown <= 0 {
		c.Cooldown = c.Window / 4
	}
	if c.PhaseThresholdW <= 0 {
		c.PhaseThresholdW = 12
	}
	if c.PhaseSettle <= 0 {
		c.PhaseSettle = 8
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// Event describes one champion change.
type Event struct {
	// Kind is "swap" or "rollback".
	Kind string
	// From and To are the provenance versions of the outgoing and
	// incoming champions ("unversioned" when absent).
	From, To string
	// Estimator is the new champion.
	Estimator *core.Estimator
	// Trace is the deterministic trace ID minted for this event.
	Trace tracez.TraceID
	// WindowErrPct is the incoming model's window error at decision
	// time (the challenger's on swap, the restored champion's unknown
	// on rollback: zero).
	WindowErrPct float64
	// Detail is a one-line human reason.
	Detail string
}

// Manager runs the detect → refit → gate → swap → rollback loop. It is
// fed chunks of observations (counter samples plus their measured
// rails), estimates each sample once with the champion that serves it,
// and owns the champion lifecycle; consumers read the active estimator
// through Champion or a Subscribe listener.
//
// All methods are safe for concurrent use, but determinism is only
// guaranteed when one goroutine feeds Observe — the drills do exactly
// that. How a stream is cut into chunks does not change any decision,
// reading or status.
type Manager struct {
	cfg Config

	mu          sync.Mutex
	champion    *core.Estimator
	window      []align.Row  // ring, oldest at wHead; rows own their slices
	rates       []core.Rates // Observe's per-chunk scratch
	wHead, wLen int
	resid       *PageHinkley
	env         *EnvelopeCUSUM
	phases      phaseGate
	ring        []*core.Estimator // rollback ring, most recent last

	obs            uint64 // total observations
	modelAge       uint64 // observations since last champion change
	sinceAttempt   uint64 // observations since last promotion attempt
	pending        bool   // drift alarm raised, retrain wanted
	guardRemaining int    // post-swap guard observations left
	refitSeq       int    // refit version counter
	idState        uint64 // SplitMix64 state for deterministic trace IDs

	subs []func(Event) // Subscribe listeners, in registration order

	alarms, retrains, rejected, swaps, rollbacks, quarantined uint64
	lastErrPct                                                float64
	lastAlarm                                                 string
}

// New builds a manager around an initial champion.
func New(cfg Config) (*Manager, error) {
	if cfg.Champion == nil {
		return nil, fmt.Errorf("adapt: config needs a champion estimator")
	}
	cfg = cfg.withDefaults()
	m := &Manager{
		cfg:      cfg,
		champion: cfg.Champion,
		window:   make([]align.Row, cfg.Window),
		idState:  cfg.Seed,
		phases:   phaseGate{threshold: cfg.PhaseThresholdW},
	}
	for _, spec := range core.ProductionSpecs() {
		if cfg.Window < len(spec.Terms) {
			return nil, fmt.Errorf("adapt: window %d below the %d design columns of %s",
				cfg.Window, len(spec.Terms), spec.Name)
		}
	}
	var err error
	if m.resid, err = NewPageHinkley(baselineErrPct, alarmBudgetPct); err != nil {
		return nil, err
	}
	envs := championEnvelopes(cfg.Champion)
	if m.env, err = NewEnvelopeCUSUM(envs, envelopeSlackZ, cfg.EnvelopeBudgetZ); err != nil {
		return nil, err
	}
	return m, nil
}

func championEnvelopes(e *core.Estimator) []core.MetricEnvelope {
	if p := e.Provenance(); p != nil {
		return p.Envelopes
	}
	return nil
}

// mintTraceID derives the next deterministic trace ID from the seeded
// SplitMix64 stream — drills replay with identical IDs.
func (m *Manager) mintTraceID() tracez.TraceID {
	var id tracez.TraceID
	for i := 0; i < 16; i += 8 {
		z := stats.SplitMix64(&m.idState)
		for b := 0; b < 8; b++ {
			id[i+b] = byte(z >> (8 * b))
		}
	}
	return id
}

// Subscribe registers fn to observe every swap and rollback, after the
// listeners registered before it. Callbacks run synchronously inside
// the champion change with the manager's lock held: they must not call
// back into the Manager. The serve layer subscribes its atomic
// estimator swap and diagnostics-bundle trigger here.
func (m *Manager) Subscribe(fn func(Event)) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.subs = append(m.subs, fn)
}

// Champion returns the active estimator.
func (m *Manager) Champion() *core.Estimator {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.champion
}

// Observe feeds a chunk of counter samples with their measured rails
// (ground truth or a calibrated proxy), one Reading per sample, and
// writes the reading the champion serves for ss[i] to out[i], which
// must be at least len(ss) long. The champion estimates the chunk once;
// each sample's residual then drives drift detection, window
// accumulation, and — when the gate conditions line up — a promotion
// attempt or rollback, synchronously. A champion change at sample i
// keeps sample i's residual from the old champion and has the new one
// serve samples i onward. The window keeps a deep copy of each sample,
// so the caller may reuse their storage once Observe returns.
func (m *Manager) Observe(out []power.Reading, ss []perfctr.Sample, rails []power.Reading) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if cap(m.rates) < len(ss) {
		m.rates = make([]core.Rates, len(ss))
	}
	rs := m.rates[:len(ss)]
	m.champion.EstimateRates(out, rs, ss)
	for i := range ss {
		champ := m.champion
		m.observeLocked(&ss[i], rails[i], &out[i], &rs[i])
		if m.champion != champ {
			m.champion.EstimateRates(out[i:], rs[i:], ss[i:])
		}
	}
	mModelAge.Set(float64(m.modelAge))
}

// observeLocked is Observe's step for one sample, given the champion's
// reading of it and its rates. Called with mu held.
func (m *Manager) observeLocked(s *perfctr.Sample, measured power.Reading, reading *power.Reading, env *core.Rates) {
	m.obs++
	m.modelAge++
	m.sinceAttempt++

	// Residual drift: per-sample Eq.6 error of the champion's total, as
	// the worker serves it. The envelopes read the rates of the same
	// pass.
	modeled := reading.Total()
	truth := measured.Total()
	errPct := math.Abs(modeled-truth) / math.Abs(truth) * 100
	if math.IsNaN(errPct) || math.IsInf(errPct, 0) {
		m.quarantined++
		mQuarantined.Inc()
		return
	}
	m.lastErrPct = errPct

	residAlarm := m.resid.Observe(errPct)
	envAlarm, envMetric := m.env.Observe(env[:])

	// Phase tracking: never retrain mid-transition.
	m.phases.observe(truth)

	// Slide the window that challengers are refit from.
	slot := (m.wHead + m.wLen) % len(m.window)
	if m.wLen == len(m.window) {
		slot = m.wHead
		m.wHead = (m.wHead + 1) % len(m.window)
	} else {
		m.wLen++
	}
	m.window[slot].Power = measured
	copySample(&m.window[slot].Counters, s)

	if residAlarm || envAlarm {
		if m.guardRemaining > 0 {
			m.rollbackLocked()
			return
		}
		if !m.pending {
			m.alarms++
			if residAlarm {
				m.lastAlarm = "residual"
				mAlarms.With("residual").Inc()
			} else {
				m.lastAlarm = "envelope:" + envMetric
				mAlarms.With("envelope").Inc()
			}
			m.pending = true
			// The window straddles the change point: everything before
			// the alarm reflects the regime the champion was right
			// about. Discard it so the challenger is fit purely on
			// post-drift data — a blended fit would pass the gate on
			// the mixed window and then err on the new regime alone.
			m.wHead, m.wLen = 0, 0
		}
	}
	if m.guardRemaining > 0 {
		m.guardRemaining--
	}

	if m.pending &&
		m.wLen >= len(m.window)/2 &&
		m.sinceAttempt >= uint64(m.cfg.Cooldown) &&
		m.phases.settled(m.cfg.PhaseSettle) {
		m.attemptPromoteLocked()
	}
}

// copySample deep-copies src into dst, reusing dst's slices where they
// are large enough: a window slot recycles the storage of the sample it
// evicts.
func copySample(dst, src *perfctr.Sample) {
	dst.TargetSeconds = src.TargetSeconds
	dst.IntervalSec = src.IntervalSec
	dst.CPUs = copyInto(dst.CPUs, src.CPUs)
	dst.OSBusySec = copyInto(dst.OSBusySec, src.OSBusySec)
	dst.OSThreadBusySec = copyInto(dst.OSThreadBusySec, src.OSThreadBusySec)
	ints := dst.Ints
	if src.Ints == nil {
		dst.Ints = nil
		return
	}
	if cap(ints) < len(src.Ints) {
		ints = make([][]uint64, len(src.Ints))
	}
	dst.Ints = ints[:len(src.Ints)]
	for v, row := range src.Ints {
		dst.Ints[v] = copyInto(dst.Ints[v], row)
	}
}

// copyInto returns a copy of src in dst's backing array when it is large
// enough; a nil src copies as nil.
func copyInto[T any](dst, src []T) []T {
	if src == nil {
		return nil
	}
	return append(dst[:0], src...)
}

// windowDataset copies the ring into a dataset, oldest first.
func (m *Manager) windowDataset() *align.Dataset {
	rows := make([]align.Row, m.wLen)
	for i := 0; i < m.wLen; i++ {
		rows[i] = m.window[(m.wHead+i)%len(m.window)]
	}
	return &align.Dataset{Rows: rows}
}

// attemptPromoteLocked refits a challenger from the live window and
// promotes it through the shadow gate. Called with mu held.
func (m *Manager) attemptPromoteLocked() {
	m.sinceAttempt = 0
	m.retrains++
	mRetrains.With("started").Inc()

	win := m.windowDataset()
	models := make([]*core.Model, 0, power.NumSubsystems)
	for sub, spec := range core.ProductionSpecs() {
		mod, err := core.Train(spec, win)
		if err != nil {
			m.rejected++
			mRetrains.With("rejected").Inc()
			m.lastAlarm = fmt.Sprintf("refit %s: %v", power.Subsystem(sub), err)
			return
		}
		models = append(models, mod)
	}
	challenger, err := core.NewEstimator(models...)
	if err != nil {
		m.rejected++
		mRetrains.With("rejected").Inc()
		return
	}
	m.refitSeq++
	fp := align.Fingerprint(win)
	parent := versionOf(m.champion)
	challenger.SetProvenance(&core.Provenance{
		SchemaVersion: core.ProvenanceSchemaVersion,
		Version:       fmt.Sprintf("refit-%d-%s", m.refitSeq, fp),
		Fingerprint:   fp,
		Envelopes:     core.ComputeEnvelopes(win),
		Parent:        parent,
		Reason:        "drift-refit",
	})
	if m.cfg.ChallengerHook != nil {
		challenger = m.cfg.ChallengerHook(challenger)
	}

	// Shadow gate: metamorphic battery on the live window, then the
	// better-than-champion residual criterion under the paper bound.
	if ok, why := validate.ShadowOK(validate.ShadowChecks(challenger, win)); !ok {
		m.rejected++
		mRetrains.With("rejected").Inc()
		m.lastAlarm = "gate: " + why
		return
	}
	chalErr, err := validate.WindowError(challenger, win)
	if err != nil {
		m.rejected++
		mRetrains.With("rejected").Inc()
		return
	}
	champErr, err := validate.WindowError(m.champion, win)
	if err != nil {
		m.rejected++
		mRetrains.With("rejected").Inc()
		return
	}
	if chalErr > validate.PaperBoundPct || chalErr >= champErr {
		m.rejected++
		mRetrains.With("rejected").Inc()
		m.lastAlarm = fmt.Sprintf("gate: challenger %.2f%% vs champion %.2f%% (bound %.1f%%)",
			chalErr, champErr, validate.PaperBoundPct)
		return
	}

	// Promote: push the old champion onto the bounded rollback ring.
	mRetrains.With("succeeded").Inc()
	m.ring = append(m.ring, m.champion)
	if len(m.ring) > m.cfg.RollbackDepth {
		m.ring = m.ring[len(m.ring)-m.cfg.RollbackDepth:]
	}
	old := m.champion
	m.champion = challenger
	m.swaps++
	mSwaps.Inc()
	m.pending = false
	m.modelAge = 0
	m.guardRemaining = m.cfg.GuardWindow
	m.resid.Reset()
	m.env.Retarget(championEnvelopes(challenger))
	id := m.mintTraceID()
	mSwapErr.ObserveExemplar(chalErr, id.String())
	m.emit(Event{
		Kind: "swap", From: versionOf(old), To: versionOf(challenger),
		Estimator: challenger, Trace: id, WindowErrPct: chalErr,
		Detail: fmt.Sprintf("challenger %.2f%% beats champion %.2f%%", chalErr, champErr),
	})
}

// rollbackLocked reverts to the most recent prior champion after a
// post-swap alarm. Called with mu held.
func (m *Manager) rollbackLocked() {
	if len(m.ring) == 0 {
		// Nothing to revert to: treat like a fresh drift alarm.
		m.guardRemaining = 0
		m.pending = true
		return
	}
	failed := m.champion
	m.champion = m.ring[len(m.ring)-1]
	m.ring = m.ring[:len(m.ring)-1]
	m.rollbacks++
	mRollbacks.Inc()
	m.pending = false
	m.modelAge = 0
	m.guardRemaining = 0
	m.sinceAttempt = 0
	m.resid.Reset()
	m.env.Retarget(championEnvelopes(m.champion))
	// The window that promoted the failed challenger is tainted; a
	// fresh challenger must be fit from fresh data.
	m.wHead, m.wLen = 0, 0
	id := m.mintTraceID()
	m.emit(Event{
		Kind: "rollback", From: versionOf(failed), To: versionOf(m.champion),
		Estimator: m.champion, Trace: id,
		Detail: "post-swap drift alarm inside guard window",
	})
}

func (m *Manager) emit(ev Event) {
	tracez.Flight().NoteTrace("adapt."+ev.Kind, ev.From+" -> "+ev.To, int64(m.obs), ev.Trace)
	for _, fn := range m.subs {
		fn(ev)
	}
}

func versionOf(e *core.Estimator) string {
	if p := e.Provenance(); p != nil && p.Version != "" {
		return p.Version
	}
	return "unversioned"
}

// Status is the /driftz snapshot.
type Status struct {
	ActiveVersion  string  `json:"active_version"`
	Observations   uint64  `json:"observations"`
	ModelAge       uint64  `json:"model_age_observations"`
	WindowFill     int     `json:"window_fill"`
	WindowCap      int     `json:"window_cap"`
	PendingRetrain bool    `json:"pending_retrain"`
	GuardRemaining int     `json:"guard_remaining"`
	RollbackDepth  int     `json:"rollback_available"`
	Alarms         uint64  `json:"drift_alarms"`
	Retrains       uint64  `json:"retrains_started"`
	Rejected       uint64  `json:"retrains_rejected"`
	Swaps          uint64  `json:"swaps"`
	Rollbacks      uint64  `json:"rollbacks"`
	Quarantined    uint64  `json:"residuals_quarantined"`
	LastErrPct     float64 `json:"last_err_pct"`
	LastAlarm      string  `json:"last_alarm,omitempty"`
}

// Status returns a consistent snapshot of the adaptation state.
func (m *Manager) Status() Status {
	m.mu.Lock()
	defer m.mu.Unlock()
	return Status{
		ActiveVersion:  versionOf(m.champion),
		Observations:   m.obs,
		ModelAge:       m.modelAge,
		WindowFill:     m.wLen,
		WindowCap:      len(m.window),
		PendingRetrain: m.pending,
		GuardRemaining: m.guardRemaining,
		RollbackDepth:  len(m.ring),
		Alarms:         m.alarms,
		Retrains:       m.retrains,
		Rejected:       m.rejected,
		Swaps:          m.swaps,
		Rollbacks:      m.rollbacks,
		Quarantined:    m.quarantined + m.resid.Quarantined() + m.env.Quarantined(),
		LastErrPct:     m.lastErrPct,
		LastAlarm:      m.lastAlarm,
	}
}
