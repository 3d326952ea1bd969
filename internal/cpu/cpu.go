// Package cpu models the Pentium IV Xeon processors of the paper's
// target server: four physical processors with two hardware threads
// each, a shared fetch engine, an L1/L2/L3 cache hierarchy, TLBs, a
// hardware prefetcher, and HLT clock gating ("when the Pentium IV
// processor is idle, it saves power by gating the clock signal to
// portions of itself", dropping idle power from ~36 W to ~9 W).
//
// The model is behavioral, not cycle-accurate: each simulation slice it
// converts the demands of its two hardware threads into the
// architectural event counts the paper's models consume, and feeds them
// into the processor's PMU.
package cpu

import (
	"math"

	"trickledown/internal/pmu"
	"trickledown/internal/sim"
	"trickledown/internal/workload"
)

// SMTPenalty is the per-thread fetch-throughput reduction when the
// sibling hardware thread is active: the P4's trace cache and fetch
// bandwidth are shared between SMT threads.
const SMTPenalty = 0.28

// MaxUopsPerCycle is the P4 fetch width ("the Pentium IV can fetch three
// instructions/cycle").
const MaxUopsPerCycle = 3.0

// prefetchWaste is the fraction of useless (not demanded) lines the
// hardware prefetcher fetches on top of covered demand misses.
const prefetchWaste = 0.15

// SliceStats summarizes one processor's activity over one slice. Counter
// values are also pushed into the PMU; the float aggregates here feed the
// mechanistic ground-truth power model.
type SliceStats struct {
	// Cycles is total core cycles in the slice; HaltedCycles the subset
	// spent clock gated.
	Cycles       float64
	HaltedCycles float64
	// FetchedUops is micro-operations fetched (demand path, the counter
	// the paper's Eq. 1 uses).
	FetchedUops float64
	// SpecUops is speculative/replay issue activity that consumes power
	// but is not part of the fetched-uop count — the paper's explanation
	// for mcf's Eq. 1 underestimate.
	SpecUops float64
	// L2Accesses is L2 cache activity (a dynamic-power term).
	L2Accesses float64
	// L3LoadMisses is demand load misses (Eq. 2's input).
	L3LoadMisses float64
	// L3Misses adds store/evict-triggered misses.
	L3Misses float64
	// Writebacks is dirty-line writeback bus transactions.
	Writebacks float64
	// TLBMisses is combined ITLB+DTLB misses.
	TLBMisses float64
	// UCAccesses is uncacheable (memory-mapped I/O) accesses.
	UCAccesses float64
	// DemandBusTx is this processor's demand bus transactions (misses +
	// writebacks + uncacheable).
	DemandBusTx float64
	// PrefetchBusTx is bus transactions initiated by the prefetcher.
	PrefetchBusTx float64
	// WriteFrac is the write fraction of this processor's memory
	// traffic this slice.
	WriteFrac float64
	// MemLocality is the transaction-weighted DRAM row-buffer locality
	// of this processor's traffic.
	MemLocality float64
	// ActiveFrac is 1 - HaltedCycles/Cycles.
	ActiveFrac float64
	// FreqScale is the DVFS operating point the slice ran at.
	FreqScale float64
}

// TotalBusTx returns all bus transactions the processor initiated.
func (s SliceStats) TotalBusTx() float64 { return s.DemandBusTx + s.PrefetchBusTx }

// Processor is one physical CPU with two hardware threads.
type Processor struct {
	id        int
	pm        *pmu.PMU
	rng       *sim.RNG
	throttle  float64
	freqScale float64
}

// New returns processor id with a fresh PMU and a private random stream
// split from parent.
func New(id int, parent *sim.RNG) *Processor {
	return &Processor{id: id, pm: pmu.New(), rng: parent.Split(), freqScale: 1}
}

// MinFreqScale is the lowest DVFS operating point, matching the roughly
// 2:1 frequency range of the era's server parts.
const MinFreqScale = 0.5

// SetFreqScale sets the processor's DVFS operating point as a fraction
// of nominal frequency, clamped to [MinFreqScale, 1]. Scaling shows up
// architecturally as fewer cycles per wall-clock interval — which the
// per-cycle-normalized models observe through the cycles counter — and
// physically as reduced dynamic power via frequency and voltage
// (internal/power's VoltageScale).
func (p *Processor) SetFreqScale(scale float64) {
	if scale < MinFreqScale {
		scale = MinFreqScale
	}
	if scale > 1 {
		scale = 1
	}
	p.freqScale = scale
}

// ID returns the processor number.
func (p *Processor) ID() int { return p.id }

// PMU returns the processor's counter file.
func (p *Processor) PMU() *pmu.PMU { return p.pm }

// MaxThrottle bounds SetThrottle: the OS always keeps some duty cycle so
// the machine stays responsive.
const MaxThrottle = 0.9

// SetThrottle sets Kotla-style instruction throttling: the OS idles the
// processor for the given fraction of each slice regardless of demand
// (duty-cycle modulation). Because throttling manifests as halted
// cycles, it is visible to the Equation 1 model through the same
// counter it already uses — which is what makes counter-driven power
// capping a closed loop. Values are clamped to [0, MaxThrottle].
func (p *Processor) SetThrottle(frac float64) {
	if frac < 0 {
		frac = 0
	}
	if frac > MaxThrottle {
		frac = MaxThrottle
	}
	p.throttle = frac
}

// PrefetchCoverage returns the fraction of would-be demand misses the
// hardware prefetcher converts into prefetch transactions, given the
// stream-likeness of the access pattern and the current bus utilization.
// Streaming detection improves as the memory system is driven harder,
// which is what makes mcf's L3 demand misses *decline* while total
// traffic grows (the paper's Figure 4 effect).
func PrefetchCoverage(prefetchability, busUtil float64) float64 {
	cov := prefetchability * (0.25 + 0.9*busUtil)
	if cov > 0.85 {
		cov = 0.85
	}
	if cov < 0 {
		cov = 0
	}
	return cov
}

// Step advances the processor one slice and returns its SliceStats by
// value. It is StepInto on a fresh struct; the machine's hot path calls
// StepInto with a long-lived slot instead, so no stats struct is copied
// per slice.
func (p *Processor) Step(cycles float64, d0, d1 *workload.Demand, busUtil float64) SliceStats {
	var st SliceStats
	p.StepInto(&st, cycles, d0, d1, busUtil)
	return st
}

// StepInto advances the processor one slice and writes its summary into
// *st, overwriting every field. cycles is the slice's core cycle count;
// d0 and d1 are the demands of its two hardware threads (read, never
// written — callers may pass long-lived buffers); busUtil is the
// previous slice's front-side-bus utilization (the prefetcher's feedback
// input). Event counts are accumulated into the PMU. Demands and stats
// are passed by pointer because StepInto runs once per processor per
// slice and the struct copies dominated the whole simulator's CPU
// profile.
func (p *Processor) StepInto(st *SliceStats, cycles float64, d0, d1 *workload.Demand, busUtil float64) {
	*st = SliceStats{}
	// DVFS: the slice contains fewer core cycles at a reduced clock.
	cycles *= p.freqScale
	st.Cycles = cycles
	st.FreqScale = p.freqScale
	// Instruction throttling idles the processor for part of the slice
	// regardless of demand. The scaled activity lives in locals so the
	// caller's demand structs stay untouched.
	a0, a1 := d0.Active, d1.Active
	if p.throttle > 0 {
		duty := 1 - p.throttle
		a0 *= duty
		a1 *= duty
	}
	// The processor is halted only when both threads are idle; thread
	// activity overlaps randomly, so the unhalted fraction composes as
	// independent events.
	act := 1 - (1-a0)*(1-a1)
	st.ActiveFrac = act
	st.HaltedCycles = cycles * (1 - act)

	var totalMemTx, writeTx, locTx float64
	for k := 0; k < 2; k++ {
		d, dAct, sibAct := d0, a0, a1
		if k == 1 {
			d, dAct, sibAct = d1, a1, a0
		}
		if dAct == 0 {
			continue
		}
		// SMT fetch sharing: the sibling steals bandwidth while it runs.
		share := 1 - SMTPenalty*sibAct
		uops := cycles * dAct * d.UopsPerCycle * share
		st.FetchedUops += uops
		st.SpecUops += cycles * dAct * d.SpecActivity * share
		st.L2Accesses += uops * d.L2PerUop

		misses := uops * d.L3MissPerKuop / 1000
		cov := PrefetchCoverage(d.Prefetchability, busUtil)
		demandMisses := misses * (1 - cov)
		prefetch := misses * cov * (1 + prefetchWaste)
		writebacks := misses * d.DirtyEvictFrac

		st.L3LoadMisses += demandMisses * (1 - 0.3*d.WriteFrac)
		st.L3Misses += demandMisses
		st.Writebacks += writebacks
		st.PrefetchBusTx += prefetch
		st.TLBMisses += uops * d.TLBMissPerMuop / 1e6
		st.UCAccesses += cycles * dAct * d.UCPerMcycle / 1e6

		tx := demandMisses + writebacks + prefetch
		totalMemTx += tx
		writeTx += tx * d.WriteFrac
		locTx += tx * d.MemLocality
	}
	// Cap aggregate fetch at the machine width.
	if max := cycles * MaxUopsPerCycle; st.FetchedUops > max {
		st.FetchedUops = max
	}
	st.DemandBusTx = st.L3LoadMisses + st.Writebacks + st.UCAccesses
	if totalMemTx > 0 {
		st.WriteFrac = writeTx / totalMemTx
		st.MemLocality = locTx / totalMemTx
	}
	p.jitterCounts(st)
	p.observe(st)
}

// jitterCounts applies Poisson-style sampling noise to the discrete
// event counts, so 1 ms slices show realistic shot noise without
// simulating individual events.
func (p *Processor) jitterCounts(st *SliceStats) {
	st.L3LoadMisses = p.noisy(st.L3LoadMisses)
	st.L3Misses = p.noisy(st.L3Misses)
	st.Writebacks = p.noisy(st.Writebacks)
	st.PrefetchBusTx = p.noisy(st.PrefetchBusTx)
	st.TLBMisses = p.noisy(st.TLBMisses)
	st.UCAccesses = p.noisy(st.UCAccesses)
	st.DemandBusTx = st.L3LoadMisses + st.Writebacks + st.UCAccesses
}

// noisy perturbs an expected count with approximately Poisson noise.
func (p *Processor) noisy(mean float64) float64 {
	if mean <= 0 {
		return 0
	}
	if mean < 50 {
		return float64(p.rng.Poisson(mean))
	}
	v := p.rng.Norm(mean, math.Sqrt(mean))
	if v < 0 {
		return 0
	}
	return v
}

// observe pushes the slice's counts into the PMU.
func (p *Processor) observe(st *SliceStats) {
	p.pm.Observe(pmu.EventCycles, uint64(st.Cycles))
	p.pm.Observe(pmu.EventHaltedCycles, uint64(st.HaltedCycles))
	p.pm.Observe(pmu.EventFetchedUops, uint64(st.FetchedUops))
	p.pm.Observe(pmu.EventL3LoadMisses, uint64(st.L3LoadMisses))
	p.pm.Observe(pmu.EventL3Misses, uint64(st.L3Misses+st.Writebacks))
	p.pm.Observe(pmu.EventTLBMisses, uint64(st.TLBMisses))
	p.pm.Observe(pmu.EventUncacheableAccesses, uint64(st.UCAccesses))
	p.pm.Observe(pmu.EventBusTransactions, uint64(st.DemandBusTx+st.PrefetchBusTx))
	p.pm.Observe(pmu.EventBusTransactionsPrefetch, uint64(st.PrefetchBusTx))
}

// ObserveDMA records bus transactions that did not originate in this
// processor (DMA and other-processor traffic), the P4's combined
// DMA/other metric.
func (p *Processor) ObserveDMA(tx float64) {
	if tx > 0 {
		p.pm.Observe(pmu.EventDMAOther, uint64(tx))
	}
}
