package cpu

import (
	"math"
	"reflect"
	"testing"
	"testing/quick"

	"trickledown/internal/pmu"
	"trickledown/internal/sim"
	"trickledown/internal/workload"
)

const testCycles = 2.8e6 // one 1 ms slice at 2.8 GHz

func busyDemand() *workload.Demand {
	return &workload.Demand{
		Active:          1,
		UopsPerCycle:    1.2,
		SpecActivity:    0.5,
		L2PerUop:        1.0,
		L3MissPerKuop:   1.0,
		DirtyEvictFrac:  0.4,
		Prefetchability: 0.5,
		TLBMissPerMuop:  40,
		UCPerMcycle:     2,
		WriteFrac:       0.35,
	}
}

func newProc() *Processor { return New(0, sim.NewRNG(1)) }

// programAll programs every event the model pipeline counts.
func programAll(t *testing.T, p *Processor) {
	t.Helper()
	events := []pmu.Event{
		pmu.EventCycles, pmu.EventHaltedCycles, pmu.EventFetchedUops,
		pmu.EventL3LoadMisses, pmu.EventL3Misses, pmu.EventTLBMisses,
		pmu.EventBusTransactions, pmu.EventBusTransactionsPrefetch,
		pmu.EventDMAOther, pmu.EventUncacheableAccesses,
	}
	for i, e := range events {
		if err := p.PMU().Program(i, e); err != nil {
			t.Fatal(err)
		}
	}
}

func TestIdleProcessorIsHalted(t *testing.T) {
	p := newProc()
	st := p.Step(testCycles, &workload.Demand{}, &workload.Demand{}, 0)
	if st.HaltedCycles != testCycles {
		t.Errorf("HaltedCycles = %v, want %v", st.HaltedCycles, testCycles)
	}
	if st.ActiveFrac != 0 {
		t.Errorf("ActiveFrac = %v", st.ActiveFrac)
	}
	if st.FetchedUops != 0 || st.TotalBusTx() != 0 {
		t.Errorf("idle produced work: %+v", st)
	}
}

func TestBusyProcessorUnhalted(t *testing.T) {
	p := newProc()
	st := p.Step(testCycles, busyDemand(), busyDemand(), 0.3)
	if st.HaltedCycles != 0 {
		t.Errorf("HaltedCycles = %v, want 0", st.HaltedCycles)
	}
	if st.ActiveFrac != 1 {
		t.Errorf("ActiveFrac = %v", st.ActiveFrac)
	}
	if st.FetchedUops <= 0 {
		t.Error("no uops fetched")
	}
}

func TestHalfActiveComposition(t *testing.T) {
	p := newProc()
	d := busyDemand()
	d.Active = 0.5
	st := p.Step(testCycles, d, d, 0)
	// 1-(1-.5)^2 = .75 active.
	if math.Abs(st.ActiveFrac-0.75) > 1e-12 {
		t.Errorf("ActiveFrac = %v, want 0.75", st.ActiveFrac)
	}
}

func TestSMTSharingReducesPerThreadThroughput(t *testing.T) {
	p := newProc()
	single := p.Step(testCycles, busyDemand(), &workload.Demand{}, 0)
	p2 := newProc()
	dual := p2.Step(testCycles, busyDemand(), busyDemand(), 0)
	if dual.FetchedUops <= single.FetchedUops {
		t.Error("two threads should fetch more than one in total")
	}
	if dual.FetchedUops >= 2*single.FetchedUops {
		t.Error("SMT sharing should make dual < 2x single")
	}
	want := 2 * single.FetchedUops * (1 - SMTPenalty)
	if math.Abs(dual.FetchedUops-want)/want > 0.01 {
		t.Errorf("dual uops = %v, want ~%v", dual.FetchedUops, want)
	}
}

func TestFetchWidthCap(t *testing.T) {
	p := newProc()
	d := busyDemand()
	d.UopsPerCycle = 3
	st := p.Step(testCycles, d, d, 0)
	if st.FetchedUops > testCycles*MaxUopsPerCycle {
		t.Errorf("fetched %v uops, above machine width", st.FetchedUops)
	}
}

func TestPrefetchCoverage(t *testing.T) {
	if c := PrefetchCoverage(0, 1); c != 0 {
		t.Errorf("coverage with zero prefetchability = %v", c)
	}
	lo := PrefetchCoverage(0.8, 0.1)
	hi := PrefetchCoverage(0.8, 0.9)
	if hi <= lo {
		t.Errorf("coverage must grow with bus utilization: %v <= %v", hi, lo)
	}
	if c := PrefetchCoverage(1, 1); c > 0.85 {
		t.Errorf("coverage cap exceeded: %v", c)
	}
	if c := PrefetchCoverage(0.5, -1); c < 0 {
		t.Errorf("coverage negative: %v", c)
	}
}

// The Figure 4 mechanism: at higher bus utilization, demand L3 misses
// fall while prefetch transactions rise.
func TestPrefetchShiftsMissesAtHighUtil(t *testing.T) {
	d := busyDemand()
	d.Prefetchability = 0.6
	pLow := newProc()
	pHigh := newProc()
	var lowMiss, lowPf, highMiss, highPf float64
	for i := 0; i < 200; i++ {
		sl := pLow.Step(testCycles, d, d, 0.1)
		sh := pHigh.Step(testCycles, d, d, 0.9)
		lowMiss += sl.L3LoadMisses
		lowPf += sl.PrefetchBusTx
		highMiss += sh.L3LoadMisses
		highPf += sh.PrefetchBusTx
	}
	if highMiss >= lowMiss {
		t.Errorf("demand misses should fall with util: %v >= %v", highMiss, lowMiss)
	}
	if highPf <= lowPf {
		t.Errorf("prefetches should rise with util: %v <= %v", highPf, lowPf)
	}
}

func TestPMUCountsMatchStats(t *testing.T) {
	p := newProc()
	programAll(t, p)
	var sum SliceStats
	for i := 0; i < 1000; i++ {
		st := p.Step(testCycles, busyDemand(), busyDemand(), 0.4)
		sum.Cycles += st.Cycles
		sum.FetchedUops += st.FetchedUops
		sum.L3LoadMisses += st.L3LoadMisses
		sum.DemandBusTx += st.DemandBusTx
		sum.PrefetchBusTx += st.PrefetchBusTx
	}
	// programAll's slots: cycles 0, fetched uops 2, bus transactions 6.
	cyc, _ := p.PMU().Read(0)
	if math.Abs(float64(cyc)-sum.Cycles) > 1e-6*sum.Cycles {
		t.Errorf("PMU cycles %d vs stats %v", cyc, sum.Cycles)
	}
	uops, _ := p.PMU().Read(2)
	if rel := math.Abs(float64(uops)-sum.FetchedUops) / sum.FetchedUops; rel > 0.001 {
		t.Errorf("PMU uops %d vs stats %v", uops, sum.FetchedUops)
	}
	bus, _ := p.PMU().Read(6)
	wantBus := sum.DemandBusTx + sum.PrefetchBusTx
	if rel := math.Abs(float64(bus)-wantBus) / wantBus; rel > 0.01 {
		t.Errorf("PMU bus tx %d vs stats %v", bus, wantBus)
	}
}

func TestObserveDMA(t *testing.T) {
	p := newProc()
	if err := p.PMU().Program(0, pmu.EventDMAOther); err != nil {
		t.Fatal(err)
	}
	p.ObserveDMA(500)
	p.ObserveDMA(0)
	p.ObserveDMA(-5) // ignored
	got, _ := p.PMU().Read(0)
	if got != 500 {
		t.Errorf("DMA count = %d, want 500", got)
	}
}

func TestCountsScaleWithDemand(t *testing.T) {
	// Doubling the miss rate should roughly double bus traffic.
	d1 := busyDemand()
	d1.Prefetchability = 0
	d2 := *d1
	d2.L3MissPerKuop *= 2
	p1, p2 := newProc(), newProc()
	var tx1, tx2 float64
	for i := 0; i < 500; i++ {
		tx1 += p1.Step(testCycles, d1, &workload.Demand{}, 0).TotalBusTx()
		tx2 += p2.Step(testCycles, &d2, &workload.Demand{}, 0).TotalBusTx()
	}
	ratio := tx2 / tx1
	if ratio < 1.7 || ratio > 2.1 {
		t.Errorf("bus tx ratio = %v, want ~2 (excl. constant UC term)", ratio)
	}
}

func TestWriteFracBlends(t *testing.T) {
	p := newProc()
	dr := busyDemand()
	dr.WriteFrac = 0
	dw := busyDemand()
	dw.WriteFrac = 1
	st := p.Step(testCycles, dr, dw, 0)
	if st.WriteFrac <= 0.2 || st.WriteFrac >= 0.8 {
		t.Errorf("blended WriteFrac = %v, want mid-range", st.WriteFrac)
	}
}

// Property: for any demand, derived stats are non-negative and halted +
// active cycles account for the whole slice.
func TestStatsInvariants(t *testing.T) {
	r := sim.NewRNG(5)
	f := func(seed uint64) bool {
		rr := sim.NewRNG(seed)
		d := workload.Demand{
			Active:          rr.Float64(),
			UopsPerCycle:    rr.Float64() * 3,
			SpecActivity:    rr.Float64() * 2,
			L2PerUop:        rr.Float64() * 2,
			L3MissPerKuop:   rr.Float64() * 5,
			DirtyEvictFrac:  rr.Float64(),
			Prefetchability: rr.Float64(),
			TLBMissPerMuop:  rr.Float64() * 200,
			UCPerMcycle:     rr.Float64() * 50,
			WriteFrac:       rr.Float64(),
		}
		p := New(0, rr)
		st := p.Step(testCycles, &d, &d, rr.Float64())
		if st.HaltedCycles < 0 || st.HaltedCycles > testCycles {
			return false
		}
		if math.Abs((st.HaltedCycles+st.ActiveFrac*testCycles)-testCycles) > 1 {
			return false
		}
		for _, v := range []float64{
			st.FetchedUops, st.SpecUops, st.L2Accesses, st.L3LoadMisses,
			st.L3Misses, st.Writebacks, st.TLBMisses, st.UCAccesses,
			st.DemandBusTx, st.PrefetchBusTx,
		} {
			if v < 0 || math.IsNaN(v) {
				return false
			}
		}
		return st.WriteFrac >= 0 && st.WriteFrac <= 1
	}
	_ = r
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestProcessorID(t *testing.T) {
	p := New(3, sim.NewRNG(1))
	if p.ID() != 3 {
		t.Errorf("ID = %d", p.ID())
	}
}

func TestThrottleClampAndEffect(t *testing.T) {
	p := newProc()
	p.SetThrottle(0.5)
	if p.throttle != 0.5 {
		t.Errorf("throttle = %v", p.throttle)
	}
	p.SetThrottle(5)
	if p.throttle != MaxThrottle {
		t.Errorf("throttle clamp = %v", p.throttle)
	}
	p.SetThrottle(-1)
	if p.throttle != 0 {
		t.Errorf("negative throttle = %v", p.throttle)
	}
	p.SetThrottle(0.8)
	st := p.Step(testCycles, busyDemand(), busyDemand(), 0)
	// Duty 0.2 per thread: active frac = 1-(0.8)^2 = 0.36.
	if math.Abs(st.ActiveFrac-0.36) > 1e-9 {
		t.Errorf("throttled ActiveFrac = %v, want 0.36", st.ActiveFrac)
	}
}

func TestFreqScaleClampAndEffect(t *testing.T) {
	p := newProc()
	if p.freqScale != 1 {
		t.Errorf("default freqScale = %v", p.freqScale)
	}
	p.SetFreqScale(0.1)
	if p.freqScale != MinFreqScale {
		t.Errorf("freqScale floor = %v", p.freqScale)
	}
	p.SetFreqScale(3)
	if p.freqScale != 1 {
		t.Errorf("freqScale ceiling = %v", p.freqScale)
	}
	p.SetFreqScale(0.5)
	st := p.Step(testCycles, busyDemand(), &workload.Demand{}, 0)
	if st.Cycles != testCycles*0.5 {
		t.Errorf("scaled Cycles = %v, want %v", st.Cycles, testCycles*0.5)
	}
	if st.FreqScale != 0.5 {
		t.Errorf("stats FreqScale = %v", st.FreqScale)
	}
}

// TestStepIntoOverwritesEveryField steps twin processors from the same
// seed, one through Step and one through StepInto on a slot poisoned
// with NaN, over random demands (idle threads included), throttles and
// DVFS points. Every field must come out bit-identical, so StepInto
// leaves nothing of the slot's previous contents behind.
func TestStepIntoOverwritesEveryField(t *testing.T) {
	byValue, inPlace := New(0, sim.NewRNG(21)), New(0, sim.NewRNG(21))
	r := sim.NewRNG(22)
	demand := func() *workload.Demand {
		if r.Float64() < 0.3 {
			return &workload.Demand{}
		}
		return &workload.Demand{
			Active:          r.Float64(),
			UopsPerCycle:    3 * r.Float64(),
			SpecActivity:    r.Float64(),
			L2PerUop:        r.Float64(),
			L3MissPerKuop:   5 * r.Float64(),
			DirtyEvictFrac:  r.Float64(),
			Prefetchability: r.Float64(),
			TLBMissPerMuop:  100 * r.Float64(),
			UCPerMcycle:     10 * r.Float64(),
			WriteFrac:       r.Float64(),
			MemLocality:     r.Float64(),
		}
	}
	var st SliceStats
	slot := reflect.ValueOf(&st).Elem()
	for i := 0; i < 500; i++ {
		throttle, freq := r.Float64(), MinFreqScale+r.Float64()*(1-MinFreqScale)
		byValue.SetThrottle(throttle)
		inPlace.SetThrottle(throttle)
		byValue.SetFreqScale(freq)
		inPlace.SetFreqScale(freq)
		d0, d1, busUtil := demand(), demand(), r.Float64()

		want := reflect.ValueOf(byValue.Step(testCycles, d0, d1, busUtil))
		for f := 0; f < slot.NumField(); f++ {
			slot.Field(f).SetFloat(math.NaN())
		}
		inPlace.StepInto(&st, testCycles, d0, d1, busUtil)
		for f := 0; f < slot.NumField(); f++ {
			got, w := slot.Field(f).Float(), want.Field(f).Float()
			if math.Float64bits(got) != math.Float64bits(w) {
				t.Fatalf("step %d: StepInto %s = %v, Step gives %v",
					i, slot.Type().Field(f).Name, got, w)
			}
		}
	}
}
