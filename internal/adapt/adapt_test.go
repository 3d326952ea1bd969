package adapt

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"trickledown/internal/align"
	"trickledown/internal/core"
	"trickledown/internal/iobus"
	"trickledown/internal/perfctr"
	"trickledown/internal/power"
	"trickledown/internal/stats"
	"trickledown/internal/validate"
)

// sampleAt builds a deterministic 2-CPU sample whose rates sweep with i,
// mirroring core's test idiom so every production design has variance.
func sampleAt(i, n int) perfctr.Sample {
	f := float64(i%n) / float64(n)
	g := float64((i*37)%n) / float64(n)
	const cyc = 2.8e9
	const mcyc = cyc / 1e6
	active := 0.2 + 0.75*f
	upc := 0.3 + 2*g
	buspmc := 200 + 1500*f
	dmapmc := 100 * g
	intspmc := 0.1 + 2*f
	s := perfctr.Sample{
		TargetSeconds: float64(i + 1),
		IntervalSec:   1,
		CPUs:          make([]perfctr.CPUCounts, 2),
		Ints:          make([][]uint64, iobus.NumVectors),
	}
	for v := range s.Ints {
		s.Ints[v] = make([]uint64, 2)
	}
	for c := range s.CPUs {
		cc := &s.CPUs[c]
		cc.Cycles = uint64(cyc)
		cc.HaltedCycles = uint64(cyc * (1 - active))
		cc.FetchedUops = uint64(cyc * upc)
		cc.L3LoadMisses = uint64(80 * mcyc)
		cc.BusTx = uint64(buspmc * mcyc)
		cc.BusPrefetchTx = uint64(buspmc * mcyc / 10)
		cc.DMAOther = uint64(dmapmc * mcyc)
		cc.Uncacheable = uint64(5 * mcyc)
		cc.TLBMisses = uint64(20 * mcyc)
		s.Ints[iobus.VecTimer][c] = uint64(intspmc * mcyc / 2)
		s.Ints[iobus.VecDisk][c] = uint64(intspmc * mcyc / 2)
	}
	return s
}

// railsFor synthesizes measured rails from a sample. shift scales the
// activity-sensitive coefficients — shift 0 is the training regime,
// larger shifts model a hardware/workload relationship the frozen
// champion never saw.
func railsFor(s *perfctr.Sample, shift float64) power.Reading {
	m := core.ExtractMetrics(s)
	k := 1 + shift
	var r power.Reading
	r[power.SubCPU] = 9.25*m[core.NumCPUs] + k*26.45*m[core.SumActive] + k*4.31*m[core.SumUPC]
	r[power.SubChipset] = 19.0
	busTot := m[core.TotalBus]
	r[power.SubMemory] = 28 + k*0.018*busTot + 2e-6*busTot*busTot
	ints := m[core.SumInts]
	r[power.SubIO] = 32.7 + k*1.1*ints + 0.04*ints*ints
	di := m[core.SumDiskInts]
	dm := m[core.MeanDMA]
	r[power.SubDisk] = 21.6 + k*2.0*di + 0.05*di*di + 0.002*dm + 1e-6*dm*dm
	return r
}

// trainingChampion fits the production estimator on the shift-0 regime.
func trainingChampion(t testing.TB, n int) *core.Estimator {
	t.Helper()
	ds := &align.Dataset{Rows: make([]align.Row, n)}
	for i := 0; i < n; i++ {
		s := sampleAt(i, n)
		ds.Rows[i] = align.Row{Power: railsFor(&s, 0), Counters: s}
	}
	est, err := core.TrainEstimator(core.TrainingSet{CPU: ds, Memory: ds, Disk: ds, IO: ds, Chipset: ds})
	if err != nil {
		t.Fatal(err)
	}
	fp := "test-corpus"
	est.SetProvenance(&core.Provenance{
		SchemaVersion: core.ProvenanceSchemaVersion,
		Version:       "train-" + fp,
		Fingerprint:   fp,
		Envelopes:     core.ComputeEnvelopes(ds),
		Reason:        "offline-train",
	})
	return est
}

// TestComputeEnvelopesPinned: the envelopes of this package's training
// corpora, read from core.RatesOf, keep the bits they had when they
// were aggregated from full metric extraction.
func TestComputeEnvelopesPinned(t *testing.T) {
	want := map[int][core.NumEnvelopeMetrics][2]uint64{
		97: {
			{0x3ff246bada9e5c1c, 0x3fdbb61a6448cfea},
			{0x4004a292bceae1ca, 0x3ff27966ed861c25},
			{0x409e3814920b5f00, 0x408b20eb0335c9c4},
			{0x40016dece84ec87d, 0x3ff2797eb88440cd},
			{0x3ff16dece84ec87d, 0x3fe2797eb88440cd},
			{0x4048bdff7cbc268c, 0x403cddb1c39b13e8},
		},
		120: {
			{0x3ff24cccccdd296d, 0x3fdbb63bd83dbca0},
			{0x4004aaaaaaa0d981, 0x3ff2797d3acabc6d},
			{0x409e445535587441, 0x408b23eedd24c922},
			{0x40017664d6f1461e, 0x3ff279855b1039d9},
			{0x3ff17664d6f1461e, 0x3fe279855b1039d9},
			{0x4048caa6ab0e87f7, 0x403cddd377b99713},
		},
	}
	for n, bits := range want {
		ds := &align.Dataset{Rows: make([]align.Row, n)}
		for i := range ds.Rows {
			ds.Rows[i].Counters = sampleAt(i, n)
		}
		envs := core.ComputeEnvelopes(ds)
		if len(envs) != core.NumEnvelopeMetrics {
			t.Fatalf("n=%d: %d envelopes, want %d", n, len(envs), core.NumEnvelopeMetrics)
		}
		for k, e := range envs {
			if e.Name != core.EnvelopeNames()[k] || math.Float64bits(e.Mean) != bits[k][0] || math.Float64bits(e.Std) != bits[k][1] {
				t.Errorf("n=%d %s: mean %#x std %#x, want %#x %#x", n, e.Name,
					math.Float64bits(e.Mean), math.Float64bits(e.Std), bits[k][0], bits[k][1])
			}
		}
	}
}

func testConfig(champ *core.Estimator) Config {
	return Config{
		Champion:        champ,
		Window:          60,
		EnvelopeBudgetZ: 1e12, // isolate the residual detector unless a test wants envelopes
		RollbackDepth:   3,
		GuardWindow:     25,
		Cooldown:        10,
		PhaseThresholdW: 1000, // no phase gating unless a test wants it
		PhaseSettle:     2,
		Seed:            7,
	}
}

// newRecorded builds a manager whose every event is appended to events.
func newRecorded(t testing.TB, cfg Config, events *[]Event) *Manager {
	t.Helper()
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m.Subscribe(func(ev Event) { *events = append(*events, ev) })
	return m
}

// observe feeds one sample as a chunk of one and returns the reading
// Observe serves for it.
func observe(m *Manager, s *perfctr.Sample, measured power.Reading) power.Reading {
	var out [1]power.Reading
	m.Observe(out[:], []perfctr.Sample{*s}, []power.Reading{measured})
	return out[0]
}

// runDrill streams pre-drift then post-drift observations and returns
// the manager for inspection.
func runDrill(t *testing.T, cfg Config, events *[]Event, pre, post int, shift float64) *Manager {
	t.Helper()
	m := newRecorded(t, cfg, events)
	const n = 97
	for i := 0; i < pre; i++ {
		s := sampleAt(i, n)
		observe(m, &s, railsFor(&s, 0))
	}
	for i := pre; i < pre+post; i++ {
		s := sampleAt(i, n)
		observe(m, &s, railsFor(&s, shift))
	}
	return m
}

// TestWindowRowsOwnTheirStorage: Observe keeps a deep copy of each
// sample, so a caller that decodes every chunk into the same storage
// (the live service recycles its decode buffers) leaves the window's
// rows unchanged. The chunks vary in length, the stream is longer than
// the window, so evicted slots are reused too, and the busy-time vector
// changes length.
func TestWindowRowsOwnTheirStorage(t *testing.T) {
	const n, total = 97, 75
	m, err := New(testConfig(trainingChampion(t, 120)))
	if err != nil {
		t.Fatal(err)
	}
	want := func(i int) perfctr.Sample {
		s := sampleAt(i, n)
		s.OSBusySec = make([]float64, 1+i%2)
		for c := range s.OSBusySec {
			s.OSBusySec[c] = 0.1 * float64(i%7+c)
		}
		return s
	}
	lens := []int{1, 7, 3, 16, 2, 11, 5, 30}
	buf := make([]perfctr.Sample, 30)
	for k := range buf {
		buf[k] = want(0)
		buf[k].OSBusySec = make([]float64, 2)
	}
	rails := make([]power.Reading, len(buf))
	out := make([]power.Reading, len(buf))
	for i, c := 0, 0; i < total; c++ {
		chunk := buf[:min(lens[c%len(lens)], total-i)]
		for k := range chunk {
			// Overwrite buf in place, as a reused decoder would.
			w, b := want(i+k), &chunk[k]
			copy(b.CPUs, w.CPUs)
			for v := range b.Ints {
				copy(b.Ints[v], w.Ints[v])
			}
			b.TargetSeconds = w.TargetSeconds
			b.OSBusySec = append(b.OSBusySec[:0], w.OSBusySec...)
			rails[k] = railsFor(b, 0)
		}
		m.Observe(out, chunk, rails)
		i += len(chunk)
	}
	win := m.windowDataset()
	if win.Len() != m.cfg.Window {
		t.Fatalf("window holds %d rows, want %d (did a drift alarm reset it?)", win.Len(), m.cfg.Window)
	}
	for r := range win.Rows {
		i := total - win.Len() + r
		if w := want(i); !reflect.DeepEqual(win.Rows[r].Counters, w) {
			t.Fatalf("window row %d (sample %d) changed after its source was overwritten:\n got %+v\nwant %+v",
				r, i, win.Rows[r].Counters, w)
		}
	}
}

// steadyChunk is a 256-sample chunk of the training regime of a
// champion fit on n samples, with its rails.
func steadyChunk(n int) ([]perfctr.Sample, []power.Reading) {
	samples := make([]perfctr.Sample, 256)
	rails := make([]power.Reading, len(samples))
	for i := range samples {
		samples[i] = sampleAt(i, n)
		rails[i] = railsFor(&samples[i], 0)
	}
	return samples, rails
}

// TestObserveSteadyStateZeroAlloc: once the window is full, an Observe
// of a 256-sample chunk that raises no alarm and refits nothing
// allocates nothing. The champion's estimate, the envelope rates and
// the window copies all reuse storage the manager already holds.
func TestObserveSteadyStateZeroAlloc(t *testing.T) {
	const n = 97
	m, err := New(testConfig(trainingChampion(t, n)))
	if err != nil {
		t.Fatal(err)
	}
	if len(m.env.envs) == 0 {
		t.Fatal("champion carries no envelopes; the envelope path would go unmeasured")
	}
	samples, rails := steadyChunk(n)
	out := make([]power.Reading, len(samples))
	observe := func() { m.Observe(out, samples, rails) }
	observe()
	allocs := testing.AllocsPerRun(20, observe)
	if st := m.Status(); st.Alarms != 0 || st.Retrains != 0 {
		t.Fatalf("steady regime raised %d alarms and %d refits", st.Alarms, st.Retrains)
	}
	if allocs != 0 {
		t.Errorf("steady Observe allocates %.2f/op, want 0", allocs)
	}
}

// BenchmarkObserve is one railed 256-sample chunk through a
// steady-state Observe: the champion's estimate of the chunk, then per
// sample the envelope rates, both detectors, the phase tracker and the
// window copy, with no alarm or refit.
func BenchmarkObserve(b *testing.B) {
	const n = 97
	m, err := New(testConfig(trainingChampion(b, n)))
	if err != nil {
		b.Fatal(err)
	}
	samples, rails := steadyChunk(n)
	out := make([]power.Reading, len(samples))
	m.Observe(out, samples, rails)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Observe(out, samples, rails)
	}
	b.StopTimer()
	if st := m.Status(); st.Alarms != 0 || st.Retrains != 0 {
		b.Fatalf("steady regime raised %d alarms and %d refits", st.Alarms, st.Retrains)
	}
}

func TestDriftTriggersGuardedSwap(t *testing.T) {
	champ := trainingChampion(t, 120)
	var events []Event
	m := runDrill(t, testConfig(champ), &events, 100, 300, 0.4)

	st := m.Status()
	if st.Alarms == 0 {
		t.Fatal("no drift alarm on a 40% coefficient shift")
	}
	if st.Swaps == 0 {
		t.Fatalf("no swap after drift: %+v", st)
	}
	if st.Rollbacks != 0 {
		t.Fatalf("unexpected rollback: %+v", st)
	}
	if len(events) == 0 || events[0].Kind != "swap" {
		t.Fatalf("events = %+v", events)
	}
	ev := events[0]
	if ev.From != "train-test-corpus" {
		t.Errorf("swap From = %q", ev.From)
	}
	if ev.To == "" || ev.To == "unversioned" {
		t.Errorf("swap To = %q", ev.To)
	}
	if ev.WindowErrPct <= 0 || ev.WindowErrPct > validate.PaperBoundPct {
		t.Errorf("swap window err = %v", ev.WindowErrPct)
	}
	if ev.Trace.IsZero() {
		t.Error("swap trace ID is zero")
	}
	// The promoted champion is accurate on the drifted regime where the
	// frozen one is not.
	const n = 97
	var adaptiveErr, frozenErr float64
	for i := 0; i < n; i++ {
		s := sampleAt(i, n)
		truth := railsFor(&s, 0.4).Total()
		adaptiveErr += math.Abs(m.Champion().Estimate(&s).Total()-truth) / truth * 100
		frozenErr += math.Abs(champ.Estimate(&s).Total()-truth) / truth * 100
	}
	adaptiveErr /= n
	frozenErr /= n
	if adaptiveErr >= 9 {
		t.Errorf("adaptive champion err %.2f%% breaches the paper bound", adaptiveErr)
	}
	if frozenErr <= 9 {
		t.Errorf("frozen champion err %.2f%% should breach under this drift", frozenErr)
	}
	// Provenance chain: the new champion descends from the old one.
	p := m.Champion().Provenance()
	if p == nil || p.Parent != "train-test-corpus" || p.Reason != "drift-refit" {
		t.Errorf("refit provenance = %+v", p)
	}
}

func TestDrillIsDeterministic(t *testing.T) {
	run := func() (string, Status) {
		champ := trainingChampion(t, 120)
		var events []Event
		m := runDrill(t, testConfig(champ), &events, 100, 300, 0.4)
		var sig string
		for _, ev := range events {
			sig += fmt.Sprintf("%s|%s->%s|%s|%.9f\n", ev.Kind, ev.From, ev.To, ev.Trace.String(), ev.WindowErrPct)
		}
		return sig, m.Status()
	}
	sig1, st1 := run()
	sig2, st2 := run()
	if sig1 != sig2 {
		t.Errorf("event streams differ:\n%s\nvs\n%s", sig1, sig2)
	}
	if st1 != st2 {
		t.Errorf("status differs: %+v vs %+v", st1, st2)
	}
	if sig1 == "" {
		t.Error("drill produced no events")
	}
}

// swapRollbackStream is a railed stream that swaps the champion and
// then rolls the swap back: the training regime, a 0.4 shift from
// sample 100 until a manager fed one sample at a time swaps, a 2.5
// shift until it rolls back, then the training regime again. It
// returns the samples observed at the swap and at the rollback too.
func swapRollbackStream(t *testing.T, cfg Config) (ss []perfctr.Sample, rails []power.Reading, swapAt, rollAt int) {
	t.Helper()
	const n, total, pre = 97, 400, 100
	dry, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ss, rails = make([]perfctr.Sample, total), make([]power.Reading, total)
	swapAt, rollAt = -1, -1
	shift := 0.0
	for i := range ss {
		st := dry.Status()
		switch {
		case st.Rollbacks > 0:
			shift = 0
		case st.Swaps > 0:
			shift = 2.5
		case i == pre:
			shift = 0.4
		}
		ss[i] = sampleAt(i, n)
		rails[i] = railsFor(&ss[i], shift)
		observe(dry, &ss[i], rails[i])
		if st := dry.Status(); st.Swaps > 0 && swapAt < 0 {
			swapAt = i
		} else if st.Rollbacks > 0 && rollAt < 0 {
			rollAt = i
		}
	}
	if st := dry.Status(); st.Swaps != 1 || st.Rollbacks != 1 || rollAt < 0 {
		t.Fatalf("stream: %d swaps, %d rollbacks; want one of each", st.Swaps, st.Rollbacks)
	}
	return ss, rails, swapAt, rollAt
}

// TestObservePartitionInvariant: how a railed stream is cut into chunks
// changes nothing Observe decides or serves. The stream swaps and then
// rolls back; fed whole, in chunks of one and at seeded random cut
// points, it leaves the same status (LastErrPct bit for bit), the same
// events with the same trace IDs and challenger coefficients, the same
// champion, and bit-identical readings in out. The reading served at
// the swap is the challenger's and at the rollback the restored
// champion's, so the re-estimate after a champion change is exercised.
func TestObservePartitionInvariant(t *testing.T) {
	champ := trainingChampion(t, 120)
	ss, rails, swapAt, rollAt := swapRollbackStream(t, testConfig(champ))
	type run struct {
		out    []power.Reading
		events []Event
		m      *Manager
	}
	feed := func(cuts func() int) run {
		r := run{out: make([]power.Reading, len(ss))}
		r.m = newRecorded(t, testConfig(champ), &r.events)
		for lo := 0; lo < len(ss); {
			hi := min(lo+cuts(), len(ss))
			r.m.Observe(r.out[lo:hi], ss[lo:hi], rails[lo:hi])
			lo = hi
		}
		return r
	}
	rng := uint64(33)
	runs := map[string]run{
		"whole":  feed(func() int { return len(ss) }),
		"ones":   feed(func() int { return 1 }),
		"random": feed(func() int { return 1 + int(stats.SplitMix64(&rng)%64) }),
	}
	coefBits := func(e *core.Estimator) (bits []uint64) {
		for _, sub := range power.Subsystems() {
			for _, c := range e.Model(sub).Coef {
				bits = append(bits, math.Float64bits(c))
			}
		}
		return bits
	}
	want := runs["ones"]
	if len(want.events) != 2 {
		t.Fatalf("chunks of one: %d events, want a swap and a rollback", len(want.events))
	}
	challenger := want.events[0].Estimator
	for _, c := range []struct {
		i   int
		est *core.Estimator
	}{{swapAt - 1, champ}, {swapAt, challenger}, {rollAt - 1, challenger}, {rollAt, champ}} {
		if got, w := want.out[c.i], c.est.Estimate(&ss[c.i]); got != w {
			t.Errorf("sample %d served %v, want %s's %v", c.i, got, versionOf(c.est), w)
		}
	}
	if challenger.Estimate(&ss[swapAt]) == champ.Estimate(&ss[swapAt]) {
		t.Fatal("challenger and champion agree at the swap; the test cannot tell them apart")
	}
	wantSt := want.m.Status()
	for name, r := range runs {
		st := r.m.Status()
		if math.Float64bits(st.LastErrPct) != math.Float64bits(wantSt.LastErrPct) {
			t.Errorf("%s: LastErrPct %v, chunks of one %v", name, st.LastErrPct, wantSt.LastErrPct)
		}
		if st != wantSt {
			t.Errorf("%s: status %+v, chunks of one %+v", name, st, wantSt)
		}
		if !reflect.DeepEqual(coefBits(r.m.Champion()), coefBits(want.m.Champion())) {
			t.Errorf("%s: champion coefficients differ", name)
		}
		if len(r.events) != len(want.events) {
			t.Fatalf("%s: %d events, chunks of one %d", name, len(r.events), len(want.events))
		}
		for k, ev := range r.events {
			w := want.events[k]
			if ev.Kind != w.Kind || ev.From != w.From || ev.To != w.To || ev.Trace != w.Trace ||
				math.Float64bits(ev.WindowErrPct) != math.Float64bits(w.WindowErrPct) ||
				!reflect.DeepEqual(coefBits(ev.Estimator), coefBits(w.Estimator)) {
				t.Errorf("%s: event %d is %s %s->%s %s, chunks of one %s %s->%s %s",
					name, k, ev.Kind, ev.From, ev.To, ev.Trace, w.Kind, w.From, w.To, w.Trace)
			}
		}
		for i := range r.out {
			for sub := range r.out[i] {
				if math.Float64bits(r.out[i][sub]) != math.Float64bits(want.out[i][sub]) {
					t.Fatalf("%s: sample %d %s served %v, chunks of one %v",
						name, i, power.Subsystem(sub), r.out[i][sub], want.out[i][sub])
				}
			}
		}
	}
}

// TestShadowGateRejectsBadChallenger is the negative control: a hook
// that corrupts every challenger must never let one serve.
func TestShadowGateRejectsBadChallenger(t *testing.T) {
	champ := trainingChampion(t, 120)
	var events []Event
	cfg := testConfig(champ)
	cfg.ChallengerHook = func(c *core.Estimator) *core.Estimator {
		// Negate the CPU response: more activity, less power — exactly
		// what the metamorphic battery exists to catch.
		bad := &core.Model{Spec: core.CPUSpec(), Coef: []float64{40, -26, -4}}
		est, err := core.NewEstimator(bad,
			c.Model(power.SubChipset), c.Model(power.SubMemory),
			c.Model(power.SubIO), c.Model(power.SubDisk))
		if err != nil {
			t.Fatal(err)
		}
		est.SetProvenance(c.Provenance())
		return est
	}
	m := runDrill(t, cfg, &events, 100, 300, 0.4)
	st := m.Status()
	if st.Swaps != 0 {
		t.Fatalf("corrupted challenger served traffic: %+v", st)
	}
	if st.Retrains == 0 || st.Rejected == 0 {
		t.Fatalf("gate never exercised: %+v", st)
	}
	if len(events) != 0 {
		t.Fatalf("events emitted for rejected challengers: %+v", events)
	}
	if got := versionOf(m.Champion()); got != "train-test-corpus" {
		t.Errorf("champion changed to %q", got)
	}
}

// TestRollbackWithinGuardWindow: a drift alarm right after a swap must
// revert to the prior champion, not chase a new challenger.
func TestRollbackWithinGuardWindow(t *testing.T) {
	champ := trainingChampion(t, 120)
	var events []Event
	cfg := testConfig(champ)
	m := newRecorded(t, cfg, &events)
	const n = 97
	// Champion was trained on shift 0, live data is 0.4: drive drifted
	// traffic until the manager promotes a challenger, then stop.
	i := 0
	for ; i < 600 && len(events) == 0; i++ {
		s := sampleAt(i, n)
		observe(m, &s, railsFor(&s, 0.4))
	}
	if len(events) == 0 || events[0].Kind != "swap" {
		t.Fatalf("no swap to set up rollback: %+v", m.Status())
	}
	swapped := events[0].To
	if g := m.Status().GuardRemaining; g == 0 {
		t.Fatal("guard window not armed after swap")
	}
	// Immediately mutate again, violently, inside the guard window.
	start := i
	for ; i < start+cfg.GuardWindow; i++ {
		s := sampleAt(i, n)
		observe(m, &s, railsFor(&s, 2.5))
		if len(events) >= 2 {
			break
		}
	}
	if len(events) < 2 || events[1].Kind != "rollback" {
		t.Fatalf("no rollback inside guard window: events=%+v status=%+v", events, m.Status())
	}
	rb := events[1]
	if rb.From != swapped {
		t.Errorf("rollback From = %q, want %q", rb.From, swapped)
	}
	if rb.To != "train-test-corpus" {
		t.Errorf("rollback To = %q", rb.To)
	}
	st := m.Status()
	if st.Rollbacks != 1 {
		t.Errorf("rollbacks = %d", st.Rollbacks)
	}
	if st.WindowFill != 0 && st.WindowFill >= cfg.Window {
		t.Errorf("tainted window not reset: fill=%d", st.WindowFill)
	}
	// Service contract: the restored champion still serves finite
	// estimates.
	s := sampleAt(3, n)
	r := m.Champion().Estimate(&s)
	for sub, v := range r {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Errorf("rail %s non-finite after rollback", power.Subsystem(sub))
		}
	}
}

// TestPhaseGateBlocksRetrainDuringTransitions: while power oscillates
// across the phase threshold every sample, a pending retrain must wait.
func TestPhaseGateBlocksRetrainDuringTransitions(t *testing.T) {
	champ := trainingChampion(t, 120)
	cfg := testConfig(champ)
	// The synthetic sweep carries ~25 W of sample-to-sample structure, so
	// the band must sit above that for a "steady" phase to exist at all;
	// the injected square wave then has to clear the band on every flip.
	cfg.PhaseThresholdW = 80
	cfg.PhaseSettle = 15
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const n = 97
	// Drifted regime with an alternating +400 W square wave on top: every
	// sample breaks the phase, so no phase ever settles 15 samples.
	for i := 0; i < 300; i++ {
		s := sampleAt(i, n)
		r := railsFor(&s, 0.4)
		if i%2 == 0 {
			r[power.SubCPU] += 400
		}
		observe(m, &s, r)
	}
	st := m.Status()
	if !st.PendingRetrain {
		t.Fatalf("drift not pending: %+v", st)
	}
	if st.Retrains != 0 || st.Swaps != 0 {
		t.Fatalf("retrain ran mid-transition: %+v", st)
	}
	// Once the workload steadies, the held-back retrain proceeds.
	for i := 300; i < 700 && m.Status().Swaps == 0; i++ {
		s := sampleAt(i, n)
		observe(m, &s, railsFor(&s, 0.4))
	}
	if m.Status().Swaps == 0 {
		t.Fatalf("retrain never ran after phases settled: %+v", m.Status())
	}
}

// TestPhaseGateTracksOpenPhase: a staircase opens one phase per step,
// noise inside the band extends the open phase, and settled counts the
// open phase's samples.
func TestPhaseGateTracksOpenPhase(t *testing.T) {
	g := phaseGate{threshold: 10}
	if g.settled(1) {
		t.Fatal("settled before the first sample")
	}
	for i, w := range []float64{150, 155, 146, 190, 192, 240} {
		g.observe(w)
		want := []int{1, 2, 3, 1, 2, 1}[i]
		if g.n != want {
			t.Fatalf("sample %d (%v W): open phase has %d samples, want %d", i, w, g.n, want)
		}
	}
	if g.mean != 240 || !g.settled(1) || g.settled(2) {
		t.Errorf("open phase mean %v, settled(1)=%v settled(2)=%v", g.mean, g.settled(1), g.settled(2))
	}
}

// TestRefitNamesCollinearTerm: a post-drift window with no variance
// cannot be refit, and the rejection names the design term at fault.
func TestRefitNamesCollinearTerm(t *testing.T) {
	champ := trainingChampion(t, 120)
	m, err := New(testConfig(champ))
	if err != nil {
		t.Fatal(err)
	}
	s := sampleAt(5, 97) // the same sample over and over
	for i := 0; i < 120; i++ {
		observe(m, &s, railsFor(&s, 1))
	}
	st := m.Status()
	if st.Alarms == 0 || st.Rejected == 0 || st.Swaps != 0 {
		t.Fatalf("want an alarm and a rejected refit, no swap: %+v", st)
	}
	if want := "column 1 (percent_active)"; !strings.Contains(st.LastAlarm, want) ||
		!strings.HasPrefix(st.LastAlarm, "refit "+power.SubCPU.String()+":") {
		t.Errorf("last alarm %q does not name %s of the CPU model", st.LastAlarm, want)
	}
}

// TestNonFiniteResidualsQuarantined: hostile rails must be counted and
// dropped before they can reach detector or window state.
func TestNonFiniteResidualsQuarantined(t *testing.T) {
	champ := trainingChampion(t, 120)
	m, err := New(testConfig(champ))
	if err != nil {
		t.Fatal(err)
	}
	const n = 97
	for i := 0; i < 20; i++ {
		s := sampleAt(i, n)
		observe(m, &s, railsFor(&s, 0))
	}
	base := m.Status()
	hostile := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0}
	for i, h := range hostile {
		s := sampleAt(i, n)
		var r power.Reading
		r[power.SubCPU] = h
		observe(m, &s, r)
	}
	st := m.Status()
	if st.Quarantined != base.Quarantined+uint64(len(hostile)) {
		t.Errorf("quarantined %d, want %d", st.Quarantined, base.Quarantined+uint64(len(hostile)))
	}
	if st.WindowFill != base.WindowFill {
		t.Errorf("hostile rows entered the window: %d vs %d", st.WindowFill, base.WindowFill)
	}
	if st.Alarms != 0 || st.PendingRetrain {
		t.Errorf("hostile rows raised an alarm: %+v", st)
	}
	// Clean traffic still estimates finitely afterwards.
	s := sampleAt(5, n)
	if tot := m.Champion().Estimate(&s).Total(); math.IsNaN(tot) || math.IsInf(tot, 0) {
		t.Errorf("estimate poisoned: %v", tot)
	}
}

// A window narrower than a production design could never be refit.
func TestNewRejectsWindowBelowDesignWidth(t *testing.T) {
	cfg := testConfig(trainingChampion(t, 120))
	cfg.Window = 4 // the disk model has five columns
	if _, err := New(cfg); err == nil {
		t.Error("window of 4 accepted")
	}
	if _, err := New(Config{}); err == nil {
		t.Error("config without a champion accepted")
	}
}

func TestPageHinkleyEdges(t *testing.T) {
	if _, err := NewPageHinkley(-1, 10); err == nil {
		t.Error("negative delta accepted")
	}
	if _, err := NewPageHinkley(1, 0); err == nil {
		t.Error("zero lambda accepted")
	}
	clean, _ := NewPageHinkley(2, 20)
	dirty, _ := NewPageHinkley(2, 20)
	seq := []float64{1, 2, 1.5, 1, 2, 30, 30, 30, 30, 30, 30}
	var cleanAlarms, dirtyAlarms int
	for _, x := range seq {
		if clean.Observe(x) {
			cleanAlarms++
		}
		// Interleave hostility into the dirty detector.
		dirty.Observe(math.NaN())
		dirty.Observe(math.Inf(1))
		if dirty.Observe(x) {
			dirtyAlarms++
		}
	}
	if cleanAlarms == 0 {
		t.Error("sustained 30s never alarmed")
	}
	if cleanAlarms != dirtyAlarms {
		t.Errorf("NaN interleave changed behavior: %d vs %d alarms", cleanAlarms, dirtyAlarms)
	}
	if dirty.Quarantined() != uint64(2*len(seq)) {
		t.Errorf("quarantined = %d", dirty.Quarantined())
	}
	dirty.Reset()
	if score := dirty.cum - dirty.min; score != 0 {
		t.Errorf("score after reset = %v", score)
	}
	if dirty.Quarantined() != uint64(2*len(seq)) {
		t.Error("reset cleared the lifetime quarantine count")
	}
}

func TestEnvelopeCUSUMEdges(t *testing.T) {
	envs := []core.MetricEnvelope{
		{Name: "a", Mean: 10, Std: 1},
		{Name: "dead", Mean: 5, Std: 0}, // uninformative
	}
	d, err := NewEnvelopeCUSUM(envs, 1, 10)
	if err != nil {
		t.Fatal(err)
	}
	// In-envelope traffic never alarms.
	for i := 0; i < 100; i++ {
		if alarm, _ := d.Observe([]float64{10.5, 999}); alarm {
			t.Fatal("alarm on in-envelope data")
		}
	}
	// Non-finite and wrong-width inputs quarantine without alarming.
	d.Observe([]float64{math.NaN(), 1})
	d.Observe([]float64{1})
	if d.Quarantined() != 2 {
		t.Errorf("quarantined = %d", d.Quarantined())
	}
	// A sustained 5-sigma excursion on the live metric alarms, naming it.
	var fired string
	for i := 0; i < 10; i++ {
		if alarm, name := d.Observe([]float64{15, 0}); alarm {
			fired = name
			break
		}
	}
	if fired != "a" {
		t.Errorf("alarm metric = %q", fired)
	}
	// Empty envelope set: silent forever.
	e, _ := NewEnvelopeCUSUM(nil, 1, 10)
	if alarm, _ := e.Observe([]float64{1e18}); alarm {
		t.Error("nil-envelope detector alarmed")
	}
}

// FuzzPageHinkley feeds hostile residual sequences; the detector must
// never panic, never go non-finite, and must account for every input as
// either accepted or quarantined.
func FuzzPageHinkley(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x7f, 0xf0, 0, 0, 0, 0, 0, 0})                               // +Inf
	f.Add([]byte{0x7f, 0xf8, 0, 0, 0, 0, 0, 1, 0xff, 0xf0, 0, 0, 0, 0, 0, 0}) // NaN, -Inf
	f.Add([]byte{0x40, 0x59, 0, 0, 0, 0, 0, 0, 0x40, 0x59, 0, 0, 0, 0, 0, 0}) // 100, 100
	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := NewPageHinkley(5, 60)
		if err != nil {
			t.Fatal(err)
		}
		var fed, accepted uint64
		for off := 0; off+8 <= len(data); off += 8 {
			var bits uint64
			for b := 0; b < 8; b++ {
				bits = bits<<8 | uint64(data[off+b])
			}
			x := math.Float64frombits(bits)
			fed++
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				accepted++
			}
			d.Observe(x)
			if score := d.cum - d.min; math.IsNaN(score) || math.IsInf(score, 0) {
				t.Fatalf("detector state non-finite after %v", x)
			}
		}
		if d.Quarantined() != fed-accepted {
			t.Fatalf("quarantined %d, want %d", d.Quarantined(), fed-accepted)
		}
	})
}
