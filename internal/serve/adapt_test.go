package serve

import (
	"fmt"
	"math"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"trickledown/internal/adapt"
	"trickledown/internal/align"
	"trickledown/internal/core"
	"trickledown/internal/iobus"
	"trickledown/internal/perfctr"
	"trickledown/internal/power"
	"trickledown/internal/sim"
	"trickledown/internal/tracez"
)

// adaptSample builds a deterministic 2-CPU sample whose rates sweep
// with i — the adapt package's drill generator, reproduced here so the
// serve-level wiring is tested with the same regime the manager's own
// tests prove out.
func adaptSample(i, n int) perfctr.Sample {
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

func adaptSum(v []float64) float64 {
	t := 0.0
	for _, x := range v {
		t += x
	}
	return t
}

// adaptRails synthesizes measured rails; shift scales the activity
// coefficients away from the shift-0 training regime.
func adaptRails(s *perfctr.Sample, shift float64) power.Reading {
	m := core.ExtractMetrics(s)
	k := 1 + shift
	var r power.Reading
	r[power.SubCPU] = 9.25*float64(m.NumCPUs) + k*26.45*adaptSum(m.PercentActive) + k*4.31*adaptSum(m.UopsPerCycle)
	r[power.SubChipset] = 19.0
	busTot := m.TotalBusPMC()
	r[power.SubMemory] = 28 + k*0.018*busTot + 2e-6*busTot*busTot
	ints := adaptSum(m.IntsPMC)
	r[power.SubIO] = 32.7 + k*1.1*ints + 0.04*ints*ints
	di := adaptSum(m.DiskIntsPMC)
	var dm float64
	if len(m.DMAPMC) > 0 {
		dm = adaptSum(m.DMAPMC) / float64(len(m.DMAPMC))
	}
	r[power.SubDisk] = 21.6 + k*2.0*di + 0.05*di*di + 0.002*dm + 1e-6*dm*dm
	return r
}

// adaptChampion fits the production estimator on the shift-0 regime.
func adaptChampion(t testing.TB) *core.Estimator {
	t.Helper()
	const n = 120
	ds := &align.Dataset{Rows: make([]align.Row, n)}
	for i := 0; i < n; i++ {
		s := adaptSample(i, n)
		ds.Rows[i] = align.Row{Power: adaptRails(&s, 0), Counters: s}
	}
	est, err := core.TrainEstimator(core.TrainingSet{CPU: ds, Memory: ds, Disk: ds, IO: ds, Chipset: ds})
	if err != nil {
		t.Fatal(err)
	}
	est.SetProvenance(&core.Provenance{
		SchemaVersion: core.ProvenanceSchemaVersion,
		Version:       "train-test-corpus",
		Fingerprint:   "test-corpus",
		Envelopes:     core.ComputeEnvelopes(ds),
		Reason:        "offline-train",
	})
	return est
}

func adaptManagerConfig(champ *core.Estimator) adapt.Config {
	return adapt.Config{
		Champion:        champ,
		Window:          60,
		EnvelopeBudgetZ: 1e12,
		RollbackDepth:   3,
		GuardWindow:     25,
		Cooldown:        10,
		PhaseThresholdW: 1000,
		PhaseSettle:     2,
		Seed:            7,
	}
}

// feedAdaptDrill streams pre samples of the training regime then post
// drifted ones through Ingest in small batches, waiting for the
// worker to drain each so manager decisions are ordered.
func feedAdaptDrill(t *testing.T, s *Server, pre, post int, shift float64) {
	t.Helper()
	const n, chunk = 97, 25
	total := pre + post
	for start := 0; start < total; start += chunk {
		end := start + chunk
		if end > total {
			end = total
		}
		samples := make([]perfctr.Sample, 0, end-start)
		rails := make([]power.Reading, 0, end-start)
		for i := start; i < end; i++ {
			smp := adaptSample(i, n)
			sh := 0.0
			if i >= pre {
				sh = shift
			}
			rails = append(rails, adaptRails(&smp, sh))
			samples = append(samples, smp)
		}
		if err := s.Ingest("drill", "node0", samples, rails, tracez.Context{}); err != nil {
			t.Fatalf("Ingest at %d: %v", start, err)
		}
		waitEstimated(t, s, uint64(end))
	}
}

func waitEstimated(t *testing.T, s *Server, want uint64) {
	t.Helper()
	waitFor(t, fmt.Sprintf("%d estimated samples", want), func() bool { return s.estimated.Load() >= want })
}

// TestAdapterHotSwapsServingModel drives the full drill through the
// service: rails-bearing ingest feeds drift detection, the promoted
// challenger lands behind the atomic estimator pointer, and /driftz and
// /statz report the change.
func TestAdapterHotSwapsServingModel(t *testing.T) {
	champ := adaptChampion(t)
	s := newServer(t, Config{Estimator: champ, Workers: 1, QueueDepth: 64})
	m, err := adapt.New(adaptManagerConfig(champ))
	if err != nil {
		t.Fatal(err)
	}
	s.SetAdapter(m)

	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	// Before any drift: /driftz live, version is the trained champion's.
	if got := httpGet(t, ts.URL+"/driftz", 200); !strings.Contains(got, `"active_version": "train-test-corpus"`) {
		t.Errorf("/driftz before drill: %s", got)
	}
	if st := s.Stats(); st.ModelVersion != "train-test-corpus" {
		t.Errorf("ModelVersion = %q", st.ModelVersion)
	}

	feedAdaptDrill(t, s, 100, 300, 0.4)

	status := m.Status()
	if status.Swaps == 0 {
		t.Fatalf("no swap after drifted ingest: %+v", status)
	}
	if s.est.Load() != m.Champion() {
		t.Error("serving estimator diverged from manager champion")
	}
	st := s.Stats()
	if st.ModelVersion == "train-test-corpus" || st.ModelVersion == "unversioned" {
		t.Errorf("ModelVersion %q did not follow the swap", st.ModelVersion)
	}
	if got := httpGet(t, ts.URL+"/driftz", 200); !strings.Contains(got, `"swaps": `+fmt.Sprint(status.Swaps)) {
		t.Errorf("/driftz after drill: %s", got)
	}
	// The swapped-in model serves finite, drift-accurate estimates.
	const n = 97
	var adaptiveErr float64
	for i := 0; i < n; i++ {
		smp := adaptSample(i, n)
		truth := adaptRails(&smp, 0.4).Total()
		got := s.est.Load().Estimate(&smp).Total()
		if math.IsNaN(got) || math.IsInf(got, 0) {
			t.Fatalf("non-finite estimate after swap at %d", i)
		}
		adaptiveErr += math.Abs(got-truth) / truth * 100
	}
	if adaptiveErr/n >= 9 {
		t.Errorf("post-swap estimator err %.2f%% breaches the paper bound", adaptiveErr/n)
	}
}

// TestAdapterSwapMidBatchServesTheRest: when the adapter swaps the
// champion while observing a sample in the middle of a batch, that
// sample and every later one in the batch are estimated by the new
// champion. The drill is deterministic, so a dry run of the same
// manager finds the sample that triggers the swap, and the batch is cut
// around it.
func TestAdapterSwapMidBatchServesTheRest(t *testing.T) {
	const n, pre, shift = 97, 100, 0.4
	sampleRails := func(i int) (perfctr.Sample, power.Reading) {
		smp := adaptSample(i, n)
		sh := 0.0
		if i >= pre {
			sh = shift
		}
		return smp, adaptRails(&smp, sh)
	}
	champ := adaptChampion(t)
	dry, err := adapt.New(adaptManagerConfig(champ))
	if err != nil {
		t.Fatal(err)
	}
	swapAt := -1
	for i := 0; i < 1000 && swapAt < 0; i++ {
		smp, r := sampleRails(i)
		dry.Observe(&smp, r)
		if dry.Status().Swaps > 0 {
			swapAt = i
		}
	}
	if swapAt < 0 {
		t.Fatal("dry run never swapped")
	}
	lo, hi := swapAt-5, swapAt+6
	for i := swapAt + 1; i < hi; i++ {
		smp, r := sampleRails(i)
		dry.Observe(&smp, r)
	}
	if st := dry.Status(); st.Swaps != 1 || st.Rollbacks != 0 {
		t.Fatalf("dry run by sample %d: %d swaps, %d rollbacks; want exactly one swap", hi, st.Swaps, st.Rollbacks)
	}

	s := newServer(t, Config{Estimator: champ, Workers: 1, QueueDepth: 64})
	m, err := adapt.New(adaptManagerConfig(champ))
	if err != nil {
		t.Fatal(err)
	}
	s.SetAdapter(m)
	ingest := func(from, to int) {
		samples := make([]perfctr.Sample, 0, to-from)
		rails := make([]power.Reading, 0, to-from)
		for i := from; i < to; i++ {
			smp, r := sampleRails(i)
			samples = append(samples, smp)
			rails = append(rails, r)
		}
		if err := s.Ingest("drill", "node0", samples, rails, tracez.Context{}); err != nil {
			t.Fatalf("Ingest [%d, %d): %v", from, to, err)
		}
		waitEstimated(t, s, uint64(to))
	}
	for from := 0; from < lo; from += 25 {
		ingest(from, min(from+25, lo))
	}
	if m.Status().Swaps != 0 {
		t.Fatal("swapped before the batch that should straddle the swap")
	}
	ingest(lo, hi)
	if st := m.Status(); st.Swaps != 1 || st.Rollbacks != 0 {
		t.Fatalf("%d swaps, %d rollbacks after the straddling batch", st.Swaps, st.Rollbacks)
	}
	next := s.est.Load()
	if next == champ || next != m.Champion() {
		t.Fatal("serving estimator did not follow the swap")
	}
	last, _ := sampleRails(hi - 1)
	want, old := next.Estimate(&last), champ.Estimate(&last)
	if want == old {
		t.Fatal("old and new champion agree on the last sample; the test cannot tell them apart")
	}
	np, ok := s.NodePower("node0")
	if !ok {
		t.Fatal("node missing")
	}
	for _, sub := range power.Subsystems() {
		if got := np.Power[sub.String()]; got != want[sub] {
			t.Errorf("%s: last sample estimated %v, new champion reads %v (old %v)", sub, got, want[sub], old[sub])
		}
	}
}

// TestObserveResidualMatchesExtractAndBatch: one 256-sample railed
// batch swaps the champion and then rolls the swap back. Every residual
// Observe computes on the way is, bit for bit, the Eq. 6 error of its
// champion's ExtractMetricsAtInto plus EstimateBatch reading of that
// sample: the old champion's on the sample that swaps, the challenger's
// on the sample that rolls back. A dry-run manager observes the batch
// sample by sample to show each residual; a worker's process, fed the
// same batch, must leave its live manager in the dry run's state.
func TestObserveResidualMatchesExtractAndBatch(t *testing.T) {
	const n, period, pre = core.BatchSize, 97, 50
	champ := adaptChampion(t)
	// The batch is the training regime, then a 0.4 shift until the
	// manager swaps, then a 2.5 shift until it rolls back, then the
	// training regime again. The dry run finds where those land, and
	// records the champion each sample is observed with and the residual
	// of the sample before.
	dry, err := adapt.New(adaptManagerConfig(champ))
	if err != nil {
		t.Fatal(err)
	}
	samples := make([]perfctr.Sample, n)
	rails := make([]power.Reading, n)
	champs := make([]*core.Estimator, n)
	lastErr := make([]float64, n)
	shift := 0.0
	for i := range samples {
		st := dry.Status()
		switch {
		case st.Rollbacks > 0:
			shift = 0
		case st.Swaps > 0:
			shift = 2.5
		case i == pre:
			shift = 0.4
		}
		samples[i] = adaptSample(i, period)
		rails[i] = adaptRails(&samples[i], shift)
		champs[i], lastErr[i] = dry.Champion(), st.LastErrPct
		dry.Observe(&samples[i], rails[i])
	}
	want := dry.Status()
	if want.Swaps == 0 || want.Rollbacks == 0 || want.Quarantined != 0 {
		t.Fatalf("dry run: %d swaps, %d rollbacks, %d quarantined; want a swap and a rollback inside the batch", want.Swaps, want.Rollbacks, want.Quarantined)
	}
	resid := append(lastErr[1:], want.LastErrPct)
	var met [1]core.Metrics
	var est [1]power.Reading
	var cols core.Columns
	challenged := 0
	for i := range samples {
		c := champs[i]
		if c != champ {
			challenged++
		}
		core.ExtractMetricsAtInto(&met[0], &samples[i], sim.DefaultCoreHz)
		c.EstimateBatch(est[:], met[:], &cols)
		truth := rails[i].Total()
		want := math.Abs(est[0].Total()-truth) / math.Abs(truth) * 100
		if math.Float64bits(resid[i]) != math.Float64bits(want) {
			t.Fatalf("sample %d: Observe's residual %v, champion %s's extract+batch %v",
				i, resid[i], c.Provenance().Version, want)
		}
	}
	if challenged == 0 {
		t.Fatal("no sample was observed by the challenger")
	}

	s, err := New(Config{Estimator: champ})
	if err != nil {
		t.Fatal(err)
	}
	m, err := adapt.New(adaptManagerConfig(champ))
	if err != nil {
		t.Fatal(err)
	}
	s.SetAdapter(m)
	now := time.Now()
	s.process(&batch{node: "n", samples: samples, rails: rails, arrived: now, queued: now}, new(workerScratch), 0)

	got := m.Status()
	if math.Float64bits(got.LastErrPct) != math.Float64bits(want.LastErrPct) {
		t.Errorf("process left LastErrPct %v, the dry run %v", got.LastErrPct, want.LastErrPct)
	}
	got.LastErrPct, want.LastErrPct = 0, 0
	if got != want {
		t.Errorf("process left status %+v, the dry run %+v", got, want)
	}
	for _, sub := range power.Subsystems() {
		g, w := m.Champion().Model(sub).Coef, dry.Champion().Model(sub).Coef
		if len(g) != len(w) {
			t.Fatalf("%s: champion has %d coefficients, the dry run's %d", sub, len(g), len(w))
		}
		for k := range g {
			if math.Float64bits(g[k]) != math.Float64bits(w[k]) {
				t.Errorf("%s coefficient %d: champion %v, the dry run's %v", sub, k, g[k], w[k])
			}
		}
	}
}

// TestLongBatchEstimatesEveryChunk: a batch longer than two estimation
// chunks is estimated to its end; the node's reading is the last
// sample's.
func TestLongBatchEstimatesEveryChunk(t *testing.T) {
	est := testEstimator(t)
	s := newServer(t, Config{Estimator: est, Workers: 1, QueueDepth: 8})
	batch := mkBatch(2*core.BatchSize+3, 2, 11)
	if err := s.Ingest("c", "n", batch, nil, tracez.Context{}); err != nil {
		t.Fatal(err)
	}
	waitEstimated(t, s, uint64(len(batch)))
	last := &batch[len(batch)-1]
	for i := range batch[:len(batch)-1] {
		if batch[i].TargetSeconds >= last.TargetSeconds {
			t.Fatalf("sample %d is not older than the last", i)
		}
	}
	want := est.Estimate(last)
	if est.Estimate(&batch[2*core.BatchSize-1]) == want {
		t.Fatal("the last two chunks end on equal estimates; the test cannot tell them apart")
	}
	np, _ := s.NodePower("n")
	for _, sub := range power.Subsystems() {
		if got := np.Power[sub.String()]; got != want[sub] {
			t.Errorf("%s = %v, want the last sample's %v", sub, got, want[sub])
		}
	}
}

// BenchmarkProcessRails is a worker's path for one 256-sample batch
// carrying rails under a live adapter: one Observe per sample (the
// champion's estimate, the envelope rates, detectors, window copy),
// then the chunked batch estimate. The rails match the champion's
// regime, so no alarm or refit runs.
func BenchmarkProcessRails(b *testing.B) {
	const n = 256
	champ := adaptChampion(b)
	s, err := New(Config{Estimator: champ})
	if err != nil {
		b.Fatal(err)
	}
	mgr, err := adapt.New(adaptManagerConfig(champ))
	if err != nil {
		b.Fatal(err)
	}
	s.SetAdapter(mgr)
	samples := make([]perfctr.Sample, n)
	rails := make([]power.Reading, n)
	for i := range samples {
		samples[i] = adaptSample(i, n)
		rails[i] = adaptRails(&samples[i], 0)
	}
	sc := new(workerScratch)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// A batch that arrived just now: one at the zero time would be a
		// slow-trace outlier, and the benchmark would time its trace.
		now := time.Now()
		s.process(&batch{node: "n", samples: samples, rails: rails, arrived: now, queued: now}, sc, 0)
	}
	b.StopTimer()
	if st := mgr.Status(); st.Retrains != 0 || st.Swaps != 0 {
		b.Fatalf("steady regime refit %d times and swapped %d", st.Retrains, st.Swaps)
	}
}

// TestAdapterNegativeControl: a corrupted challenger must be rejected
// by the shadow gate and never reach the serving pointer.
func TestAdapterNegativeControl(t *testing.T) {
	champ := adaptChampion(t)
	s := newServer(t, Config{Estimator: champ, Workers: 1, QueueDepth: 64})
	cfg := adaptManagerConfig(champ)
	cfg.ChallengerHook = func(c *core.Estimator) *core.Estimator {
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
	m, err := adapt.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.SetAdapter(m)

	feedAdaptDrill(t, s, 100, 300, 0.4)

	status := m.Status()
	if status.Swaps != 0 {
		t.Fatalf("corrupted challenger swapped in: %+v", status)
	}
	if status.Rejected == 0 {
		t.Fatalf("gate never exercised: %+v", status)
	}
	if s.est.Load() != champ {
		t.Error("serving estimator changed despite rejection")
	}
	if st := s.Stats(); st.ModelVersion != "train-test-corpus" {
		t.Errorf("ModelVersion = %q after rejected challengers", st.ModelVersion)
	}
}

// TestDriftzWithoutAdapter: the endpoint must 404 (not 500, not empty
// 200) when adaptation is off.
func TestDriftzWithoutAdapter(t *testing.T) {
	s := newServer(t, Config{Estimator: testEstimator(t), Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	httpGet(t, ts.URL+"/driftz", 404)
}

// tracked returns the number of client buckets l currently holds.
func tracked(l *rateLimiter) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.m)
}

// TestRateLimiterEvictsIdleFirst is the deterministic half of the
// churn regression: with a synthetic clock, cycling more distinct
// clients than the table holds must keep the table bounded and evict
// long-idle identities before recently-active ones.
func TestRateLimiterEvictsIdleFirst(t *testing.T) {
	l := newRateLimiter(1000, 1000)
	l.maxClients = 16
	t0 := time.Unix(1000, 0)
	if !l.allow("steady", 1, t0) {
		t.Fatal("steady client rejected from idle")
	}
	for i := 0; i < 100; i++ {
		now := t0.Add(time.Duration(i+1) * time.Second)
		l.allow(fmt.Sprintf("churn-%d", i), 1, now)
		// The steady client keeps touching its bucket, so its last-use is
		// always the newest and eviction must never pick it.
		if !l.allow("steady", 1, now) {
			t.Fatalf("steady client rate-limited at churn %d", i)
		}
		if got := tracked(l); got > l.maxClients {
			t.Fatalf("table grew to %d (> %d) at churn %d", got, l.maxClients, i)
		}
	}
	l.mu.Lock()
	_, steadyAlive := l.m["steady"]
	_, oldChurnAlive := l.m["churn-0"]
	l.mu.Unlock()
	if !steadyAlive {
		t.Error("active client evicted")
	}
	if oldChurnAlive {
		t.Error("oldest idle client survived 100 churn rounds in a 16-entry table")
	}
}

// TestRateLimiterChurnConcurrent is the -race half: concurrent
// identity churn well past the table bound must stay bounded and
// data-race free.
func TestRateLimiterChurnConcurrent(t *testing.T) {
	l := newRateLimiter(1e9, 1e9)
	l.maxClients = 64
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				l.allow(fmt.Sprintf("g%d-c%d", g, i), 1, time.Now())
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 2000; i++ {
			l.allow("steady", 1, time.Now())
		}
	}()
	wg.Wait()
	if got := tracked(l); got > l.maxClients {
		t.Errorf("table at %d after churn (bound %d)", got, l.maxClients)
	}
}
