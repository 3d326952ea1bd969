package experiments

import (
	"math"
	"strings"
	"sync"
	"testing"

	"trickledown/internal/core"
	"trickledown/internal/power"
)

// testRunner runs everything at reduced scale so the whole suite stays
// fast; assertions are correspondingly loose — they check shape, not
// calibration (cmd/tdreport regenerates the full-scale tables).
func testRunner() *Runner {
	return NewRunner(Options{Seed: 100, TrainSeed: 10, Scale: 0.35})
}

func TestTable1Shape(t *testing.T) {
	r := testRunner()
	tab, err := r.Table1()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 12 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	idle := tab.Row("idle")
	gcc := tab.Row("gcc")
	dbt := tab.Row("dbt-2")
	dl := tab.Row("diskload")
	if idle == nil || gcc == nil || dbt == nil || dl == nil {
		t.Fatal("missing rows")
	}
	// Idle is ~46% of peak total; CPU dominates for SPEC; dbt-2 barely
	// above idle; DiskLoad has the highest I/O and disk power.
	if idle.Ours[5] > 160 || idle.Ours[5] < 120 {
		t.Errorf("idle total = %v", idle.Ours[5])
	}
	if gcc.Ours[0] < 0.5*gcc.Ours[5] {
		t.Errorf("gcc CPU share = %v of %v, want >53%%", gcc.Ours[0], gcc.Ours[5])
	}
	if dbt.Ours[0] > 70 {
		t.Errorf("dbt-2 CPU power = %v, should idle waiting for disk", dbt.Ours[0])
	}
	for _, row := range tab.Rows {
		if row.Workload == "diskload" {
			continue
		}
		if row.Ours[3] > dl.Ours[3]+0.1 {
			t.Errorf("%s I/O power %v exceeds diskload %v", row.Workload, row.Ours[3], dl.Ours[3])
		}
		if row.Ours[4] > dl.Ours[4]+0.05 {
			t.Errorf("%s disk power %v exceeds diskload %v", row.Workload, row.Ours[4], dl.Ours[4])
		}
	}
	// Disk swing across all workloads stays within a few percent (the
	// no-spindown server-disk property).
	if dl.Ours[4] > idle.Ours[4]*1.05 {
		t.Errorf("disk power swing too large: %v vs idle %v", dl.Ours[4], idle.Ours[4])
	}
}

func TestTable2Shape(t *testing.T) {
	r := testRunner()
	tab, err := r.Table2()
	if err != nil {
		t.Fatal(err)
	}
	jbb := tab.Row("specjbb")
	art := tab.Row("art")
	if jbb == nil || art == nil {
		t.Fatal("missing rows")
	}
	// SPECjbb's warehouse ramp is the highest-variance CPU workload;
	// art is among the steadiest.
	if jbb.Ours[0] < 10 {
		t.Errorf("specjbb CPU stddev = %v, want large", jbb.Ours[0])
	}
	if art.Ours[0] > 1.5 {
		t.Errorf("art CPU stddev = %v, want small", art.Ours[0])
	}
	if jbb.Ours[0] < 10*art.Ours[0] {
		t.Errorf("specjbb (%v) should dwarf art (%v)", jbb.Ours[0], art.Ours[0])
	}
}

func TestTables3And4Shape(t *testing.T) {
	r := testRunner()
	t3, err := r.Table3()
	if err != nil {
		t.Fatal(err)
	}
	t4, err := r.Table4()
	if err != nil {
		t.Fatal(err)
	}
	if len(t3.Rows) != len(IntegerWorkloads())+1 {
		t.Fatalf("table 3 rows = %d", len(t3.Rows))
	}
	if len(t4.Rows) != len(FPWorkloads())+1 {
		t.Fatalf("table 4 rows = %d", len(t4.Rows))
	}
	// Headline: every subsystem's average error is below the paper's 9%.
	avg := t3.Row("average")
	for j, s := range power.Subsystems() {
		if avg.Ours[j] > 9 {
			t.Errorf("table 3 average %s error = %v%%, headline is <9%%", s, avg.Ours[j])
		}
	}
	avg4 := t4.Row("average")
	for j, s := range power.Subsystems() {
		if avg4.Ours[j] > 9 {
			t.Errorf("table 4 average %s error = %v%%", s, avg4.Ours[j])
		}
	}
	// mcf is the worst CPU row (the fetch model misses speculative
	// search power).
	mcf := t3.Row("mcf")
	if mcf.Ours[0] < 5 {
		t.Errorf("mcf CPU error = %v%%, expected the paper's pathology (>5%%)", mcf.Ours[0])
	}
	for _, row := range append(t3.Rows, t4.Rows...) {
		if row.Workload == "mcf" || row.Workload == "average" {
			continue
		}
		if row.Ours[0] > mcf.Ours[0] {
			t.Errorf("%s CPU error %v%% exceeds mcf's %v%%", row.Workload, row.Ours[0], mcf.Ours[0])
		}
	}
	// I/O and disk models stay comfortably accurate everywhere.
	for _, row := range append(t3.Rows, t4.Rows...) {
		if row.Ours[3] > 4 {
			t.Errorf("%s I/O error = %v%%", row.Workload, row.Ours[3])
		}
		if row.Ours[4] > 2 {
			t.Errorf("%s disk error = %v%%", row.Workload, row.Ours[4])
		}
	}
	// Memory: the bus model is best on its training workload.
	if t3.Row("mcf").Ours[2] > 2 {
		t.Errorf("mcf memory error = %v%%, should be near-training quality", t3.Row("mcf").Ours[2])
	}
}

func TestTableLayout(t *testing.T) {
	r := testRunner()
	tab, err := r.Table1()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(tab.Title, "Table 1") {
		t.Errorf("title = %q", tab.Title)
	}
	if n := len(tab.Columns); n != power.NumSubsystems+1 || tab.Columns[n-1] != "Total" {
		t.Errorf("columns = %v, want the five rails and Total", tab.Columns)
	}
	dl := tab.Row("diskload")
	if dl == nil || len(dl.Ours) != len(tab.Columns) || len(dl.Paper) != len(tab.Columns) {
		t.Errorf("diskload row = %+v, want ours and paper values for every column", dl)
	}
	if tab.Row("nope") != nil {
		t.Error("Row(nope) should be nil")
	}
}

func TestEquationsShape(t *testing.T) {
	r := testRunner()
	eqs, err := r.Equations()
	if err != nil {
		t.Fatal(err)
	}
	if len(eqs) != 6 {
		t.Fatalf("equations = %d", len(eqs))
	}
	joined := strings.Join(eqs, "\n")
	for _, want := range []string{"Eq.1", "Eq.2", "Eq.3", "Eq.4", "Eq.5", "const"} {
		if !strings.Contains(joined, want) {
			t.Errorf("equations missing %q:\n%s", want, joined)
		}
	}
}

func TestFigures(t *testing.T) {
	r := testRunner()
	for name, get := range map[string]func() (*Figure, error){
		"fig2": r.Figure2, "fig3": r.Figure3, "fig5": r.Figure5,
		"fig5l3": r.Figure5L3, "fig6": r.Figure6, "fig7": r.Figure7,
	} {
		f, err := get()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		measured, modeled := f.Values("Measured"), f.Values("Modeled")
		if len(f.Series) != 2 || len(measured) != len(modeled) {
			t.Errorf("%s: series %d, want Measured and Modeled of one length", name, len(f.Series))
		}
		if len(measured) < 20 {
			t.Errorf("%s: only %d samples", name, len(measured))
		}
		if f.AvgErr < 0 || f.AvgErr > 60 {
			t.Errorf("%s: avg error = %v%%", name, f.AvgErr)
		}
	}
}

func TestFigureErrorsTrackPaper(t *testing.T) {
	r := testRunner()
	f2, err := r.Figure2()
	if err != nil {
		t.Fatal(err)
	}
	if f2.AvgErr > 8 {
		t.Errorf("figure 2 error = %v%%, paper reports 3.1%%", f2.AvgErr)
	}
	f5, err := r.Figure5()
	if err != nil {
		t.Fatal(err)
	}
	if f5.AvgErr > 6 {
		t.Errorf("figure 5 error = %v%%, paper reports 2.2%%", f5.AvgErr)
	}
	f7, err := r.Figure7()
	if err != nil {
		t.Fatal(err)
	}
	if f7.AvgErr > 4 {
		t.Errorf("figure 7 error = %v%%, paper reports <1%%", f7.AvgErr)
	}
}

func TestFigure4PrefetchGrowth(t *testing.T) {
	r := NewRunner(Options{Seed: 100, TrainSeed: 10, Scale: 0.15})
	f, err := r.Figure4()
	if err != nil {
		t.Fatal(err)
	}
	pf, np, all := f.Values("Prefetch"), f.Values("Non-Prefetch"), f.Values("All")
	n := len(pf)
	if n == 0 || len(np) != n || len(all) != n {
		t.Fatalf("series lengths %d, %d, %d", len(pf), len(np), len(all))
	}
	if !math.IsNaN(f.AvgErr) {
		t.Errorf("Figure 4 has no model, but AvgErr = %v", f.AvgErr)
	}
	// Prefetch share of traffic grows from the early ramp to the
	// saturated tail — the paper's model-failure signature.
	early := pf[n/6] / (all[n/6] + 1e-9)
	late := pf[n-2] / (all[n-2] + 1e-9)
	if late <= early {
		t.Errorf("prefetch share did not grow: %v -> %v", early, late)
	}
	for i := range pf {
		total := pf[i] + np[i]
		if diff := total - all[i]; diff > 0.02*all[i]+1 || diff < -0.02*all[i]-1 {
			t.Errorf("sample %d: prefetch+nonprefetch = %v, all = %v", i, total, all[i])
		}
	}
}

// TestModelSelectionSimulatesNothingNew builds the selection table after
// the runs the tables and models make: every training and holdout run it
// needs must come from the runner's cache. It also checks that selection
// lands on the paper's Eq. 3, Eq. 4 and Eq. 5.
func TestModelSelectionSimulatesNothingNew(t *testing.T) {
	r := testRunner()
	for _, get := range []func() (*Table, error){r.Table1, r.Table2, r.Table3, r.Table4} {
		if _, err := get(); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := r.Estimator(); err != nil {
		t.Fatal(err)
	}
	if _, err := r.MemL3Model(); err != nil {
		t.Fatal(err)
	}
	misses := mCacheMisses.Value()
	sels, err := r.ModelSelection()
	if err != nil {
		t.Fatal(err)
	}
	if got := mCacheMisses.Value() - misses; got != 0 {
		t.Errorf("model selection ran %d simulations of its own", got)
	}
	want := map[string]string{
		"memory": core.MemBusSpec().Name, "disk": core.DiskSpec().Name, "io": core.IOSpec().Name,
	}
	if len(sels) != len(want) {
		t.Fatalf("selections = %d, want %d", len(sels), len(want))
	}
	for _, s := range sels {
		if best := s.Ranking[0]; best.Failure != nil || best.Model.Spec.Name != want[s.Subsystem] {
			t.Errorf("%s selection ranked %v first, want %s", s.Subsystem, best, want[s.Subsystem])
		}
	}
}

func TestRunnerCaching(t *testing.T) {
	r := testRunner()
	a, err := r.dataset("idle", 30, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.dataset("idle", 30, 1)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("identical runs not cached")
	}
	c, err := r.dataset("idle", 30, 2)
	if err != nil {
		t.Fatal(err)
	}
	if a == c {
		t.Error("different seeds shared a cache entry")
	}
}

// TestRunnerCacheKeyPrecision is the regression test for the cache-key
// collision: two specs whose staggers (and durations) round to the same
// integer must still get distinct cache entries. At Scale=0.01 the
// paper-order staggers 30s and 90s become 0.3 and 0.9 — both formerly
// printed as "0" by the %.0f key.
func TestRunnerCacheKeyPrecision(t *testing.T) {
	r := NewRunner(Options{Seed: 100, TrainSeed: 10, Scale: 0.01})
	specA, err := r.scaledSpec("gcc")
	if err != nil {
		t.Fatal(err)
	}
	specB := specA
	specA.StaggerSec = 0.3
	specB.StaggerSec = 0.9
	if datasetKey(specA, 30, 1) == datasetKey(specB, 30, 1) {
		t.Fatalf("distinct staggers share cache key %q", datasetKey(specA, 30, 1))
	}
	a, err := r.datasetSpec(specA, 30, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.datasetSpec(specB, 30, 1)
	if err != nil {
		t.Fatal(err)
	}
	if a == b {
		t.Error("distinct staggers shared one cached trace")
	}
	// Sub-second durations must not collide either (30.2 vs 30.4 both
	// rounded to "30").
	c, err := r.datasetSpec(specA, 30.2, 1)
	if err != nil {
		t.Fatal(err)
	}
	d, err := r.datasetSpec(specA, 30.4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if c == d {
		t.Error("distinct durations shared one cached trace")
	}
	// Identical parameters still share.
	e, err := r.datasetSpec(specA, 30, 1)
	if err != nil {
		t.Fatal(err)
	}
	if e != a {
		t.Error("identical spec not cached")
	}
}

// TestRunnerConcurrentTraining exercises the lazy Estimator/MemL3Model
// init from many goroutines at once — the race fixed by sync.Once; it is
// meaningful under -race. All callers must observe the same trained
// models.
func TestRunnerConcurrentTraining(t *testing.T) {
	r := NewRunner(Options{Seed: 100, TrainSeed: 10, Scale: 0.05, Workers: 4})
	const callers = 8
	ests := make([]interface{}, callers)
	mems := make([]interface{}, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			est, err := r.Estimator()
			if err != nil {
				t.Error(err)
				return
			}
			m, err := r.MemL3Model()
			if err != nil {
				t.Error(err)
				return
			}
			ests[i] = est
			mems[i] = m
		}(i)
	}
	wg.Wait()
	for i := 1; i < callers; i++ {
		if ests[i] != ests[0] {
			t.Errorf("caller %d saw a different estimator", i)
		}
		if mems[i] != mems[0] {
			t.Errorf("caller %d saw a different L3 model", i)
		}
	}
}

// TestTablesConcurrent regenerates two tables from concurrent
// goroutines, the table-generation pattern that used to race on the
// lazy estimator init; meaningful under -race.
func TestTablesConcurrent(t *testing.T) {
	r := NewRunner(Options{Seed: 100, TrainSeed: 10, Scale: 0.05, Workers: 4})
	var wg sync.WaitGroup
	for _, get := range []func() (*Table, error){r.Table3, r.Table4} {
		wg.Add(1)
		go func(get func() (*Table, error)) {
			defer wg.Done()
			if _, err := get(); err != nil {
				t.Error(err)
			}
		}(get)
	}
	wg.Wait()
}

func TestRunnerBadWorkload(t *testing.T) {
	r := testRunner()
	if _, err := r.dataset("nope", 30, 1); err == nil {
		t.Error("unknown workload accepted")
	}
	if _, err := r.validation("nope"); err == nil {
		t.Error("unknown workload accepted")
	}
}

func TestDurationFloor(t *testing.T) {
	r := NewRunner(Options{Scale: 0.0001})
	if d := r.duration(390); d != 30 {
		t.Errorf("duration floor = %v", d)
	}
	if NewRunner(Options{}).opt.Scale != 1 {
		t.Error("zero scale not defaulted")
	}
}

func TestExtensions(t *testing.T) {
	r := testRunner()
	comps := r.Extensions()
	if err := r.CellErrors(); err != nil {
		t.Fatal(err)
	}
	if len(comps) != 3 {
		t.Fatalf("extensions = %d", len(comps))
	}
	for _, c := range comps {
		if c.BaselineErr < 0 || c.VariantErr < 0 {
			t.Errorf("%s: negative error", c.Name)
		}
		if c.String() == "" {
			t.Error("empty comparison string")
		}
	}
	// The three headline directions: DVFS-aware beats fixed-frequency,
	// history beats stateless on spindown hardware, counters beat OS
	// utilization.
	if comps[0].VariantErr >= comps[0].BaselineErr {
		t.Errorf("DVFS: %s", comps[0])
	}
	if comps[1].VariantErr >= comps[1].BaselineErr {
		t.Errorf("spindown: %s", comps[1])
	}
	if comps[2].VariantErr >= comps[2].BaselineErr {
		t.Errorf("os-util: %s", comps[2])
	}
}
