package experiments

import (
	"context"
	"fmt"
	"math"

	"trickledown/internal/align"
	"trickledown/internal/core"
	"trickledown/internal/power"
	"trickledown/internal/stats"
	"trickledown/internal/telemetry"
	"trickledown/internal/workload"
)

// Table is one regenerated paper table, with the published values kept
// alongside for comparison.
type Table struct {
	// Title names the experiment.
	Title string
	// Columns are the value column headers (after the workload column).
	Columns []string
	// Rows holds one entry per workload, in paper order.
	Rows []TableRow
}

// TableRow pairs our measured values with the paper's for one workload.
type TableRow struct {
	Workload string
	Ours     []float64
	Paper    []float64
}

// Row returns the row for a workload, or nil.
func (t *Table) Row(name string) *TableRow {
	for i := range t.Rows {
		if t.Rows[i].Workload == name {
			return &t.Rows[i]
		}
	}
	return nil
}

// subsystemColumns names the five rails in table order.
func subsystemColumns() []string {
	out := make([]string, 0, power.NumSubsystems)
	for _, s := range power.Subsystems() {
		out = append(out, s.String())
	}
	return out
}

// Shared read-only column headers and row order, built once instead of
// per table.
var (
	subsysCols      = subsystemColumns()
	subsysTotalCols = append(subsystemColumns(), "Total")
	tableNames      = workload.TableOrder()
)

// sustainedWindow returns the first dataset row index at which all of a
// workload's staggered instances are running (plus settling time),
// clamped so at least the last third of the trace is always used.
func sustainedWindow(spec workload.Spec, rows int) int {
	ramp := int(float64(spec.Instances-1)*spec.StaggerSec) + 30
	if lim := rows * 2 / 3; ramp > lim {
		ramp = lim
	}
	if ramp < 0 {
		ramp = 0
	}
	return ramp
}

// naRow is a full-width failed row: every cell NaN, rendered "n/a".
func naRow() []float64 {
	row := make([]float64, power.NumSubsystems)
	for i := range row {
		row[i] = math.NaN()
	}
	return row
}

// characterize runs every workload (in parallel on the runner's worker
// pool) and applies fn to the sustained window of each subsystem's
// measured power series. The result is indexed like workload.TableOrder.
// Each item writes only its own slot, so the result is independent of
// scheduling order. A workload whose run fails degrades to an n/a row
// (recorded in CellErrors) instead of losing the whole table.
func (r *Runner) characterize(fn func([]float64) float64) ([][]float64, error) {
	names := tableNames
	// One backing slab for every workload's row: each worker writes only
	// its own non-overlapping window, and the table build downstream never
	// appends through these slices.
	backing := make([]float64, len(names)*power.NumSubsystems)
	vals := make([][]float64, len(names))
	for i := range vals {
		vals[i] = backing[i*power.NumSubsystems : (i+1)*power.NumSubsystems : (i+1)*power.NumSubsystems]
	}
	naFill := func(row []float64) {
		for j := range row {
			row[j] = math.NaN()
		}
	}
	err := r.p.Run(context.Background(), len(names), func(_ context.Context, i int) error {
		name := names[i]
		spec, err := r.scaledSpec(name)
		if err != nil {
			naFill(vals[i])
			r.recordCellErr(fmt.Errorf("experiments: characterizing %s: %w", name, err))
			return nil
		}
		ds, err := r.validation(name)
		if err != nil {
			naFill(vals[i])
			r.recordCellErr(fmt.Errorf("experiments: characterizing %s: %w", name, err))
			return nil
		}
		// Trim the warmup window without Skip's heap-allocated dataset:
		// a stack value over the shared rows is all the column
		// extraction needs.
		win := align.Dataset{Rows: ds.Rows[sustainedWindow(spec, ds.Len()):]}
		var col []float64 // one scratch column, reused across subsystems
		for j, s := range power.Subsystems() {
			col = win.PowerColumnInto(s, col)
			vals[i][j] = fn(col)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return vals, nil
}

// Table1 regenerates "Subsystem Average Power (Watts)", including the
// total column. Averages are taken over the sustained window (all
// instances running); the paper's long looped runs make its averages
// sustained too.
func (r *Runner) Table1() (*Table, error) {
	defer telemetry.StartSpan("experiments.table1").End()
	means, err := r.characterize(stats.Mean)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:   "Table 1: Subsystem Average Power (Watts)",
		Columns: subsysTotalCols,
	}
	names := tableNames
	t.Rows = make([]TableRow, 0, len(names))
	// Both value series of every row carved from one slab; the full-cap
	// reslices keep later appends from clobbering earlier rows.
	cols := power.NumSubsystems + 1
	slab := make([]float64, 0, 2*cols*len(names))
	carve := func(vals []float64, extra float64) []float64 {
		start := len(slab)
		slab = append(slab, vals...)
		slab = append(slab, extra)
		return slab[start:len(slab):len(slab)]
	}
	for k, name := range names {
		ours := means[k]
		total := 0.0
		for _, v := range ours {
			total += v
		}
		paper := PaperTable1[name]
		t.Rows = append(t.Rows, TableRow{
			Workload: name,
			Ours:     carve(ours, total),
			Paper:    carve(paper[:], PaperTable1Total[name]),
		})
	}
	return t, nil
}

// Table2 regenerates "Subsystem Power Standard Deviation (Watts)".
func (r *Runner) Table2() (*Table, error) {
	defer telemetry.StartSpan("experiments.table2").End()
	sds, err := r.characterize(stats.StdDev)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:   "Table 2: Subsystem Power Standard Deviation (Watts)",
		Columns: subsysCols,
	}
	names := tableNames
	t.Rows = make([]TableRow, 0, len(names))
	for k, name := range names {
		paper := PaperTable2[name]
		t.Rows = append(t.Rows, TableRow{Workload: name, Ours: sds[k], Paper: paper[:]})
	}
	return t, nil
}

// modelErrors validates the trained estimator on one workload, returning
// the Equation 6 average error (percent) per subsystem.
func (r *Runner) modelErrors(name string) ([]float64, error) {
	est, err := r.Estimator()
	if err != nil {
		return nil, err
	}
	ds, err := r.validation(name)
	if err != nil {
		return nil, err
	}
	out := make([]float64, 0, power.NumSubsystems)
	for _, s := range power.Subsystems() {
		e, err := est.Model(s).Validate(ds)
		if err != nil {
			return nil, fmt.Errorf("experiments: validating %s on %s: %w", s, name, err)
		}
		out = append(out, e)
	}
	return out, nil
}

// errorTable builds a validation-error table for the given workloads,
// validating them in parallel on the runner's worker pool (training
// happens once, up front). Rows land at their workload's index, so the
// table order is the paper's regardless of scheduling. A workload whose
// validation fails degrades to an n/a row (recorded in CellErrors); the
// per-subsystem averages are taken over the rows that computed. Only a
// training failure — nothing to validate anything against — fails the
// whole table.
func (r *Runner) errorTable(title string, names []string, paper map[string][5]float64) (*Table, error) {
	if _, err := r.Estimator(); err != nil {
		return nil, err
	}
	t := &Table{Title: title, Columns: subsysCols}
	t.Rows = make([]TableRow, len(names))
	err := r.p.Run(context.Background(), len(names), func(_ context.Context, i int) error {
		name := names[i]
		ours, err := r.modelErrors(name)
		if err != nil {
			ours = naRow()
			r.recordCellErr(err)
		}
		row := TableRow{Workload: name, Ours: ours}
		if p, ok := paper[name]; ok {
			row.Paper = p[:]
		}
		t.Rows[i] = row
		return nil
	})
	if err != nil {
		return nil, err
	}
	// Per-subsystem averages over the rows that computed.
	avg := TableRow{Workload: "average"}
	avg.Ours = make([]float64, power.NumSubsystems)
	avg.Paper = make([]float64, power.NumSubsystems)
	for j := 0; j < power.NumSubsystems; j++ {
		good := 0
		for _, row := range t.Rows {
			if !math.IsNaN(row.Ours[j]) {
				avg.Ours[j] += row.Ours[j]
				good++
			}
			if len(row.Paper) > j {
				avg.Paper[j] += row.Paper[j] / float64(len(names))
			}
		}
		if good > 0 {
			avg.Ours[j] /= float64(good)
		} else {
			avg.Ours[j] = math.NaN()
		}
	}
	t.Rows = append(t.Rows, avg)
	return t, nil
}

// IntegerWorkloads lists Table 3's rows in paper order.
func IntegerWorkloads() []string {
	return []string{"idle", "gcc", "mcf", "vortex", "dbt-2", "specjbb", "diskload"}
}

// FPWorkloads lists Table 4's rows in paper order.
func FPWorkloads() []string {
	return []string{"art", "lucas", "mesa", "mgrid", "wupwise"}
}

// Table3 regenerates "Integer Average Model Error (%)".
func (r *Runner) Table3() (*Table, error) {
	defer telemetry.StartSpan("experiments.table3").End()
	return r.errorTable("Table 3: Integer Average Model Error (%)", IntegerWorkloads(), PaperTable3)
}

// Table4 regenerates "Floating-Point Average Model Error (%)".
func (r *Runner) Table4() (*Table, error) {
	defer telemetry.StartSpan("experiments.table4").End()
	return r.errorTable("Table 4: Floating-Point Average Model Error (%)", FPWorkloads(), PaperTable4)
}

// Selection is one subsystem's Section 3.3.1 model selection: every
// candidate event set trained on one run and ranked by its mean
// Equation 6 error over the holdout runs.
type Selection struct {
	Subsystem string
	Train     string
	Holdouts  []string
	// Ranking is core.SelectModel's, best first: its first entry is the
	// selected model.
	Ranking []core.Candidate
}

// ModelSelection reproduces the paper's Section 3.3.1 choices of Eq. 3
// for memory, Eq. 4 for disk and Eq. 5 for I/O over their rejected
// alternatives. It reuses runs the tables and models already simulate:
// the memory candidates train on mesa, the Eq. 2 training run, and the
// disk and I/O candidates on diskload, the Eq. 4/5 training run; the
// holdouts are validation runs.
func (r *Runner) ModelSelection() ([]Selection, error) {
	defer telemetry.StartSpan("experiments.selection").End()
	var out []Selection
	for _, sel := range []struct {
		sub, train string
		trainSec   float64
		specs      []core.ModelSpec
		holdouts   []string
	}{
		{"memory", "mesa", 600, core.MemoryCandidates(), []string{"mcf", "lucas"}},
		{"disk", "diskload", 300, core.DiskCandidates(), []string{"dbt-2", "diskload"}},
		{"io", "diskload", 300, core.IOCandidates(), []string{"dbt-2", "diskload"}},
	} {
		train, err := r.dataset(sel.train, r.duration(sel.trainSec), r.opt.TrainSeed)
		if err != nil {
			return nil, err
		}
		holdouts := make([]*align.Dataset, len(sel.holdouts))
		for i, name := range sel.holdouts {
			if holdouts[i], err = r.validation(name); err != nil {
				return nil, err
			}
		}
		_, ranking, err := core.SelectModel(sel.specs, train, holdouts...)
		if err != nil {
			return nil, fmt.Errorf("experiments: %s model selection: %w", sel.sub, err)
		}
		out = append(out, Selection{Subsystem: sel.sub, Train: sel.train, Holdouts: sel.holdouts, Ranking: ranking})
	}
	return out, nil
}
