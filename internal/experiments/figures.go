package experiments

import (
	"math"

	"trickledown/internal/align"
	"trickledown/internal/core"
	"trickledown/internal/power"
	"trickledown/internal/stats"
	"trickledown/internal/telemetry"
)

// Series is one named figure series at the paper's 1 Hz sampling rate,
// indexed by second.
type Series struct {
	Name   string
	Values []float64
}

// Figure is one regenerated trace figure: its series (measured and
// modeled power for a model figure) plus the Equation 6 average error
// over the trace, with the paper's reported error for comparison.
// Figure 4, a sweep with no model, has a NaN AvgErr.
type Figure struct {
	Title    string
	Series   []Series
	AvgErr   float64
	PaperErr float64
}

// Values returns the named series' samples, or nil if the figure has
// no such series.
func (f *Figure) Values(name string) []float64 {
	for _, s := range f.Series {
		if s.Name == name {
			return s.Values
		}
	}
	return nil
}

// modelFigure builds a measured-vs-modeled figure for one model over one
// workload run. If sustained is true the run is extended by the
// instance-ramp time and the ramp cropped away, reproducing the paper's
// mid-run trace windows for the DiskLoad figures.
func (r *Runner) modelFigure(title, wl string, seconds float64, m *core.Model, dcRemove float64, sustained bool) (*Figure, error) {
	spec, err := r.scaledSpec(wl)
	if err != nil {
		return nil, err
	}
	run := r.duration(seconds)
	skip := 0
	if sustained {
		skip = int(float64(spec.Instances-1)*spec.StaggerSec + 30*r.opt.Scale)
		if skip < 10 {
			skip = 10
		}
		run += float64(skip)
	}
	ds, err := r.dataset(wl, run, r.opt.Seed)
	if err != nil {
		return nil, err
	}
	return figureFromDataset(title, ds.Skip(skip), m, dcRemove)
}

// figureFromDataset renders a measured-vs-modeled figure over an
// existing dataset.
func figureFromDataset(title string, ds *align.Dataset, m *core.Model, dcRemove float64) (*Figure, error) {
	measured, modeled := m.Trace(ds)
	var avg float64
	var err error
	if dcRemove > 0 {
		avg, err = stats.AverageErrorOffset(modeled, measured, dcRemove)
	} else {
		avg, err = stats.AverageError(modeled, measured)
	}
	if err != nil {
		return nil, err
	}
	return &Figure{
		Title:  title,
		Series: []Series{{"Measured", measured}, {"Modeled", modeled}},
		AvgErr: avg,
	}, nil
}

// Figure2 regenerates "Four CPU Power Model - gcc": the Equation 1 model
// over eight gcc threads started at 30-second intervals.
func (r *Runner) Figure2() (*Figure, error) {
	defer telemetry.StartSpan("experiments.figure2").End()
	est, err := r.Estimator()
	if err != nil {
		return nil, err
	}
	f, err := r.modelFigure("Figure 2: Four CPU Power Model (Eq.1) - gcc", "gcc", 390,
		est.Model(power.SubCPU), 0, false)
	if err != nil {
		return nil, err
	}
	f.PaperErr = PaperFigure2Err
	return f, nil
}

// Figure3 regenerates "Memory Power Model (L3 Misses) - mesa": the
// Equation 2 model on mesa's instance staircase.
func (r *Runner) Figure3() (*Figure, error) {
	defer telemetry.StartSpan("experiments.figure3").End()
	l3, err := r.MemL3Model()
	if err != nil {
		return nil, err
	}
	f, err := r.modelFigure("Figure 3: Memory Power Model (L3 Misses, Eq.2) - mesa", "mesa", 830, l3, 0, false)
	if err != nil {
		return nil, err
	}
	f.PaperErr = PaperFigure3Err
	return f, nil
}

// Figure4 regenerates "Prefetch and Non-Prefetch Bus Transactions -
// mcf": per-second bus transactions per million cycles, split into all,
// non-prefetch and prefetch, over a long staggered mcf run. The paper
// uses it to show why the L3-miss model fails: past the point where all
// hardware threads are busy, prefetch traffic keeps growing while
// demand-miss traffic does not.
func (r *Runner) Figure4() (*Figure, error) {
	defer telemetry.StartSpan("experiments.figure4").End()
	ds, err := r.mcfLong()
	if err != nil {
		return nil, err
	}
	n := len(ds.Rows)
	all, nonPf, pf := make([]float64, n), make([]float64, n), make([]float64, n)
	for i := range ds.Rows {
		m := core.ExtractMetrics(&ds.Rows[i].Counters)
		all[i], pf[i] = m[core.SumBusTx], m[core.SumPrefetch]
		nonPf[i] = all[i] - pf[i]
	}
	return &Figure{
		Title:  "Figure 4: Prefetch and Non-Prefetch Bus Transactions - mcf (tx per Mcycle)",
		Series: []Series{{"All", all}, {"Non-Prefetch", nonPf}, {"Prefetch", pf}},
		AvgErr: math.NaN(),
	}, nil
}

// Figure5 regenerates "Memory Power Model (Memory Bus Transactions) -
// mcf": the Equation 3 model over the same long mcf run that defeats the
// L3-miss model.
func (r *Runner) Figure5() (*Figure, error) {
	defer telemetry.StartSpan("experiments.figure5").End()
	est, err := r.Estimator()
	if err != nil {
		return nil, err
	}
	ds, err := r.mcfLong()
	if err != nil {
		return nil, err
	}
	f, err := figureFromDataset("Figure 5: Memory Power Model (Bus Transactions, Eq.3) - mcf", ds,
		est.Model(power.SubMemory), 0)
	if err != nil {
		return nil, err
	}
	f.PaperErr = PaperFigure5Err
	return f, nil
}

// Figure5L3 applies the Equation 2 L3-miss model to the same mcf run —
// the failure the paper describes in Section 4.2.2 ("the model fails
// under extreme cases"). It is not a numbered figure in the paper but
// quantifies the narrative between Figures 3 and 5.
func (r *Runner) Figure5L3() (*Figure, error) {
	defer telemetry.StartSpan("experiments.figure5_l3").End()
	l3, err := r.MemL3Model()
	if err != nil {
		return nil, err
	}
	ds, err := r.mcfLong()
	if err != nil {
		return nil, err
	}
	return figureFromDataset("Figure 5 (companion): L3-miss model applied to mcf", ds, l3, 0)
}

// Figure6 regenerates "Disk Power Model (DMA+Interrupt) - Synthetic Disk
// Workload": the Equation 4 model over DiskLoad, with the paper's
// DC-offset-removed error metric.
func (r *Runner) Figure6() (*Figure, error) {
	defer telemetry.StartSpan("experiments.figure6").End()
	est, err := r.Estimator()
	if err != nil {
		return nil, err
	}
	f, err := r.modelFigure("Figure 6: Disk Power Model (DMA+Interrupt, Eq.4) - DiskLoad", "diskload", 190,
		est.Model(power.SubDisk), power.DiskIdlePower(2), true)
	if err != nil {
		return nil, err
	}
	f.PaperErr = PaperFigure6Err
	return f, nil
}

// Figure7 regenerates "I/O Power Model (Interrupt) - Synthetic Disk
// Workload": the Equation 5 model over DiskLoad (raw error; the paper
// notes the DC-removed error is far larger).
func (r *Runner) Figure7() (*Figure, error) {
	defer telemetry.StartSpan("experiments.figure7").End()
	est, err := r.Estimator()
	if err != nil {
		return nil, err
	}
	f, err := r.modelFigure("Figure 7: I/O Power Model (Interrupt, Eq.5) - DiskLoad", "diskload", 190,
		est.Model(power.SubIO), 0, true)
	if err != nil {
		return nil, err
	}
	f.PaperErr = PaperFigure7Err
	return f, nil
}
