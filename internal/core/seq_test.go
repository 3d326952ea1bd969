package core

import (
	"errors"
	"math"
	"strings"
	"testing"

	"trickledown/internal/align"
	"trickledown/internal/perfctr"
	"trickledown/internal/power"
)

// TestEWMA checks DiskStandbySpec's recent-activity column: the
// saturated EWMA acc/(acc+0.01) of the disk interrupt rate.
func TestEWMA(t *testing.T) {
	spec := DiskStandbySpec(0.5)
	recency := func(ints []float64) []float64 {
		hist := make([]Metrics, len(ints))
		for i, v := range ints {
			hist[i][SumDiskInts] = v
		}
		out := make([]float64, len(ints))
		for i := range hist {
			out[i] = spec.Design(hist, i)[4]
		}
		return out
	}
	saturate := func(acc float64) float64 { return acc / (acc + 0.01) }
	for i, v := range recency([]float64{10, 10, 10}) {
		if math.Abs(v-saturate(10)) > 1e-12 {
			t.Errorf("constant recency[%d] = %v", i, v)
		}
	}
	// Step decay: after the input drops to zero the average decays
	// geometrically.
	got := recency([]float64{10, 0, 0, 0})
	for i, acc := range []float64{10, 5, 2.5, 1.25} {
		if math.Abs(got[i]-saturate(acc)) > 1e-12 {
			t.Errorf("recency[%d] = %v, want %v", i, got[i], saturate(acc))
		}
	}
}

func TestTrainSeqErrors(t *testing.T) {
	if _, err := TrainSeq(DiskStandbySpec(0.2), nil); !errors.Is(err, ErrNoData) {
		t.Error("nil dataset accepted")
	}
	if _, err := TrainSeq(DiskStandbySpec(0.2), &align.Dataset{}); !errors.Is(err, ErrNoData) {
		t.Error("empty dataset accepted")
	}
	m := &SeqModel{Spec: DiskStandbySpec(0.2), Coef: []float64{1, 0, 0, 0, 0}}
	if _, err := m.Validate(&align.Dataset{}); !errors.Is(err, ErrNoData) {
		t.Error("empty validation accepted")
	}
}

// TrainSeq shares Train's non-finite guard: a NaN rail or an Inf design
// term is refused with ErrNonFinite rather than fitted into NaN
// coefficients.
func TestTrainSeqRejectsNonFinite(t *testing.T) {
	clean := func(i int, s *perfctr.Sample) power.Reading {
		var r power.Reading
		r[power.SubDisk] = 21.6 + float64(i%5)
		return r
	}
	ds := synthDataset(40, clean)
	ds.Rows[7].Power[power.SubDisk] = math.NaN()
	if _, err := TrainSeq(DiskStandbySpec(0.2), ds); !errors.Is(err, ErrNonFinite) {
		t.Errorf("NaN rail: err = %v, want ErrNonFinite", err)
	}

	spec := SeqSpec{
		Name: "inf-term",
		Sub:  power.SubDisk,
		Design: func(hist []Metrics, i int) []float64 {
			x := hist[i][SumDiskInts]
			if i == 9 {
				x = math.Inf(1)
			}
			return []float64{1, x}
		},
		Terms: []string{"const", "ints"},
	}
	_, err := TrainSeq(spec, synthDataset(40, clean))
	if !errors.Is(err, ErrNonFinite) || !strings.Contains(err.Error(), "ints at row 9") {
		t.Errorf("Inf design term: err = %v, want ErrNonFinite naming ints at row 9", err)
	}
}

// A synthetic standby machine: disk power has a rotation floor that
// collapses when there has been no recent disk activity. The stateless
// Eq. 4 cannot express that; the EWMA spec can.
func TestSeqModelLearnsStandby(t *testing.T) {
	build := func(n int, seedPhase int) *align.Dataset {
		ds := &align.Dataset{}
		recent := 0.0
		const alpha = 0.3
		for i := 0; i < n; i++ {
			// Bursts of disk interrupts with long idle stretches.
			ints := 0.0
			if (i+seedPhase)%40 < 12 {
				ints = 0.15 + 0.05*float64((i+seedPhase)%3)
			}
			recent += alpha * (ints - recent)
			dma := 900*ints + 12*float64(i%7)
			s := mkSample(0.5, 1, 50, 300, dma, ints*2)
			// Route the chosen rate into the disk vector only.
			for c := range s.Ints[1] {
				s.Ints[1][c] = uint64(ints * 2.8e9 / 1e6 / 2)
			}
			s.TargetSeconds = float64(i + 1)
			var r power.Reading
			spinning := 0.0
			if recent > 0.01 {
				spinning = 17.7 // rotation floor while recently active
			}
			r[power.SubDisk] = 3.9 + spinning + 8*ints
			ds.Rows = append(ds.Rows, align.Row{Power: r, Counters: s})
		}
		return ds
	}
	train := build(240, 0)
	eval := build(200, 7)

	seq, err := TrainSeq(DiskStandbySpec(0.3), train)
	if err != nil {
		t.Fatal(err)
	}
	flat, err := Train(DiskSpec(), train)
	if err != nil {
		t.Fatal(err)
	}
	seqErr, err := seq.Validate(eval)
	if err != nil {
		t.Fatal(err)
	}
	flatErr, err := flat.Validate(eval)
	if err != nil {
		t.Fatal(err)
	}
	if seqErr >= flatErr/2 {
		t.Errorf("history model %.2f%% should beat stateless %.2f%% decisively", seqErr, flatErr)
	}
	// The step transition is only approximated by the saturating
	// feature, so mid-decay samples keep some error; the point is the
	// decisive win above.
	if seqErr > 45 {
		t.Errorf("history model error %.2f%% too large", seqErr)
	}
}
