package core

import (
	"strings"
	"testing"

	"trickledown/internal/align"
	"trickledown/internal/power"
)

// selDataset builds a dataset whose memory power depends on total bus
// traffic (so the bus model should win over the L3 model when holdout
// traffic includes DMA the L3 counter cannot see).
func selDataset(n int, dmaHeavy bool) *align.Dataset {
	ds := &align.Dataset{}
	for i := 0; i < n; i++ {
		f := float64(i) / float64(n)
		g := float64(i*37%n) / float64(n)
		dma := 0.0
		if dmaHeavy {
			dma = 400 * g
		}
		s := mkSample(0.3+0.7*f, 0.5+2*g, 60+300*g, 300+1200*f, dma, 0.2+f)
		s.TargetSeconds = float64(i + 1)
		m := ExtractMetrics(&s)
		var r power.Reading
		r[power.SubMemory] = 28 + 0.002*m[TotalBus] + 2e-8*m[TotalBus]*m[TotalBus]
		ds.Rows = append(ds.Rows, align.Row{Power: r, Counters: s})
	}
	return ds
}

func TestSelectModelPrefersBusOverL3WithDMA(t *testing.T) {
	train := selDataset(80, true)
	holdout := selDataset(60, true)
	best, ranking, err := SelectModel([]ModelSpec{MemL3Spec(), MemBusSpec()}, train, holdout)
	if err != nil {
		t.Fatal(err)
	}
	if best.Spec.Name != MemBusSpec().Name {
		t.Errorf("selected %s, want the bus model; ranking: %v", best.Spec.Name, ranking)
	}
	if len(ranking) != 2 {
		t.Fatalf("ranking len = %d", len(ranking))
	}
	if ranking[0].Err > ranking[1].Err {
		t.Error("ranking not sorted by holdout error")
	}
	if !strings.Contains(ranking[0].String(), "holdout") {
		t.Errorf("candidate String = %q", ranking[0])
	}
}

func TestSelectModelValidation(t *testing.T) {
	ds := selDataset(40, false)
	if _, _, err := SelectModel(nil, ds, ds); err == nil {
		t.Error("no candidates accepted")
	}
	if _, _, err := SelectModel([]ModelSpec{MemBusSpec()}, ds); err == nil {
		t.Error("no holdouts accepted")
	}
	if _, _, err := SelectModel([]ModelSpec{MemBusSpec(), DiskSpec()}, ds, ds); err == nil {
		t.Error("mixed-subsystem candidates accepted")
	}
}

func TestSelectModelSurvivesFailingCandidate(t *testing.T) {
	// A degenerate dataset (constant inputs) makes quadratic candidates
	// singular; the constant chipset model still trains.
	ds := &align.Dataset{}
	s := mkSample(0.5, 1, 10, 10, 10, 1)
	for i := 0; i < 10; i++ {
		s2 := s
		s2.TargetSeconds = float64(i + 1)
		var r power.Reading
		r[power.SubChipset] = 19.9
		ds.Rows = append(ds.Rows, align.Row{Power: r, Counters: s2})
	}
	// Chipset constant (trains) vs a fabricated always-singular spec.
	bad := ModelSpec{
		Name: "degenerate",
		Sub:  power.SubChipset,
		Design: func(d []float64, m *Metrics) {
			d[0], d[1] = 1, 1 // collinear with the intercept
		},
		Terms: []string{"a", "b"},
	}
	best, ranking, err := SelectModel([]ModelSpec{bad, ChipsetSpec()}, ds, ds)
	if err != nil {
		t.Fatal(err)
	}
	if best.Spec.Name != ChipsetSpec().Name {
		t.Errorf("selected %s", best.Spec.Name)
	}
	if ranking[len(ranking)-1].Failure == nil {
		t.Error("failed candidate not ranked last")
	}
	if !strings.Contains(ranking[len(ranking)-1].String(), "FAILED") {
		t.Errorf("failure String = %q", ranking[len(ranking)-1])
	}
}

func TestSelectModelAllFail(t *testing.T) {
	ds := &align.Dataset{}
	s := mkSample(0.5, 1, 10, 10, 10, 1)
	var r power.Reading
	ds.Rows = append(ds.Rows, align.Row{Power: r, Counters: s})
	bad := ModelSpec{
		Name: "degenerate",
		Sub:  power.SubChipset,
		Design: func(d []float64, m *Metrics) {
			d[0], d[1] = 1, 1
		},
		Terms: []string{"a", "b"},
	}
	if _, _, err := SelectModel([]ModelSpec{bad}, ds, ds); err == nil {
		t.Error("all-failing candidates accepted")
	}
}

// TestCandidateLists checks each list is the paper's candidates: one
// subsystem, and no extension such as the write-mix memory model.
func TestCandidateLists(t *testing.T) {
	for name, list := range map[string][]ModelSpec{
		"memory": MemoryCandidates(),
		"disk":   DiskCandidates(),
		"io":     IOCandidates(),
	} {
		if len(list) < 2 {
			t.Errorf("%s candidates = %d", name, len(list))
		}
		sub := list[0].Sub
		for _, spec := range list {
			if spec.Sub != sub {
				t.Errorf("%s candidates mix subsystems", name)
			}
			if spec.Name == MemBusRWSpec().Name {
				t.Errorf("%s candidates include the write-mix extension", name)
			}
		}
	}
}
