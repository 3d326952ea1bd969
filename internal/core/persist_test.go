package core

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"trickledown/internal/perfctr"
	"trickledown/internal/power"
)

func trainedEstimator(t testing.TB) *Estimator {
	t.Helper()
	ds := synthDataset(60, func(i int, s *perfctr.Sample) power.Reading {
		m := ExtractMetrics(s)
		var r power.Reading
		r[power.SubCPU] = 9*m[NumCPUs] + 25*m[SumActive] + 4*m[SumUPC]
		r[power.SubChipset] = 19.9
		r[power.SubMemory] = 28 + 0.001*m[TotalBus]
		r[power.SubIO] = 32.7 + m[SumInts]
		r[power.SubDisk] = 21.6 + m[SumDiskInts]
		return r
	})
	est, err := TrainEstimator(TrainingSet{CPU: ds, Memory: ds, Disk: ds, IO: ds, Chipset: ds})
	if err != nil {
		t.Fatal(err)
	}
	return est
}

func TestSaveLoadRoundTrip(t *testing.T) {
	est := trainedEstimator(t)
	var buf bytes.Buffer
	if err := est.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadEstimator(&buf)
	if err != nil {
		t.Fatal(err)
	}
	s := mkSample(0.7, 1.4, 150, 800, 60, 1.2)
	a := est.Estimate(&s)
	b := loaded.Estimate(&s)
	for i := range a {
		if math.Abs(a[i]-b[i]) > 1e-12 {
			t.Errorf("subsystem %d: %v != %v after round trip", i, a[i], b[i])
		}
	}
	// Training diagnostics survive.
	if loaded.Model(power.SubCPU).Fit == nil {
		t.Error("fit diagnostics lost")
	}
}

func TestSaveLoadProvenance(t *testing.T) {
	est := trainedEstimator(t)
	est.SetProvenance(&Provenance{
		SchemaVersion: ProvenanceSchemaVersion,
		Version:       "train-deadbeef00000000",
		TrainedAt:     "2026-08-08T00:00:00Z",
		Fingerprint:   "deadbeef00000000",
		Envelopes:     []MetricEnvelope{{Name: "percent_active", Mean: 1.2, Std: 0.3}},
		Reason:        "offline-train",
	})
	var buf bytes.Buffer
	if err := est.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"trickledown-models/2"`) {
		t.Error("Save did not emit the v2 format header")
	}
	loaded, err := LoadEstimator(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	p := loaded.Provenance()
	if p == nil {
		t.Fatal("provenance lost in round trip")
	}
	if p.Version != "train-deadbeef00000000" || p.Fingerprint != "deadbeef00000000" ||
		p.Reason != "offline-train" || len(p.Envelopes) != 1 || p.Envelopes[0].Std != 0.3 {
		t.Errorf("provenance mangled: %+v", p)
	}
	if !strings.Contains(p.String(), "train-deadbeef00000000") {
		t.Errorf("String() = %q", p.String())
	}

	// A v1 file (no provenance block) still loads, with nil provenance.
	var plain bytes.Buffer
	if err := trainedEstimator(t).Save(&plain); err != nil {
		t.Fatal(err)
	}
	v1 := strings.Replace(plain.String(), "trickledown-models/2", "trickledown-models/1", 1)
	legacy, err := LoadEstimator(strings.NewReader(v1))
	if err != nil {
		t.Fatalf("v1 load: %v", err)
	}
	if legacy.Provenance() != nil {
		t.Error("v1 file grew provenance from nowhere")
	}
}

// rejectedModelFiles returns model files LoadEstimator must reject,
// keyed by what is wrong with each.
func rejectedModelFiles(t testing.TB) map[string]string {
	t.Helper()
	var saved bytes.Buffer
	if err := trainedEstimator(t).Save(&saved); err != nil {
		t.Fatal(err)
	}
	label := func(s power.Subsystem) string { return `"subsystem": "` + s.String() + `"` }
	mislabeled := strings.Replace(saved.String(), label(power.SubCPU), label(power.SubDisk), 1)
	if mislabeled == saved.String() {
		t.Fatalf("saved file carries no %s label:\n%s", label(power.SubCPU), saved.String())
	}
	return map[string]string{
		"not json":             "pfff",
		"wrong format":         `{"format":"other/9","models":[]}`,
		"unknown spec":         `{"format":"trickledown-models/1","models":[{"spec":"nope","coef":[1]}]}`,
		"bad width":            `{"format":"trickledown-models/1","models":[{"spec":"cpu (Eq.1)","coef":[1]}]}`,
		"incomplete":           `{"format":"trickledown-models/1","models":[]}`,
		"mislabeled subsystem": mislabeled,
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	for name, in := range rejectedModelFiles(t) {
		if _, err := LoadEstimator(strings.NewReader(in)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// FuzzLoadEstimator feeds arbitrary bytes to LoadEstimator: it never
// panics, and any file it accepts saves, loads and saves again to the
// same bytes.
func FuzzLoadEstimator(f *testing.F) {
	var saved bytes.Buffer
	if err := trainedEstimator(f).Save(&saved); err != nil {
		f.Fatal(err)
	}
	f.Add(saved.Bytes())
	f.Add([]byte(strings.Replace(saved.String(), formatName, formatNameV1, 1)))
	for _, in := range rejectedModelFiles(f) {
		f.Add([]byte(in))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		est, err := LoadEstimator(bytes.NewReader(data))
		if err != nil {
			return
		}
		var first, second bytes.Buffer
		if err := est.Save(&first); err != nil {
			t.Fatalf("saving an accepted file: %v", err)
		}
		back, err := LoadEstimator(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("loading its own save: %v\n%s", err, first.Bytes())
		}
		if err := back.Save(&second); err != nil {
			t.Fatalf("saving the reloaded estimator: %v", err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("save, load, save changed the file:\n%s\nthen\n%s", first.Bytes(), second.Bytes())
		}
	})
}

func TestSpecRegistry(t *testing.T) {
	if len(specRegistry) < 11 {
		t.Fatalf("registry has %d specs", len(specRegistry))
	}
	for n := range specRegistry {
		spec, err := SpecByName(n)
		if err != nil {
			t.Errorf("SpecByName(%q): %v", n, err)
			continue
		}
		if spec.Name != n {
			t.Errorf("spec %q reports name %q", n, spec.Name)
		}
		// TestBatchDesignMatchesRowReference holds each Design to
		// exactly len(Terms) columns, the width LoadEstimator checks.
		if len(spec.Terms) == 0 {
			t.Errorf("%s: no design terms", n)
		}
	}
	if _, err := SpecByName("bogus"); err == nil {
		t.Error("unknown spec accepted")
	}
}

func TestWritebackShare(t *testing.T) {
	// One processor over a million cycles: counts are per-Mcycle rates.
	share := func(bus, l3all, l3load uint64) float64 {
		s := perfctr.Sample{CPUs: []perfctr.CPUCounts{{Cycles: 1e6, BusTx: bus, L3Misses: l3all, L3LoadMisses: l3load}}}
		m := ExtractMetrics(&s)
		return m[WBShare]
	}
	if got := share(1000, 700, 400); math.Abs(got-0.3) > 1e-12 {
		t.Errorf("WBShare = %v, want 0.3", got)
	}
	// Clamps.
	if got := share(0, 700, 400); got != 0 {
		t.Errorf("no-traffic share = %v", got)
	}
	if got := share(1000, 100, 400); got != 0 { // less than loads: clamp at 0
		t.Errorf("negative wb share = %v", got)
	}
	if got := share(1000, 5000, 0); got != 1 {
		t.Errorf("overrange wb share = %v", got)
	}
}
