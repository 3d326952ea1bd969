package mem

import "testing"

// StepInto overwrites every field of a reused slot, so a slot left dirty
// by a busy slice reads exactly like a fresh Step, on the early-return
// paths too.
func TestStepIntoOverwritesSlot(t *testing.T) {
	m := New()
	busy := Traffic{CPUTx: 0.7 * BusCapacity * slice, PrefetchTx: 9000, DMATx: 4000, WriteFrac: 0.4, DMAWriteFrac: 0.5, Locality: 0.3}
	cases := []struct {
		sliceSec float64
		tr       Traffic
	}{
		{slice, Traffic{CPUTx: 1000, Locality: 0.5}},
		{slice, Traffic{}},
		{slice, Traffic{CPUTx: -5}},
		{0, Traffic{CPUTx: 100}},
	}
	for _, tc := range cases {
		var st Stats
		m.StepInto(&st, slice, &busy)
		m.StepInto(&st, tc.sliceSec, &tc.tr)
		if want := m.Step(tc.sliceSec, tc.tr); st != want {
			t.Errorf("StepInto(%v, %+v) over a dirty slot = %+v, want %+v", tc.sliceSec, tc.tr, st, want)
		}
	}
}

// Serving a slice into a reused slot allocates nothing.
func TestMemoryStepIntoAllocatesNothing(t *testing.T) {
	m := New()
	tr := Traffic{CPUTx: 30000, PrefetchTx: 8000, DMATx: 2000, WriteFrac: 0.3, DMAWriteFrac: 0.5, Locality: 0.45}
	var st Stats
	allocs := testing.AllocsPerRun(1000, func() {
		m.StepInto(&st, slice, &tr)
	})
	if allocs != 0 {
		t.Errorf("Memory.StepInto allocates %.1f per slice, want 0", allocs)
	}
}

// memSink keeps BenchmarkMemoryStep's result live.
var memSink Stats

// BenchmarkMemoryStep is one slice of bus and DRAM service at a
// moderate mixed load.
func BenchmarkMemoryStep(b *testing.B) {
	m := New()
	tr := Traffic{CPUTx: 30000, PrefetchTx: 8000, DMATx: 2000, WriteFrac: 0.3, DMAWriteFrac: 0.5, Locality: 0.45}
	var st Stats
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.StepInto(&st, slice, &tr)
	}
	memSink = st
}
