package iobus

import "testing"

func TestAPICCountAndMatrix(t *testing.T) {
	a := NewAPIC(3)
	if a.numCPUs != 3 {
		t.Fatalf("numCPUs = %d", a.numCPUs)
	}
	a.RaiseLocal(VecTimer, 0, 4)
	a.RaiseLocal(VecDisk, 2, 7)
	a.Raise(VecNIC, 3) // round robin: cpus 0,1,2

	if got := a.matrix[VecTimer][0]; got != 4 {
		t.Errorf("timer deliveries to cpu 0 = %d", got)
	}
	if got := a.matrix[VecDisk][2]; got != 7 {
		t.Errorf("disk deliveries to cpu 2 = %d", got)
	}
	if got := a.matrix[VecDisk][0]; got != 0 {
		t.Errorf("disk deliveries to cpu 0 = %d", got)
	}

	m := a.Matrix()
	if len(m) != NumVectors {
		t.Fatalf("matrix rows = %d", len(m))
	}
	var total uint64
	for _, row := range m {
		if len(row) != 3 {
			t.Fatalf("matrix cols = %d", len(row))
		}
		for _, v := range row {
			total += v
		}
	}
	if total != 4+7+3 {
		t.Errorf("matrix total = %d, want 14", total)
	}
	// Matrix must be a copy.
	m[0][0] = 999
	if a.matrix[VecTimer][0] != 4 {
		t.Error("Matrix returned a live reference")
	}
}

func TestDMAStatsZeroValue(t *testing.T) {
	var e DMAEngine
	e.Transfer(128, true)
	st := e.DrainSlice()
	if st.Transfers != 1 || st.Bytes != 128 {
		t.Errorf("zero-value engine stats = %+v", st)
	}
}
