package iobus

import (
	"strings"
	"testing"
	"testing/quick"
)

// vectorCount returns the cumulative delivery count for vector v (the
// /proc/interrupts number).
func vectorCount(a *APIC, v Vector) uint64 {
	if v < 0 || v >= numVectors {
		return 0
	}
	var t uint64
	for _, n := range a.matrix[v] {
		t += n
	}
	return t
}

func TestAPICRoundRobin(t *testing.T) {
	a := NewAPIC(4)
	a.Raise(VecDisk, 8)
	perCPU, total := a.DrainSlice()
	if total != 8 {
		t.Fatalf("total = %d", total)
	}
	for i, n := range perCPU {
		if n != 2 {
			t.Errorf("cpu %d got %d interrupts, want 2", i, n)
		}
	}
}

func TestAPICDrainResets(t *testing.T) {
	a := NewAPIC(2)
	a.Raise(VecDisk, 3)
	a.DrainSlice()
	perCPU, total := a.DrainSlice()
	if total != 0 {
		t.Errorf("second drain total = %d", total)
	}
	for _, n := range perCPU {
		if n != 0 {
			t.Error("per-CPU counts not reset")
		}
	}
	// Cumulative counts survive the drain.
	if vectorCount(a, VecDisk) != 3 {
		t.Errorf("vectorCount = %d", vectorCount(a, VecDisk))
	}
}

func TestAPICLocalDelivery(t *testing.T) {
	a := NewAPIC(4)
	a.RaiseLocal(VecTimer, 2, 5)
	perCPU, total := a.DrainSlice()
	if total != 5 || perCPU[2] != 5 || perCPU[0] != 0 {
		t.Errorf("local delivery: perCPU=%v total=%d", perCPU, total)
	}
	if a.matrix[VecTimer][2] != 5 {
		t.Errorf("timer deliveries to cpu 2 = %d", a.matrix[VecTimer][2])
	}
}

func TestAPICIgnoresBadInput(t *testing.T) {
	a := NewAPIC(2)
	a.Raise(Vector(-1), 5)
	a.Raise(Vector(99), 5)
	a.Raise(VecDisk, 0)
	a.Raise(VecDisk, -3)
	a.RaiseLocal(VecTimer, -1, 5)
	a.RaiseLocal(VecTimer, 7, 5)
	if _, total := a.DrainSlice(); total != 0 {
		t.Errorf("bad input delivered %d interrupts", total)
	}
	if vectorCount(a, Vector(99)) != 0 {
		t.Error("out-of-range queries nonzero")
	}
}

func TestAPICPanicsWithoutCPUs(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewAPIC(0) did not panic")
		}
	}()
	NewAPIC(0)
}

func TestVectorString(t *testing.T) {
	if VecDisk.String() != "scsi" || VecTimer.String() != "timer" {
		t.Error("vector names wrong")
	}
	if !strings.Contains(Vector(42).String(), "42") {
		t.Errorf("unknown vector String = %q", Vector(42).String())
	}
}

func TestDMATransferAccounting(t *testing.T) {
	e := NewDMAEngine()
	e.Transfer(64*1024, true)
	e.Transfer(64*1024, false)
	st := e.DrainSlice()
	if st.Transfers != 2 {
		t.Errorf("Transfers = %d", st.Transfers)
	}
	if st.Bytes != 128*1024 {
		t.Errorf("Bytes = %v", st.Bytes)
	}
	if st.WriteBytes != 64*1024 {
		t.Errorf("WriteBytes = %v", st.WriteBytes)
	}
	// 2 * (1024/0.9 lines + 4 overhead)
	want := 2 * (64*1024/float64(CacheLine)/writeCombineEfficiency + dmaOverheadTx)
	if st.BusTx != want {
		t.Errorf("BusTx = %v, want %v", st.BusTx, want)
	}
}

func TestDMADrainResets(t *testing.T) {
	e := NewDMAEngine()
	e.Transfer(4096, true)
	e.DrainSlice()
	if st := e.DrainSlice(); st != (DMAStats{}) {
		t.Errorf("second drain = %+v", st)
	}
}

func TestDMAIgnoresNonPositive(t *testing.T) {
	e := NewDMAEngine()
	e.Transfer(0, true)
	e.Transfer(-100, false)
	if st := e.DrainSlice(); st != (DMAStats{}) {
		t.Errorf("bad transfers counted: %+v", st)
	}
}

func TestSmallTransfersCostMorePerByte(t *testing.T) {
	big := NewDMAEngine()
	big.Transfer(1<<20, true)
	bigTx := big.DrainSlice().BusTx

	small := NewDMAEngine()
	for i := 0; i < 1<<20/512; i++ {
		small.Transfer(512, true)
	}
	smallTx := small.DrainSlice().BusTx
	if smallTx <= bigTx {
		t.Errorf("same payload in small transfers should cost more bus tx: %v <= %v", smallTx, bigTx)
	}
}

func TestSubsystemNew(t *testing.T) {
	s := New(4)
	if s.APIC == nil || s.DMA == nil {
		t.Fatal("subsystem incomplete")
	}
}

// Property: interrupts are conserved — per-vector cumulative totals equal
// per-CPU cumulative totals for any raise sequence.
func TestInterruptConservation(t *testing.T) {
	f := func(raises []uint8) bool {
		a := NewAPIC(4)
		for _, r := range raises {
			v := Vector(int(r) % NumVectors)
			n := int(r%7) + 1
			if r%2 == 0 {
				a.Raise(v, n)
			} else {
				a.RaiseLocal(v, int(r)%4, n)
			}
		}
		var byVec, byCPU uint64
		for v := 0; v < NumVectors; v++ {
			byVec += vectorCount(a, Vector(v))
		}
		for c := 0; c < 4; c++ {
			for v := 0; v < NumVectors; v++ {
				byCPU += a.matrix[v][c]
			}
		}
		_, sliceTotal := a.DrainSlice()
		return byVec == byCPU && uint64(sliceTotal) == byVec
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
