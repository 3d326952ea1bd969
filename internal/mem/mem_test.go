package mem

import (
	"math"
	"testing"
	"testing/quick"
)

const slice = 0.001

func TestZeroTraffic(t *testing.T) {
	m := New()
	st := m.Step(slice, Traffic{})
	if st.ServedTx != 0 || st.Util != 0 || st.Activations != 0 {
		t.Errorf("zero traffic produced activity: %+v", st)
	}
	if st.IdleFrac != 1 {
		t.Errorf("IdleFrac = %v, want 1", st.IdleFrac)
	}
}

func TestLowLoadIsNearlyLinear(t *testing.T) {
	m := New()
	offered := 0.2 * BusCapacity * slice
	st := m.Step(slice, Traffic{CPUTx: offered})
	if st.ServedTx < 0.99*offered {
		t.Errorf("low load served %v of %v", st.ServedTx, offered)
	}
}

func TestSaturationCapsThroughput(t *testing.T) {
	m := New()
	offered := 3 * BusCapacity * slice
	st := m.Step(slice, Traffic{CPUTx: offered})
	if st.ServedTx > BusCapacity*slice {
		t.Errorf("served %v exceeds capacity %v", st.ServedTx, BusCapacity*slice)
	}
	if st.Util > 1 {
		t.Errorf("Util = %v", st.Util)
	}
	// More offered load must never reduce service.
	st2 := m.Step(slice, Traffic{CPUTx: offered * 2})
	if st2.ServedTx < st.ServedTx {
		t.Error("service not monotonic in offered load")
	}
}

func TestClassesScaledProportionally(t *testing.T) {
	m := New()
	tr := Traffic{CPUTx: 2 * BusCapacity * slice, PrefetchTx: 1 * BusCapacity * slice, DMATx: 1 * BusCapacity * slice}
	st := m.Step(slice, tr)
	sum := st.CPUTx + st.PrefetchTx + st.DMATx
	if math.Abs(sum-st.ServedTx) > 1e-9*sum {
		t.Errorf("class split %v != served %v", sum, st.ServedTx)
	}
	if math.Abs(st.CPUTx/st.PrefetchTx-2) > 1e-9 {
		t.Errorf("proportional scaling broken: cpu/pf = %v", st.CPUTx/st.PrefetchTx)
	}
}

func TestPageHitRateDecreasesWithUtil(t *testing.T) {
	if PageHitRate(0.1, 0.5) <= PageHitRate(0.9, 0.5) {
		t.Error("page-hit rate must fall with utilization")
	}
	if PageHitRate(5, 0.5) < 0.10 {
		t.Error("page-hit floor violated")
	}
	if PageHitRate(0, 2) > 0.95 {
		t.Error("page-hit ceiling violated")
	}
	if PageHitRate(0.3, 0.2) >= PageHitRate(0.3, 0.8) {
		t.Error("page-hit rate must rise with locality")
	}
}

func TestLowLocalityCostsMoreActivations(t *testing.T) {
	m := New()
	tx := 0.4 * BusCapacity * slice
	hi := m.Step(slice, Traffic{CPUTx: tx, Locality: 0.9})
	lo := m.Step(slice, Traffic{CPUTx: tx, Locality: 0.1})
	if lo.Activations <= hi.Activations {
		t.Errorf("low locality should force more activations: %v <= %v",
			lo.Activations, hi.Activations)
	}
}

func TestActivationsSuperlinear(t *testing.T) {
	// Doubling utilization should more than double activations (the
	// physical source of the paper's quadratic model shape).
	m := New()
	lo := m.Step(slice, Traffic{CPUTx: 0.3 * BusCapacity * slice})
	hi := m.Step(slice, Traffic{CPUTx: 0.6 * BusCapacity * slice})
	ratio := hi.Activations / lo.Activations
	if ratio <= 2.0 {
		t.Errorf("activation ratio = %v, want >2 (superlinear)", ratio)
	}
}

func TestBurstSplit(t *testing.T) {
	m := New()
	st := m.Step(slice, Traffic{
		CPUTx: 10000, WriteFrac: 0.4,
		DMATx: 5000, DMAWriteFrac: 1.0,
	})
	wantWrites := 10000*0.4 + 5000.0
	if math.Abs(st.WriteBursts-wantWrites)/wantWrites > 0.01 {
		t.Errorf("WriteBursts = %v, want ~%v", st.WriteBursts, wantWrites)
	}
	if math.Abs(st.ReadBursts+st.WriteBursts-st.ServedTx) > 1e-6*st.ServedTx {
		t.Error("bursts do not sum to served transactions")
	}
}

func TestResidencySumsToOne(t *testing.T) {
	m := New()
	for _, load := range []float64{0, 0.1, 0.5, 0.9, 2, 10} {
		st := m.Step(slice, Traffic{CPUTx: load * BusCapacity * slice})
		sum := st.ActiveFrac + st.PrechargeFrac + st.IdleFrac
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("load %v: residency sum = %v", load, sum)
		}
		if st.ActiveFrac < 0 || st.PrechargeFrac < 0 || st.IdleFrac < 0 {
			t.Errorf("load %v: negative residency %+v", load, st)
		}
	}
}

func TestBadInputs(t *testing.T) {
	m := New()
	if st := m.Step(slice, Traffic{CPUTx: -5}); st.ServedTx != 0 {
		t.Error("negative traffic served")
	}
	if st := m.Step(0, Traffic{CPUTx: 100}); st.ServedTx != 0 {
		t.Error("zero slice served traffic")
	}
	if st := m.Step(slice, Traffic{CPUTx: 100, WriteFrac: 7}); st.WriteBursts > st.ServedTx {
		t.Error("write fraction not clamped")
	}
}

// Property: served ≤ offered, served ≤ capacity, util in [0,1], for any
// traffic mix.
func TestServiceInvariants(t *testing.T) {
	m := New()
	f := func(cpuR, pfR, dmaR, wfR uint16) bool {
		tr := Traffic{
			CPUTx:      float64(cpuR) * 10,
			PrefetchTx: float64(pfR) * 10,
			DMATx:      float64(dmaR) * 10,
			WriteFrac:  float64(wfR) / 65535,
		}
		st := m.Step(slice, tr)
		capTx := BusCapacity * slice
		return st.ServedTx <= tr.Offered()+1e-9 &&
			st.ServedTx <= capTx+1e-9 &&
			st.Util >= 0 && st.Util <= 1 &&
			st.Activations >= 0 && st.Activations <= st.ServedTx
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestSaturateMatchesPow holds saturate to the expression it replaces,
// offered/math.Pow(1+r⁴, 0.25), bit for bit over a sweep of r: zero,
// the region where 1+r⁴ rounds to 1, r = 1, and heavy overload up to
// r = 1e3. A toolchain whose Pow stops computing Exp(0.25·Log(x)) for
// this exponent fails here.
func TestSaturateMatchesPow(t *testing.T) {
	capTx := BusCapacity * slice
	var rs []float64
	for e := -9.0; e <= 3; e += 1.0 / 64 {
		rs = append(rs, math.Pow(10, e))
	}
	for r := 0.0; r <= 4; r += 1.0 / 1024 {
		rs = append(rs, r)
	}
	rs = append(rs, 1, 1e3)
	var flat, curved int
	for _, r := range rs {
		offered := r * capTx
		rr := offered / capTx
		if 1+rr*rr*rr*rr == 1 {
			flat++
		} else {
			curved++
		}
		want := 0.0
		if offered > 0 {
			want = offered / math.Pow(1+rr*rr*rr*rr, 0.25)
		}
		if got := saturate(offered, capTx); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("r=%g: saturate = %v (%#x), Pow reference = %v (%#x)",
				r, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
	if flat < 100 || curved < 1000 {
		t.Fatalf("sweep hit %d points with 1+r⁴ == 1 and %d without", flat, curved)
	}
}
