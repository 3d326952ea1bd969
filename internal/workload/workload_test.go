package workload

import (
	"math"
	"testing"

	"trickledown/internal/sim"
)

func TestRegistryComplete(t *testing.T) {
	want := TableOrder()
	if len(want) != 12 {
		t.Fatalf("TableOrder has %d workloads, want 12", len(want))
	}
	for _, name := range want {
		s, err := ByName(name)
		if err != nil {
			t.Errorf("ByName(%q): %v", name, err)
			continue
		}
		if s.Name != name {
			t.Errorf("spec name %q != %q", s.Name, name)
		}
		if s.Instances <= 0 {
			t.Errorf("%s: no instances", name)
		}
		if s.DefaultDuration <= 0 {
			t.Errorf("%s: no default duration", name)
		}
		if s.Make == nil {
			t.Errorf("%s: nil Make", name)
		}
	}
	// The registry holds the paper's 12 plus extension workloads.
	if len(registry) < 13 {
		t.Errorf("registry has %d entries, want >=13", len(registry))
	}
	if _, err := ByName("netload"); err != nil {
		t.Errorf("netload extension missing: %v", err)
	}
}

func TestByNameUnknown(t *testing.T) {
	if _, err := ByName("doom3"); err == nil {
		t.Fatal("unknown workload accepted")
	}
}

func TestClassBuckets(t *testing.T) {
	fp := map[string]bool{"art": true, "lucas": true, "mesa": true, "mgrid": true, "wupwise": true}
	for _, name := range TableOrder() {
		s, _ := ByName(name)
		if fp[name] && s.Class != ClassFP {
			t.Errorf("%s should be FP", name)
		}
		if !fp[name] && s.Class != ClassInteger {
			t.Errorf("%s should be integer", name)
		}
	}
	if ClassFP.String() != "fp" || ClassInteger.String() != "integer" {
		t.Error("Class.String broken")
	}
}

// demandValid checks structural sanity of a Demand.
func demandValid(t *testing.T, name string, d Demand) {
	t.Helper()
	if d.Active < 0 || d.Active > 1 {
		t.Fatalf("%s: Active = %v out of [0,1]", name, d.Active)
	}
	if d.UopsPerCycle < 0 || d.UopsPerCycle > 3 {
		t.Fatalf("%s: UopsPerCycle = %v out of [0,3]", name, d.UopsPerCycle)
	}
	for what, v := range map[string]float64{
		"SpecActivity": d.SpecActivity, "L2PerUop": d.L2PerUop,
		"L3MissPerKuop": d.L3MissPerKuop, "DirtyEvictFrac": d.DirtyEvictFrac,
		"TLBMissPerMuop": d.TLBMissPerMuop, "UCPerMcycle": d.UCPerMcycle,
		"DiskReadBytes": d.DiskReadBytes, "DiskWriteBytes": d.DiskWriteBytes,
		"NetRxBytes": d.NetRxBytes, "NetTxBytes": d.NetTxBytes,
	} {
		if v < 0 {
			t.Fatalf("%s: %s = %v negative", name, what, v)
		}
	}
	if d.Prefetchability < 0 || d.Prefetchability > 1 {
		t.Fatalf("%s: Prefetchability = %v", name, d.Prefetchability)
	}
	if d.WriteFrac < 0 || d.WriteFrac > 1 {
		t.Fatalf("%s: WriteFrac = %v", name, d.WriteFrac)
	}
}

func TestAllGeneratorsProduceValidDemand(t *testing.T) {
	for name := range registry {
		s, _ := ByName(name)
		rng := sim.NewRNG(1)
		g := s.Make(0, rng)
		var env Env
		for i := 0; i < 200000; i++ { // 200 simulated seconds
			d := g.Demand(float64(i)*0.001, env, rng)
			demandValid(t, name, d)
		}
	}
}

func TestGeneratorsDeterministic(t *testing.T) {
	for name := range registry {
		s, _ := ByName(name)
		g1 := s.Make(0, sim.NewRNG(7))
		g2 := s.Make(0, sim.NewRNG(7))
		r1, r2 := sim.NewRNG(9), sim.NewRNG(9)
		for i := 0; i < 5000; i++ {
			t1 := float64(i) * 0.001
			d1 := g1.Demand(t1, Env{}, r1)
			d2 := g2.Demand(t1, Env{}, r2)
			if d1 != d2 {
				t.Errorf("%s: nondeterministic at slice %d: %+v vs %+v", name, i, d1, d2)
				break
			}
		}
	}
}

func TestIdleIsIdle(t *testing.T) {
	s, _ := ByName("idle")
	rng := sim.NewRNG(1)
	g := s.Make(0, rng)
	d := g.Demand(1, Env{}, rng)
	if d.Active > 0.02 {
		t.Errorf("idle Active = %v", d.Active)
	}
	if d.DiskReadBytes != 0 || d.DiskWriteBytes != 0 {
		t.Error("idle issues disk I/O")
	}
}

func TestSpecInitPhaseReadsDataset(t *testing.T) {
	s, _ := ByName("mcf")
	rng := sim.NewRNG(1)
	g := s.Make(0, rng)
	d := g.Demand(0.5, Env{}, rng)
	if d.DiskReadBytes == 0 {
		t.Error("mcf init phase issues no disk reads")
	}
	if d.Active > 0.5 {
		t.Errorf("mcf init phase Active = %v, should be I/O bound", d.Active)
	}
	// Well past init the reads must stop.
	d = g.Demand(100, Env{}, rng)
	if d.DiskReadBytes != 0 {
		t.Error("mcf steady state still reading dataset")
	}
	if d.Active < 0.9 {
		t.Errorf("mcf steady state Active = %v", d.Active)
	}
}

func TestMcfIsLowFetchHighSpec(t *testing.T) {
	mcf := steadyDemand(t, "mcf")
	gcc := steadyDemand(t, "gcc")
	if mcf.UopsPerCycle >= gcc.UopsPerCycle/2 {
		t.Errorf("mcf upc %v should be far below gcc %v", mcf.UopsPerCycle, gcc.UopsPerCycle)
	}
	if mcf.SpecActivity <= 2*gcc.SpecActivity {
		t.Errorf("mcf spec %v should dwarf gcc %v", mcf.SpecActivity, gcc.SpecActivity)
	}
	if mcf.L3MissPerKuop <= gcc.L3MissPerKuop*2 {
		t.Errorf("mcf miss rate %v should dwarf gcc %v", mcf.L3MissPerKuop, gcc.L3MissPerKuop)
	}
}

// steadyDemand returns the workload's demand at t=120s (past init, with
// a fixed rng).
func steadyDemand(t *testing.T, name string) Demand {
	t.Helper()
	s, err := ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	rng := sim.NewRNG(2)
	g := s.Make(0, rng)
	return g.Demand(120, Env{}, rng)
}

func TestDbt2MostlyBlocked(t *testing.T) {
	s, _ := ByName("dbt-2")
	rng := sim.NewRNG(3)
	g := s.Make(0, rng)
	active, n := 0.0, 60000
	var io float64
	for i := 0; i < n; i++ {
		d := g.Demand(float64(i)*0.001, Env{}, rng)
		active += d.Active
		io += d.DiskReadBytes + d.DiskWriteBytes
	}
	frac := active / float64(n)
	if frac < 0.03 || frac > 0.25 {
		t.Errorf("dbt-2 active fraction = %v, want disk-bound (0.03..0.25)", frac)
	}
	if io == 0 {
		t.Error("dbt-2 issued no disk I/O")
	}
}

func TestJbbRampsLoad(t *testing.T) {
	lo := jbbLoad(1)
	hi := jbbLoad(jbbStepSec*8 - 1)
	if lo > 0.2 {
		t.Errorf("first warehouse load = %v", lo)
	}
	if hi < 0.95 {
		t.Errorf("last warehouse load = %v", hi)
	}
	// Staircase repeats.
	if jbbLoad(1) != jbbLoad(jbbStepSec*8+1) {
		t.Error("jbb staircase does not repeat")
	}
}

func TestDiskLoadWriteSyncCycle(t *testing.T) {
	s, _ := ByName("diskload")
	rng := sim.NewRNG(4)
	g := s.Make(0, rng)
	var syncs int
	var wrote float64
	env := Env{}
	flushLeft := 0
	for i := 0; i < 120000; i++ { // 120 s
		d := g.Demand(float64(i)*0.001, env, rng)
		wrote += d.DiskWriteBytes
		if d.Sync {
			syncs++
			flushLeft = 3000 // pretend the flush takes 3 s
		}
		if flushLeft > 0 {
			flushLeft--
			env.FlushActive = true
		} else {
			env.FlushActive = false
		}
	}
	if syncs < 2 {
		t.Errorf("diskload issued %d syncs in 120s, want >=2", syncs)
	}
	if wrote < diskLoadSyncBytes {
		t.Errorf("diskload dirtied only %v bytes", wrote)
	}
}

func TestDiskLoadBlocksDuringFlush(t *testing.T) {
	s, _ := ByName("diskload")
	rng := sim.NewRNG(5)
	g := s.Make(0, rng)
	env := Env{}
	// Drive until the sync is issued.
	var i int
	for ; i < 200000; i++ {
		d := g.Demand(float64(i)*0.001, env, rng)
		if d.Sync {
			break
		}
	}
	env.FlushActive = true
	d := g.Demand(float64(i+1)*0.001, env, rng)
	if d.Active > 0.2 {
		t.Errorf("diskload Active = %v while blocked in sync()", d.Active)
	}
	if d.DiskWriteBytes != 0 {
		t.Error("diskload dirtying pages while blocked in sync()")
	}
	// Release the flush: writing resumes.
	env.FlushActive = false
	d = g.Demand(float64(i+2)*0.001, env, rng)
	d = g.Demand(float64(i+3)*0.001, env, rng)
	if d.Active < 0.5 {
		t.Errorf("diskload did not resume after flush: Active=%v", d.Active)
	}
}

func TestStaggeredSpecConfig(t *testing.T) {
	for _, name := range []string{"gcc", "mcf", "mesa", "lucas"} {
		s, _ := ByName(name)
		if s.Instances != 8 {
			t.Errorf("%s instances = %d, want 8", name, s.Instances)
		}
		if s.StaggerSec != 30 {
			t.Errorf("%s stagger = %v, want 30", name, s.StaggerSec)
		}
	}
}

func TestRegisterDuplicatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate register did not panic")
		}
	}()
	register(Spec{Name: "idle"})
}

func TestNetloadMovesBytes(t *testing.T) {
	s, _ := ByName("netload")
	rng := sim.NewRNG(6)
	g := s.Make(0, rng)
	var rx, tx float64
	for i := 0; i < 60000; i++ { // 60 s
		d := g.Demand(float64(i)*0.001, Env{}, rng)
		rx += d.NetRxBytes
		tx += d.NetTxBytes
		if d.DiskReadBytes != 0 || d.DiskWriteBytes != 0 {
			t.Fatal("netload touched the disk")
		}
	}
	if tx < 100e6 {
		t.Errorf("netload transmitted only %v bytes in 60s", tx)
	}
	if rx <= 0 || rx >= tx {
		t.Errorf("rx/tx = %v/%v, want small rx, large tx", rx, tx)
	}
}

func TestPiecewisePhaseHoldsSegments(t *testing.T) {
	rng := sim.NewRNG(11)
	g := &specGen{rng: rng}
	ph := piecewisePhase(3, 8, 0.8, 1.0, 0.5, 1.5, 0.4, 2.0)
	// Within one segment the multipliers are constant.
	a1, u1, m1 := ph(0.0, g)
	a2, u2, m2 := ph(0.5, g)
	if a1 != a2 || u1 != u2 || m1 != m2 {
		t.Error("multipliers changed within a segment")
	}
	// Across many segments, values stay in range and eventually change.
	changed := false
	for ts := 0.0; ts < 100; ts += 0.5 {
		a, u, m := ph(ts, g)
		if a < 0.8 || a > 1.0 || u < 0.5 || u > 1.5 || m < 0.4 || m > 2.0 {
			t.Fatalf("phase out of range at t=%v: %v %v %v", ts, a, u, m)
		}
		if a != a1 || u != u1 || m != m1 {
			changed = true
		}
	}
	if !changed {
		t.Error("phase never changed over 100s")
	}
}

func TestSinePhasePeriodic(t *testing.T) {
	g := &specGen{rng: sim.NewRNG(12)}
	ph := sinePhase(40, 0.2, 0.3)
	_, u1, m1 := ph(7, g)
	_, u2, m2 := ph(47, g)
	if u1 != u2 || m1 != m2 {
		t.Errorf("sine phase not periodic: (%v,%v) vs (%v,%v)", u1, m1, u2, m2)
	}
	// Amplitude bounds.
	for ts := 0.0; ts < 40; ts += 0.5 {
		_, u, m := ph(ts, g)
		if u < 0.8-1e-9 || u > 1.2+1e-9 {
			t.Fatalf("upc multiplier %v out of amplitude", u)
		}
		if m < 0.7-1e-9 || m > 1.3+1e-9 {
			t.Fatalf("miss multiplier %v out of amplitude", m)
		}
	}
}

func TestFlatPhaseIsFlat(t *testing.T) {
	g := &specGen{rng: sim.NewRNG(13)}
	ph := flatPhase()
	for ts := 0.0; ts < 10; ts++ {
		if a, u, m := ph(ts, g); a != 1 || u != 1 || m != 1 {
			t.Fatalf("flat phase returned %v %v %v", a, u, m)
		}
	}
}

// demandFields lists d's float fields, the ones Sanitize checks.
func demandFields(d *Demand) []*float64 {
	return []*float64{
		&d.Active, &d.UopsPerCycle, &d.SpecActivity, &d.L2PerUop, &d.L3MissPerKuop,
		&d.DirtyEvictFrac, &d.Prefetchability, &d.TLBMissPerMuop, &d.UCPerMcycle,
		&d.WriteFrac, &d.MemLocality, &d.DiskReadBytes, &d.DiskWriteBytes,
		&d.NetRxBytes, &d.NetTxBytes,
	}
}

// TestDemandSanitize: Sanitize zeroes exactly the NaN, ±Inf and
// negative fields and counts them, and leaves every finite non-negative
// field, signed zeros and subnormals among them, bit for bit.
func TestDemandSanitize(t *testing.T) {
	finite := []float64{0.5, math.Copysign(0, -1), 5e-324, 3, 1e300, 0}
	bad := []float64{math.NaN(), math.Inf(1), math.Inf(-1), -3}
	for trial := 0; trial < 200; trial++ {
		var d Demand
		fields := demandFields(&d)
		want := make([]uint64, len(fields))
		wantN := 0
		for k, f := range fields {
			if (trial+k)%5 == 0 && trial%2 == 1 {
				*f = bad[(trial+k)%len(bad)]
				wantN++
				continue
			}
			*f = finite[(trial*7+k)%len(finite)]
			want[k] = math.Float64bits(*f)
		}
		d.RandomIO, d.Sync = trial%3 == 0, trial%4 == 0
		flags := [2]bool{d.RandomIO, d.Sync}
		if n := d.Sanitize(); n != wantN {
			t.Fatalf("trial %d: Sanitize zeroed %d fields, want %d", trial, n, wantN)
		}
		for k, f := range fields {
			if math.Float64bits(*f) != want[k] {
				t.Fatalf("trial %d field %d: %v after Sanitize, want bits %#x", trial, k, *f, want[k])
			}
		}
		if [2]bool{d.RandomIO, d.Sync} != flags {
			t.Fatalf("trial %d: Sanitize changed the flags", trial)
		}
	}
	// Finite fields whose sum overflows fail the fast test and still
	// come through untouched.
	big := Demand{Active: math.MaxFloat64, DiskReadBytes: math.MaxFloat64, DiskWriteBytes: math.MaxFloat64}
	want := big
	if n := big.Sanitize(); n != 0 || big != want {
		t.Fatalf("overflowing finite demand: Sanitize zeroed %d fields, left %+v", n, big)
	}
}

// TestDemandSanitizeEachField: each float field at −1, −Inf, NaN and
// +Inf is zeroed and counted alone, beside fields that are positive or
// −0 and stay bit for bit.
func TestDemandSanitizeEachField(t *testing.T) {
	for k := range demandFields(&Demand{}) {
		for _, v := range []float64{-1, math.Inf(-1), math.NaN(), math.Inf(1)} {
			var d Demand
			fields := demandFields(&d)
			for i, f := range fields {
				*f = float64(i + 1)
				if i%3 == 0 {
					*f = math.Copysign(0, -1)
				}
			}
			*fields[k] = v
			want := make([]uint64, len(fields))
			for i, f := range fields {
				want[i] = math.Float64bits(*f)
			}
			want[k] = 0
			if n := d.Sanitize(); n != 1 {
				t.Errorf("field %d at %v: Sanitize zeroed %d fields, want 1", k, v, n)
			}
			for i, f := range fields {
				if math.Float64bits(*f) != want[i] {
					t.Errorf("field %d at %v: field %d is %v after Sanitize, want bits %#x", k, v, i, *f, want[i])
				}
			}
		}
	}
}
