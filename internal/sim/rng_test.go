package sim

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRNGDeterminism(t *testing.T) {
	a := NewRNG(42)
	b := NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at draw %d", i)
		}
	}
}

func TestRNGSeedsDiffer(t *testing.T) {
	a := NewRNG(1)
	b := NewRNG(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("different seeds produced %d identical draws", same)
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := NewRNG(7)
	child := parent.Split()
	// The child must not replay the parent's stream.
	p := NewRNG(7)
	p.Uint64() // account for the draw Split consumed
	for i := 0; i < 100; i++ {
		if child.Uint64() == p.Uint64() {
			t.Fatalf("child stream overlaps parent at draw %d", i)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := NewRNG(3)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64() = %v out of [0,1)", v)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := NewRNG(4)
	sum := 0.0
	const n = 100000
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("uniform mean = %v, want ~0.5", mean)
	}
}

func TestNormMoments(t *testing.T) {
	r := NewRNG(5)
	const n = 200000
	sum, sumsq := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := r.Norm(10, 2)
		sum += v
		sumsq += v * v
	}
	mean := sum / n
	variance := sumsq/n - mean*mean
	if math.Abs(mean-10) > 0.05 {
		t.Errorf("normal mean = %v, want ~10", mean)
	}
	if math.Abs(math.Sqrt(variance)-2) > 0.05 {
		t.Errorf("normal stddev = %v, want ~2", math.Sqrt(variance))
	}
}

func TestExpMean(t *testing.T) {
	r := NewRNG(6)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		v := r.Exp(3)
		if v < 0 {
			t.Fatalf("Exp returned negative value %v", v)
		}
		sum += v
	}
	if mean := sum / n; math.Abs(mean-3) > 0.05 {
		t.Fatalf("exponential mean = %v, want ~3", mean)
	}
}

func TestPoissonSmallMean(t *testing.T) {
	r := NewRNG(8)
	const n = 100000
	var sum int64
	for i := 0; i < n; i++ {
		sum += r.Poisson(2.5)
	}
	mean := float64(sum) / n
	if math.Abs(mean-2.5) > 0.05 {
		t.Fatalf("poisson(2.5) mean = %v", mean)
	}
}

func TestPoissonLargeMeanUsesNormalApprox(t *testing.T) {
	r := NewRNG(9)
	const n = 50000
	var sum int64
	for i := 0; i < n; i++ {
		v := r.Poisson(1000)
		if v < 0 {
			t.Fatalf("poisson returned negative %d", v)
		}
		sum += v
	}
	mean := float64(sum) / n
	if math.Abs(mean-1000) > 2 {
		t.Fatalf("poisson(1000) mean = %v", mean)
	}
}

func TestPoissonZeroAndNegativeMean(t *testing.T) {
	r := NewRNG(10)
	if got := r.Poisson(0); got != 0 {
		t.Errorf("Poisson(0) = %d, want 0", got)
	}
	if got := r.Poisson(-5); got != 0 {
		t.Errorf("Poisson(-5) = %d, want 0", got)
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestIntnRange(t *testing.T) {
	r := NewRNG(11)
	seen := make(map[int]bool)
	for i := 0; i < 1000; i++ {
		v := r.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn(7) = %d out of range", v)
		}
		seen[v] = true
	}
	if len(seen) != 7 {
		t.Fatalf("Intn(7) only produced %d distinct values", len(seen))
	}
}

func TestJitterBounds(t *testing.T) {
	r := NewRNG(12)
	if err := quick.Check(func(seed uint64) bool {
		v := 10 + float64(seed%100)
		j := r.Jitter(v, 0.2)
		return j >= v*0.8-1e-9 && j <= v*1.2+1e-9
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBernoulliExtremes(t *testing.T) {
	r := NewRNG(13)
	for i := 0; i < 100; i++ {
		if r.Bernoulli(0) {
			t.Fatal("Bernoulli(0) returned true")
		}
		if !r.Bernoulli(1.0) {
			t.Fatal("Bernoulli(1) returned false")
		}
	}
}

func TestBernoulliRate(t *testing.T) {
	r := NewRNG(14)
	hits := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if r.Bernoulli(0.3) {
			hits++
		}
	}
	rate := float64(hits) / n
	if math.Abs(rate-0.3) > 0.01 {
		t.Fatalf("Bernoulli(0.3) rate = %v", rate)
	}
}

// rngSink keeps the RNG benchmarks' results live.
var rngSink float64

// BenchmarkNorm is one standard normal deviate: half the calls draw a
// new polar pair, half return the cached spare.
func BenchmarkNorm(b *testing.B) {
	r := NewRNG(1)
	s := 0.0
	for i := 0; i < b.N; i++ {
		s += r.Norm(0, 1)
	}
	rngSink = s
}

// BenchmarkPoisson is one small-mean count at the constant mean of the
// OS's background NIC chatter (90/s over a 1 ms slice), the shape every
// slice of an idle node draws.
func BenchmarkPoisson(b *testing.B) {
	r := NewRNG(1)
	var s int64
	for i := 0; i < b.N; i++ {
		s += r.Poisson(0.09)
	}
	rngSink = float64(s)
}

// polarRef is Norm as a single function: Marsaglia's polar method with
// the spare deviate cached between calls, drawing from r.
type polarRef struct {
	r        *RNG
	spare    float64
	hasSpare bool
}

func (p *polarRef) norm(mean, stddev float64) float64 {
	if p.hasSpare {
		p.hasSpare = false
		return mean + stddev*p.spare
	}
	var u, v, s float64
	for {
		u = 2*p.r.Float64() - 1
		v = 2*p.r.Float64() - 1
		s = u*u + v*v
		if s > 0 && s < 1 {
			break
		}
	}
	m := math.Sqrt(-2 * math.Log(s) / s)
	p.spare = v * m
	p.hasSpare = true
	return mean + stddev*u*m
}

// TestNormMatchesPolarReference holds the split Norm (inlined spare,
// out-of-line pair) to the one-function polar method, bit for bit,
// over changing means and deviations.
func TestNormMatchesPolarReference(t *testing.T) {
	got := NewRNG(21)
	ref := polarRef{r: NewRNG(21)}
	for i := 0; i < 20000; i++ {
		mean, stddev := float64(i%7)-3, 0.25*float64(i%5)
		a, b := got.Norm(mean, stddev), ref.norm(mean, stddev)
		if math.Float64bits(a) != math.Float64bits(b) {
			t.Fatalf("draw %d: Norm = %v, reference = %v", i, a, b)
		}
	}
	if got.state != ref.r.state || got.hasSpare != ref.hasSpare ||
		math.Float64bits(got.spare) != math.Float64bits(ref.spare) {
		t.Fatal("Norm left a different generator state than the reference")
	}
}

// knuthRef is Poisson without the threshold memo: exp(-mean) is
// recomputed on every call.
func knuthRef(r *RNG, mean float64) int64 {
	if mean <= 0 {
		return 0
	}
	if mean > 30 {
		n := r.Norm(mean, math.Sqrt(mean))
		if n < 0 {
			return 0
		}
		return int64(n + 0.5)
	}
	l := math.Exp(-mean)
	var k int64
	p := 1.0
	for {
		p *= r.Float64()
		if p <= l {
			return k
		}
		k++
	}
}

// TestPoissonMemoMatchesKnuth holds the memoised Poisson to Knuth's
// method with a fresh threshold per call: the same counts over
// repeated, interleaved, non-positive and large (normal-path) means,
// and the same generator state afterwards.
func TestPoissonMemoMatchesKnuth(t *testing.T) {
	means := []float64{0.09, 0.09, 0.09, 2.5, 0.09, 2.5, 2.5, 0, -1, 17, 31, 45, 0.09, 1e-300, 30, 30, 12.25}
	got, ref := NewRNG(22), NewRNG(22)
	for i := 0; i < 5000; i++ {
		mean := means[i%len(means)]
		if a, b := got.Poisson(mean), knuthRef(ref, mean); a != b {
			t.Fatalf("call %d (mean %g): Poisson = %d, reference = %d", i, mean, a, b)
		}
	}
	if got.state != ref.state || got.hasSpare != ref.hasSpare ||
		math.Float64bits(got.spare) != math.Float64bits(ref.spare) {
		t.Fatal("Poisson left a different generator state than the reference")
	}
}

// TestAR1WindowMoments holds AR1's one joint draw to the moments of the
// n-step recursion it replaces: the mean, variance and covariance of
// the window mean and end state, each computed here by summing the
// recursion's coefficients term by term.
func TestAR1WindowMoments(t *testing.T) {
	const draws = 40000
	for _, c := range []struct {
		x, b, s float64
		n       int
	}{
		{0.3, 0.001 / 25, 0.35 * math.Sqrt(2*0.001/25), 1000},
		{-1, 0.1, 1, 7},
		{2, 0.5, 0.2, 40},
	} {
		a := 1 - c.b
		// end = aⁿx + Σ e_j z_j, mean = (Σ_k aᵏx + Σ d_j z_j)/n.
		var wantEnd, wantMean, ve, vm, cov float64
		wantEnd = math.Pow(a, float64(c.n)) * c.x
		for k := 1; k <= c.n; k++ {
			wantMean += math.Pow(a, float64(k)) * c.x / float64(c.n)
		}
		for m := 0; m < c.n; m++ {
			e := c.s * math.Pow(a, float64(m))
			d := c.s * (1 - math.Pow(a, float64(m+1))) / c.b / float64(c.n)
			ve += e * e
			vm += d * d
			cov += e * d
		}
		r := NewRNG(9)
		var sm, se, smm, see, sme float64
		for i := 0; i < draws; i++ {
			m, e := r.AR1(c.x, c.b, c.s, c.n)
			sm += m
			se += e
			smm += m * m
			see += e * e
			sme += m * e
		}
		sm /= draws
		se /= draws
		gotVM, gotVE := smm/draws-sm*sm, see/draws-se*se
		gotCov := sme/draws - sm*se
		if math.Abs(sm-wantMean) > 5*math.Sqrt(vm/draws) || math.Abs(se-wantEnd) > 5*math.Sqrt(ve/draws) {
			t.Errorf("%+v: means (%g, %g), want (%g, %g)", c, sm, se, wantMean, wantEnd)
		}
		// A sample variance's relative standard error is sqrt(2/draws),
		// under 1%; a correlation's is below that.
		if math.Abs(gotVM/vm-1) > 0.04 || math.Abs(gotVE/ve-1) > 0.04 {
			t.Errorf("%+v: variances (%g, %g), want (%g, %g)", c, gotVM, gotVE, vm, ve)
		}
		if rho, want := gotCov/math.Sqrt(gotVM*gotVE), cov/math.Sqrt(vm*ve); math.Abs(rho-want) > 0.02 {
			t.Errorf("%+v: correlation %.4f, want %.4f", c, rho, want)
		}
	}
	// One step: the mean is the end state, up to the closed form's
	// rounding: a spurious variance of about ε·s²/b².
	m, e := NewRNG(3).AR1(0.5, 1e-5, 0.01, 1)
	if math.Abs(m-e) > 1e-4 {
		t.Errorf("one-step window: mean %g, end %g", m, e)
	}
}
