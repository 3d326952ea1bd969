package sim

import (
	"context"
	"math"
	"strings"
	"testing"
	"time"
)

func TestClockAdvance(t *testing.T) {
	c := NewClock(time.Millisecond, 2.8e9)
	if c.Seconds() != 0 {
		t.Fatalf("fresh clock Seconds() = %v", c.Seconds())
	}
	for i := 0; i < 1500; i++ {
		c.Tick()
	}
	if got := c.Seconds(); math.Abs(got-1.5) > 1e-12 {
		t.Errorf("Seconds() = %v, want 1.5", got)
	}
	if got := c.sliceN; got != 1500 {
		t.Errorf("slice index = %d, want 1500", got)
	}
}

func TestClockCyclesPerSlice(t *testing.T) {
	c := NewClock(time.Millisecond, 2.8e9)
	if got, want := c.CyclesPerSlice(), 2.8e6; math.Abs(got-want) > 1 {
		t.Errorf("CyclesPerSlice() = %v, want %v", got, want)
	}
	if got := c.SliceSeconds(); math.Abs(got-0.001) > 1e-15 {
		t.Errorf("SliceSeconds() = %v", got)
	}
}

func TestClockPanicsOnBadParams(t *testing.T) {
	for name, fn := range map[string]func(){
		"zero slice":    func() { NewClock(0, 1e9) },
		"negative freq": func() { NewClock(time.Millisecond, -1) },
		"zero freq":     func() { NewClock(time.Millisecond, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestClockString(t *testing.T) {
	c := NewClock(time.Millisecond, 1e9)
	c.Tick()
	if s := c.String(); !strings.Contains(s, "slice 1") {
		t.Errorf("String() = %q", s)
	}
}

func TestEngineStepOrderAndCount(t *testing.T) {
	c := NewClock(time.Millisecond, 1e9)
	e := NewEngine(c)
	var order []string
	e.Register(
		ComponentFunc(func(*Clock) { order = append(order, "a") }),
		ComponentFunc(func(*Clock) { order = append(order, "b") }),
	)
	if err := e.RunSlicesContext(context.Background(), 3); err != nil {
		t.Fatal(err)
	}
	want := "ababab"
	if got := strings.Join(order, ""); got != want {
		t.Errorf("step order = %q, want %q", got, want)
	}
	if c.sliceN != 3 {
		t.Errorf("clock advanced %d slices, want 3", c.sliceN)
	}
}

func TestEngineRunFor(t *testing.T) {
	c := NewClock(time.Millisecond, 1e9)
	e := NewEngine(c)
	steps := 0
	e.Register(ComponentFunc(func(*Clock) { steps++ }))
	if err := e.RunForContext(context.Background(), 250*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if steps != 250 {
		t.Errorf("RunForContext stepped %d times, want 250", steps)
	}
	if e.clock != c {
		t.Error("the engine does not step the clock it was given")
	}
}

func TestEngineClockTimeVisibleDuringStep(t *testing.T) {
	c := NewClock(time.Millisecond, 1e9)
	e := NewEngine(c)
	var seen []int64
	e.Register(ComponentFunc(func(c *Clock) { seen = append(seen, c.sliceN) }))
	if err := e.RunSlicesContext(context.Background(), 3); err != nil {
		t.Fatal(err)
	}
	for i, s := range seen {
		if s != int64(i) {
			t.Errorf("step %d saw slice index %d; clock must tick after components", i, s)
		}
	}
}

// TestFirstSliceAt matches a brute-force search for the first slice, from
// the current one on, whose start time reaches t.
func TestFirstSliceAt(t *testing.T) {
	for _, slice := range []time.Duration{time.Millisecond, 500 * time.Microsecond, 333 * time.Microsecond} {
		c := NewClock(slice, DefaultCoreHz)
		for i := 0; i < 37; i++ {
			c.Tick()
		}
		for _, at := range []float64{-1, 0, 0.0123, 0.037, 0.1, 0.3, 1.0001, 2.9999999, 7} {
			want := c.SliceIndex()
			for float64(want)*c.SliceSeconds() < at {
				want++
			}
			if got := c.FirstSliceAt(at); got != want {
				t.Errorf("slice %v, t=%v: got %d, want %d", slice, at, got, want)
			}
		}
		if got := c.FirstSliceAt(math.Inf(1)); got != math.MaxInt64 {
			t.Errorf("slice %v, t=+Inf: got %d", slice, got)
		}
	}
}
