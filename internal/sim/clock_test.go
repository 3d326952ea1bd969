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
	if c.Now() != 0 {
		t.Fatalf("fresh clock Now() = %v", c.Now())
	}
	for i := 0; i < 1500; i++ {
		c.Tick()
	}
	if got, want := c.Now(), 1500*time.Millisecond; got != want {
		t.Errorf("Now() = %v, want %v", got, want)
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
	if got := c.CoreHz(); got != 2.8e9 {
		t.Errorf("CoreHz() = %v", got)
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
	if e.Clock() != c {
		t.Error("Clock() did not return the engine clock")
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
