package sim

import (
	"context"
	"errors"
	"testing"
	"time"
)

func TestRunSlicesContextCompletes(t *testing.T) {
	e := NewEngine(NewClock(time.Millisecond, DefaultCoreHz))
	var steps int64
	e.Register(ComponentFunc(func(c *Clock) { steps++ }))
	if err := e.RunSlicesContext(context.Background(), 500); err != nil {
		t.Fatal(err)
	}
	if steps != 500 {
		t.Errorf("steps = %d", steps)
	}
	if e.clock.sliceN != 500 {
		t.Errorf("clock at slice %d", e.clock.sliceN)
	}
}

func TestRunSlicesContextCancel(t *testing.T) {
	e := NewEngine(NewClock(time.Millisecond, DefaultCoreHz))
	ctx, cancel := context.WithCancel(context.Background())
	var steps int64
	e.Register(ComponentFunc(func(c *Clock) {
		steps++
		if steps == cancelCheckSlices {
			cancel()
		}
	}))
	err := e.RunSlicesContext(ctx, 1_000_000)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// Cancellation lands at the next check boundary, never mid-slice:
	// the clock has ticked exactly once per completed slice.
	if steps >= 1_000_000 {
		t.Error("cancellation did not stop the run")
	}
	if e.clock.sliceN != steps {
		t.Errorf("clock slice %d != steps %d (stopped mid-slice?)", e.clock.sliceN, steps)
	}
}

func TestRunForContext(t *testing.T) {
	e := NewEngine(NewClock(time.Millisecond, DefaultCoreHz))
	var steps int64
	e.Register(ComponentFunc(func(c *Clock) { steps++ }))
	if err := e.RunForContext(context.Background(), 250*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if steps != 250 {
		t.Errorf("steps = %d", steps)
	}
}
