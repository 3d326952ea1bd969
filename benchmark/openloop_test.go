package main

import (
	"context"
	"errors"
	"math"
	"testing"
	"time"
)

// fakeClock advances only when slept on or when an operation takes time.
type fakeClock struct{ now time.Time }

func (c *fakeClock) Now() time.Time        { return c.now }
func (c *fakeClock) Sleep(d time.Duration) { c.now = c.now.Add(d) }

func TestOpenLoopSchedule(t *testing.T) {
	ms := time.Millisecond
	got := openLoopSchedule(45*ms, 10*ms, 2)
	want := []slot{{0, false}, {10 * ms, false}, {15 * ms, true}, {20 * ms, false},
		{30 * ms, false}, {35 * ms, true}, {40 * ms, false}}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("slot %d: got %v, want %v", i, got[i], want[i])
		}
	}
}

// A stall charges its wait to the operations queued behind it: their
// latency counts from when they were due, and the generator's lateness
// shows how far behind schedule it ran.
func TestOpenLoopLatenessAccounting(t *testing.T) {
	ms := time.Millisecond
	clk := &fakeClock{now: time.Unix(0, 0)}
	slots := openLoopSchedule(40*ms, 10*ms, 0)
	service := []time.Duration{5 * ms, 25 * ms, 1 * ms, 1 * ms}
	outs := runOpenLoop(context.Background(), clk, clk.now, slots, func(i int, _ slot) error {
		clk.Sleep(service[i])
		if i == 3 {
			return errors.New("status 429")
		}
		return nil
	})
	want := []outcome{
		{late: 0, latency: 5 * ms, service: 5 * ms},
		{late: 0, latency: 25 * ms, service: 25 * ms},
		{late: 15 * ms, latency: 16 * ms, service: 1 * ms},
		{late: 6 * ms, latency: 7 * ms, service: 1 * ms, failed: true},
	}
	if len(outs) != len(want) {
		t.Fatalf("got %d outcomes, want %d", len(outs), len(want))
	}
	for i := range want {
		if outs[i] != want[i] {
			t.Errorf("op %d: got %+v, want %+v", i, outs[i], want[i])
		}
	}
	lat, failed := latencies(outs, false)
	if failed != 1 || len(lat) != 4 || lat[2] != 16 || !math.IsInf(lat[3], 1) {
		t.Fatalf("latencies %v, failed %d: a failed operation must miss every limit", lat, failed)
	}
}

func TestOpenLoopNeverSendsEarly(t *testing.T) {
	ms := time.Millisecond
	start := time.Unix(100, 0)
	clk := &fakeClock{now: start}
	var sent []time.Duration
	runOpenLoop(context.Background(), clk, start, openLoopSchedule(30*ms, 10*ms, 0), func(int, slot) error {
		sent = append(sent, clk.now.Sub(start))
		return nil
	})
	for i, s := range sent {
		if s != time.Duration(i)*10*ms {
			t.Fatalf("op %d sent at %v, due at %v", i, s, time.Duration(i)*10*ms)
		}
	}
}

func TestOpenLoopStopsOnCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	clk := &fakeClock{now: time.Unix(0, 0)}
	outs := runOpenLoop(ctx, clk, clk.now, openLoopSchedule(time.Second, time.Millisecond, 0), func(i int, _ slot) error {
		if i == 2 {
			cancel()
		}
		return nil
	})
	if len(outs) != 3 {
		t.Fatalf("ran %d operations after cancel at the third", len(outs))
	}
}
