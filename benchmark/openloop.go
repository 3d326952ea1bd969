package main

import (
	"context"
	"math"
	"time"
)

// clock is the time source the open-loop driver runs on; tests supply a
// fake one.
type clock interface {
	Now() time.Time
	Sleep(time.Duration)
}

type wallClock struct{}

func (wallClock) Now() time.Time        { return time.Now() }
func (wallClock) Sleep(d time.Duration) { time.Sleep(d) }

// slot is one scheduled operation: when it was due (an offset from the
// phase start) and its kind.
type slot struct {
	due  time.Duration
	read bool
}

// outcome is what happened to one slot.
type outcome struct {
	read bool
	// late is how long after its due time the operation was sent: the
	// generator's own lateness.
	late time.Duration
	// latency runs from the due time to completion, so a stall also
	// charges the wait it imposes on the operations queued behind it.
	latency time.Duration
	// service runs from sending to completion.
	service time.Duration
	failed  bool
}

// openLoopSchedule lays out one connection's slots over a phase: an
// ingest every interval, and after every readEvery-th ingest a read due
// half an interval later.
func openLoopSchedule(phase, interval time.Duration, readEvery int) []slot {
	var out []slot
	for i := 0; ; i++ {
		due := time.Duration(i) * interval
		if due >= phase {
			return out
		}
		out = append(out, slot{due: due})
		if readEvery > 0 && i%readEvery == readEvery-1 {
			if rd := due + interval/2; rd < phase {
				out = append(out, slot{due: rd, read: true})
			}
		}
	}
}

// runOpenLoop executes slots in order on one connection, starting at
// start. An operation is never sent before its due time; when the
// previous one overran, it is sent at once and its latency still counts
// from its due time. do returns a non-nil error for a failed operation
// (non-2xx status or transport error). It stops early, returning the
// outcomes so far, when ctx is done.
func runOpenLoop(ctx context.Context, clk clock, start time.Time, slots []slot, do func(i int, s slot) error) []outcome {
	out := make([]outcome, 0, len(slots))
	for i, s := range slots {
		if ctx.Err() != nil {
			break
		}
		due := start.Add(s.due)
		now := clk.Now()
		if wait := due.Sub(now); wait > 0 {
			clk.Sleep(wait)
			now = clk.Now()
		}
		err := do(i, s)
		end := clk.Now()
		late := now.Sub(due)
		if late < 0 {
			late = 0
		}
		out = append(out, outcome{
			read:    s.read,
			late:    late,
			latency: end.Sub(due),
			service: end.Sub(now),
			failed:  err != nil,
		})
	}
	return out
}

// latencies returns the latency in milliseconds of every outcome of the
// given kind; a failed operation misses any latency limit, so it reads
// as +Inf.
func latencies(outs []outcome, read bool) (ms []float64, failed int) {
	for _, o := range outs {
		if o.read != read {
			continue
		}
		if o.failed {
			ms = append(ms, math.Inf(1))
			failed++
			continue
		}
		ms = append(ms, float64(o.latency)/1e6)
	}
	return ms, failed
}
