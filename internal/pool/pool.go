// Package pool provides the bounded worker pool behind every parallel
// fan-out in the system: cluster node stepping, table/figure generation
// and any future batch work. It exists so concurrency is configured in
// one place (a worker budget) instead of ad-hoc `go func` blocks, and so
// results stay deterministic: work items are identified by index, each
// item's result lands in that item's slot, and errors are aggregated in
// index order regardless of completion order.
//
// The bound is shared. Two Run calls on the same Pool together hold at
// most Workers() items in flight, so a process-wide pool acts as one
// scheduler for every concurrent caller.
package pool

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"trickledown/internal/telemetry"
)

// Pool telemetry is process-wide (all pools feed the same scheduler
// picture): how much work was asked for, how much is in flight, how long
// items wait for a slot and how long they run. Items are coarse (whole
// node runs, whole table simulations), so two time.Now calls per item
// are noise.
var (
	mTasksQueued = telemetry.NewCounter("pool_tasks_queued_total",
		"work items submitted to a pool (including items abandoned on cancellation)")
	mTasksCompleted = telemetry.NewCounter("pool_tasks_completed_total",
		"work items that finished running")
	mTasksRunning = telemetry.NewGauge("pool_tasks_running",
		"work items currently holding a pool slot")
	mQueueWait = telemetry.NewHistogram("pool_queue_wait_seconds",
		"time from submission to acquiring a pool slot", nil)
	mTaskDuration = telemetry.NewHistogram("pool_task_duration_seconds",
		"work item execution time", nil)
	mPanics = telemetry.NewCounter("pool_panics_recovered_total",
		"work item panics recovered and converted to *PanicError")
)

// PanicError is a work item panic converted to an error: the pool (and
// callers layering their own recovery) never let one panicking task take
// down the process or deadlock the other items. Value is the recovered
// panic value; Stack is the panicking goroutine's stack, captured at
// recovery time for post-mortem logging.
type PanicError struct {
	Value any
	Stack []byte
}

// NewPanicError captures the current goroutine's stack around a
// recovered panic value. Call it only from inside a deferred recover.
func NewPanicError(value any) *PanicError {
	return &PanicError{Value: value, Stack: debug.Stack()}
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("panic: %v", e.Value)
}

// Retry is a retry policy: the one attempt-and-backoff loop, which the
// cluster's node stepping runs. The zero value (and any Attempts < 2)
// means run exactly once.
type Retry struct {
	// Attempts is the maximum number of tries, including the first;
	// values below 1 behave as 1.
	Attempts int
	// BaseDelay is the wait before the first retry; it doubles after
	// every failed attempt (capped at MaxDelay). Zero means no wait.
	BaseDelay time.Duration
	// MaxDelay caps the exponential backoff; zero means uncapped.
	MaxDelay time.Duration
}

// maxBackoff bounds the exponential doubling when MaxDelay is zero
// ("uncapped"). time.Duration is an int64 of nanoseconds: doubling past
// its ceiling wraps negative, and a negative timer fires immediately —
// turning a polite retry schedule into a hot loop exactly when the
// dependency is down hardest.
const maxBackoff = time.Duration(1) << 62

// backoff returns the wait before retry number n (1-based), doubling
// from BaseDelay and capped at MaxDelay (or maxBackoff when MaxDelay is
// zero, so the doubling can never overflow to a negative wait).
func (r Retry) backoff(n int) time.Duration {
	d := r.BaseDelay
	for i := 1; i < n; i++ {
		if d >= maxBackoff/2 {
			d = maxBackoff
			break
		}
		d *= 2
		if r.MaxDelay > 0 && d >= r.MaxDelay {
			return r.MaxDelay
		}
	}
	if r.MaxDelay > 0 && d > r.MaxDelay {
		d = r.MaxDelay
	}
	return d
}

// Run calls try until it succeeds or r.Attempts tries have failed,
// waiting the backoff schedule between tries and counting each retry in
// retries (nil counts nothing). It returns the last try's error. The
// wait is context-aware: cancellation abandons the remaining tries and
// joins ctx.Err() to the last error. Run does not recover panics; each
// caller converts its own into errors, so a panic is retried like any
// other failure.
func (r Retry) Run(ctx context.Context, retries *telemetry.Counter, try func() error) error {
	for attempt := 1; ; attempt++ {
		err := try()
		if err == nil || attempt >= r.Attempts {
			return err
		}
		if retries != nil {
			retries.Inc()
		}
		if wait := r.backoff(attempt); wait > 0 {
			t := time.NewTimer(wait)
			select {
			case <-ctx.Done():
				t.Stop()
				return errors.Join(err, ctx.Err())
			case <-t.C:
			}
		} else if ctx.Err() != nil {
			return errors.Join(err, ctx.Err())
		}
	}
}

// Pool is a bounded parallel executor. The zero value is not usable; use
// New. A Pool is safe for concurrent use and carries no per-Run state.
type Pool struct {
	// sem is the shared concurrency budget: one slot per in-flight item
	// across all Run calls on this pool.
	sem chan struct{}
}

// New returns a pool bounding in-flight work to workers items. A
// non-positive count defaults to runtime.GOMAXPROCS(0), the number of
// CPUs the Go scheduler will actually use.
func New(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Pool{sem: make(chan struct{}, workers)}
}

// Workers returns the pool's concurrency bound.
func (p *Pool) Workers() int { return cap(p.sem) }

// Run executes fn(ctx, i) for every i in [0, n), at most Workers() items
// in flight at once (shared with every other concurrent Run on the same
// pool). It waits for all dispatched items and returns the aggregate of
// every item error, joined in index order — it does not stop at the
// first failure, so a caller sees all failed items at once.
//
// Cancellation: when ctx is cancelled, no further items are dispatched,
// already-running items are left to observe ctx themselves, and the
// returned error includes ctx.Err(). Run must not be called from inside
// one of its own work functions: a worker waiting on the shared budget
// while holding a slot can deadlock the pool.
//
// A panicking work item does not crash the process or wedge the pool:
// the panic is recovered, wrapped as a *PanicError carrying the stack,
// and joined into the aggregate error at the item's index like any other
// failure.
func (p *Pool) Run(ctx context.Context, n int, fn func(ctx context.Context, i int) error) error {
	if n <= 0 {
		return ctx.Err()
	}
	// One slot per item plus one for the cancellation error, so every
	// writer has a distinct slot and the join order is deterministic.
	errs := make([]error, n+1)
	var wg sync.WaitGroup
dispatch:
	for i := 0; i < n; i++ {
		mTasksQueued.Inc()
		enqueued := time.Now()
		select {
		case <-ctx.Done():
			errs[n] = ctx.Err()
			break dispatch
		case p.sem <- struct{}{}:
			mQueueWait.Observe(time.Since(enqueued).Seconds())
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				defer func() { <-p.sem }()
				mTasksRunning.Add(1)
				started := time.Now()
				defer func() {
					mTaskDuration.Observe(time.Since(started).Seconds())
					mTasksRunning.Add(-1)
					mTasksCompleted.Inc()
				}()
				errs[i] = runProtected(ctx, i, fn)
			}(i)
		}
	}
	wg.Wait()
	return errors.Join(errs...)
}

// runProtected runs one work item with panic recovery.
func runProtected(ctx context.Context, i int, fn func(ctx context.Context, i int) error) (err error) {
	defer func() {
		if v := recover(); v != nil {
			mPanics.Inc()
			err = NewPanicError(v)
		}
	}()
	return fn(ctx, i)
}
