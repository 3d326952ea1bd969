package pool

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"trickledown/internal/telemetry"
)

func TestRunExecutesEveryItem(t *testing.T) {
	p := New(3)
	const n = 50
	done := make([]bool, n)
	err := p.Run(context.Background(), n, func(_ context.Context, i int) error {
		done[i] = true
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, d := range done {
		if !d {
			t.Errorf("item %d not executed", i)
		}
	}
}

func TestRunBoundsConcurrency(t *testing.T) {
	const workers = 4
	p := New(workers)
	var cur, peak atomic.Int64
	err := p.Run(context.Background(), 64, func(_ context.Context, i int) error {
		c := cur.Add(1)
		for {
			old := peak.Load()
			if c <= old || peak.CompareAndSwap(old, c) {
				break
			}
		}
		time.Sleep(time.Millisecond)
		cur.Add(-1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := peak.Load(); got > workers {
		t.Errorf("peak concurrency %d exceeds bound %d", got, workers)
	}
}

// TestRunSharedBound checks that two concurrent Run calls share one
// budget — the pool is a process-wide scheduler, not a per-call one.
func TestRunSharedBound(t *testing.T) {
	const workers = 3
	p := New(workers)
	var cur, peak atomic.Int64
	body := func(_ context.Context, i int) error {
		c := cur.Add(1)
		for {
			old := peak.Load()
			if c <= old || peak.CompareAndSwap(old, c) {
				break
			}
		}
		time.Sleep(time.Millisecond)
		cur.Add(-1)
		return nil
	}
	var wg sync.WaitGroup
	for k := 0; k < 2; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := p.Run(context.Background(), 20, body); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if got := peak.Load(); got > workers {
		t.Errorf("peak concurrency %d across two Runs exceeds shared bound %d", got, workers)
	}
}

func TestRunAggregatesAllErrors(t *testing.T) {
	p := New(2)
	err := p.Run(context.Background(), 6, func(_ context.Context, i int) error {
		if i%2 == 1 {
			return fmt.Errorf("item %d failed", i)
		}
		return nil
	})
	if err == nil {
		t.Fatal("expected aggregated error")
	}
	msg := err.Error()
	for _, want := range []string{"item 1 failed", "item 3 failed", "item 5 failed"} {
		if !strings.Contains(msg, want) {
			t.Errorf("aggregate missing %q: %v", want, msg)
		}
	}
	// Index order regardless of completion order.
	if strings.Index(msg, "item 1") > strings.Index(msg, "item 5") {
		t.Errorf("errors not joined in index order: %v", msg)
	}
}

func TestRunCancellation(t *testing.T) {
	p := New(1)
	ctx, cancel := context.WithCancel(context.Background())
	var started atomic.Int64
	err := p.Run(ctx, 100, func(ctx context.Context, i int) error {
		started.Add(1)
		if i == 0 {
			cancel()
		}
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n := started.Load(); n == 100 {
		t.Error("cancellation did not stop dispatch")
	}
}

// TestRunRecoversPanic is the regression test for the original behavior,
// where a panicking task crashed the whole process (and, because the
// slot release deferred after the panic never ran in the old layout,
// could wedge the pool): the panic must come back as a *PanicError at
// the task's index, with the other items unaffected.
func TestRunRecoversPanic(t *testing.T) {
	p := New(2)
	var ran atomic.Int64
	err := p.Run(context.Background(), 8, func(_ context.Context, i int) error {
		ran.Add(1)
		if i == 3 {
			panic("injected task panic")
		}
		return nil
	})
	if got := ran.Load(); got != 8 {
		t.Errorf("ran %d items, want 8 (panic starved the pool?)", got)
	}
	var perr *PanicError
	if !errors.As(err, &perr) {
		t.Fatalf("err = %v, want a *PanicError", err)
	}
	if perr.Value != "injected task panic" {
		t.Errorf("PanicError.Value = %v", perr.Value)
	}
	if !strings.Contains(string(perr.Stack), "pool") {
		t.Errorf("PanicError.Stack does not look like a stack:\n%s", perr.Stack)
	}
	// The pool must still be usable after a panic (slot released).
	if err := p.Run(context.Background(), 4, func(context.Context, int) error { return nil }); err != nil {
		t.Errorf("pool unusable after panic: %v", err)
	}
}

// TestRunPanicIndexOrder checks panics join the aggregate in index
// order alongside plain errors.
func TestRunPanicIndexOrder(t *testing.T) {
	p := New(4)
	err := p.Run(context.Background(), 5, func(_ context.Context, i int) error {
		switch i {
		case 1:
			return fmt.Errorf("plain failure %d", i)
		case 3:
			panic(fmt.Sprintf("boom %d", i))
		}
		return nil
	})
	msg := err.Error()
	if !strings.Contains(msg, "plain failure 1") || !strings.Contains(msg, "boom 3") {
		t.Fatalf("aggregate missing failures: %v", msg)
	}
	if strings.Index(msg, "plain failure 1") > strings.Index(msg, "boom 3") {
		t.Errorf("errors not in index order: %v", msg)
	}
}

// The TestRunRetry tests drive Retry.Run, the one retry loop.

func TestRunRetrySucceedsAfterTransientFailures(t *testing.T) {
	retries := telemetry.NewCounter("pool_test_transient_retries_total", "test")
	attempts := 0
	err := Retry{Attempts: 4, BaseDelay: time.Microsecond, MaxDelay: 10 * time.Microsecond}.Run(
		context.Background(), retries, func() error {
			if attempts++; attempts < 3 {
				return fmt.Errorf("transient")
			}
			return nil
		})
	if err != nil {
		t.Fatalf("retry did not recover transient failure: %v", err)
	}
	if attempts != 3 {
		t.Errorf("attempts = %d, want 3", attempts)
	}
	if got := retries.Value(); got != 2 {
		t.Errorf("retries counted = %d, want 2", got)
	}
}

func TestRunRetryExhaustsAttempts(t *testing.T) {
	attempts := 0
	err := Retry{Attempts: 3}.Run(context.Background(), nil, func() error {
		attempts++
		return fmt.Errorf("permanent failure")
	})
	if err == nil || !strings.Contains(err.Error(), "permanent failure") {
		t.Fatalf("err = %v, want the final attempt's failure", err)
	}
	if attempts != 3 {
		t.Errorf("attempts = %d, want 3", attempts)
	}
	// The zero policy runs exactly once.
	attempts = 0
	if err := (Retry{}).Run(context.Background(), nil, func() error {
		attempts++
		return fmt.Errorf("once")
	}); err == nil || attempts != 1 {
		t.Errorf("zero policy: err = %v after %d attempts, want one failed attempt", err, attempts)
	}
}

// TestRunRetryRetriesPanics checks that a panic its caller converts to
// an error (here the pool's own recovery) is retried like any failure.
func TestRunRetryRetriesPanics(t *testing.T) {
	attempts := 0
	err := Retry{Attempts: 2}.Run(context.Background(), nil, func() error {
		return runProtected(context.Background(), 0, func(context.Context, int) error {
			if attempts++; attempts == 1 {
				panic("first attempt explodes")
			}
			return nil
		})
	})
	if err != nil {
		t.Fatalf("panicking first attempt not retried: %v", err)
	}
	if attempts != 2 {
		t.Errorf("attempts = %d, want 2", attempts)
	}
}

// TestRunRetryBackoffHonorsCancellation checks a cancelled context cuts
// the backoff wait short instead of sleeping out the full schedule.
func TestRunRetryBackoffHonorsCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	start := time.Now()
	done := make(chan error, 1)
	go func() {
		done <- Retry{Attempts: 10, BaseDelay: time.Hour}.Run(ctx, nil,
			func() error { return fmt.Errorf("always fails") })
	}()
	time.Sleep(10 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("err = %v, want context.Canceled in the join", err)
		}
		if !strings.Contains(err.Error(), "always fails") {
			t.Errorf("err = %v, want the attempt error preserved", err)
		}
		// The schedule is an hour per wait; a context-aware backoff
		// returns in milliseconds. Two seconds of slack absorbs CI noise
		// while still failing any path that actually sleeps.
		if elapsed := time.Since(start); elapsed > 2*time.Second {
			t.Errorf("backoff ignored cancellation (took %v)", elapsed)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("Retry.Run hung in backoff after cancellation")
	}
}

// TestRunRetryZeroDelayStopsWhenCancelled covers the no-backoff retry
// path: with a zero delay there is no timer to interrupt, so the loop
// must still notice a dead context between attempts instead of burning
// through the remaining attempts.
func TestRunRetryZeroDelayStopsWhenCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	calls := 0
	err := Retry{Attempts: 100}.Run(ctx, nil, func() error {
		if calls++; calls == 2 {
			cancel()
		}
		return fmt.Errorf("always fails")
	})
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled in the join", err)
	}
	if calls != 2 {
		t.Errorf("attempts after cancellation = %d, want 2", calls)
	}
}

func TestRetryBackoffCap(t *testing.T) {
	r := Retry{BaseDelay: time.Second, MaxDelay: 5 * time.Second}
	want := []time.Duration{time.Second, 2 * time.Second, 4 * time.Second, 5 * time.Second, 5 * time.Second}
	for i, w := range want {
		if got := r.backoff(i + 1); got != w {
			t.Errorf("backoff(%d) = %v, want %v", i+1, got, w)
		}
	}
	if got := (Retry{}).backoff(3); got != 0 {
		t.Errorf("zero-policy backoff = %v, want 0", got)
	}
}

// TestRetryBackoffUncappedNeverOverflows is the regression test for the
// MaxDelay == 0 overflow: ~63 doublings of a 1 s base used to wrap
// time.Duration negative, so the retry timer fired immediately and the
// "backoff" became a hot loop. Every attempt number, however absurd,
// must produce a positive, non-decreasing wait.
func TestRetryBackoffUncappedNeverOverflows(t *testing.T) {
	r := Retry{Attempts: 1 << 20, BaseDelay: time.Second}
	prev := time.Duration(0)
	for _, n := range []int{1, 2, 10, 32, 62, 63, 64, 65, 100, 1000, 1 << 20} {
		got := r.backoff(n)
		if got <= 0 {
			t.Fatalf("backoff(%d) = %v, want positive (overflowed)", n, got)
		}
		if got < prev {
			t.Fatalf("backoff(%d) = %v decreased from %v", n, got, prev)
		}
		prev = got
	}
	// A cap supplied by the caller still wins over the overflow clamp.
	capped := Retry{BaseDelay: time.Second, MaxDelay: time.Minute}
	if got := capped.backoff(200); got != time.Minute {
		t.Errorf("capped backoff(200) = %v, want %v", got, time.Minute)
	}
}

func TestRunEmptyAndDefaults(t *testing.T) {
	if err := New(2).Run(context.Background(), 0, nil); err != nil {
		t.Errorf("empty run: %v", err)
	}
	if w := New(0).Workers(); w != runtime.GOMAXPROCS(0) {
		t.Errorf("default workers = %d, want GOMAXPROCS %d", w, runtime.GOMAXPROCS(0))
	}
	if w := New(7).Workers(); w != 7 {
		t.Errorf("workers = %d", w)
	}
	// A pre-cancelled context reports cancellation even for n = 0 work.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := New(1).Run(ctx, 0, nil); !errors.Is(err, context.Canceled) {
		t.Errorf("pre-cancelled empty run err = %v", err)
	}
}
