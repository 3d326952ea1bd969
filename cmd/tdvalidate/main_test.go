package main

import (
	"context"
	"testing"
	"time"
)

// An expiring deadline must yield the "incomplete" exit code, promptly
// and without hanging — the contract an interrupted CI job depends on.
func TestRunTimeoutExitsIncomplete(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	done := make(chan int, 1)
	go func() {
		done <- run(ctx, 7, 0.02, 1, "", false, false, false, "", "")
	}()
	select {
	case code := <-done:
		if code != 2 {
			t.Fatalf("exit code = %d, want 2 for an expired deadline", code)
		}
	case <-time.After(2 * time.Minute):
		t.Fatal("run did not return after its deadline expired")
	}
}

// A typo'd -mistrain name must be rejected, not silently ignored — an
// ignored typo would make CI's negative control vacuously pass.
func TestRunRejectsUnknownMistrain(t *testing.T) {
	if code := run(context.Background(), 7, 0.02, 1, "", false, false, false,
		"", "Banana"); code != 2 {
		t.Fatalf("unknown -mistrain exit = %d, want 2", code)
	}
}

// The full in-process pipeline: bless a corpus, gate cleanly (exit 0),
// then prove the gate fails (exit 1) when one model is mistrained.
func TestRunGateAndMistrain(t *testing.T) {
	if testing.Short() {
		t.Skip("runs three full validation passes")
	}
	golden := t.TempDir() + "/GOLDEN.json"
	if code := run(context.Background(), 7, 0.02, 0, golden, false, true, true,
		"", ""); code != 0 {
		t.Fatalf("update run exit = %d, want 0", code)
	}
	if code := run(context.Background(), 7, 0.02, 0, golden, true, false, true,
		"", ""); code != 0 {
		t.Fatalf("clean gate exit = %d, want 0", code)
	}
	if code := run(context.Background(), 7, 0.02, 0, golden, true, false, true,
		"", "Memory"); code != 1 {
		t.Fatalf("mistrained gate exit = %d, want 1", code)
	}
}
