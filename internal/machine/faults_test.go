package machine

import (
	"context"
	"errors"
	"strings"
	"testing"

	"trickledown/internal/workload"
)

// stubCrash crashes (or panics) the machine once simulated time reaches
// At.
type stubCrash struct {
	at       float64
	err      error
	panicToo bool
}

func (c *stubCrash) CrashErr(now float64) error {
	if c.err != nil && now >= c.at {
		return c.err
	}
	return nil
}

func (c *stubCrash) PanicAt(now float64) bool {
	return c.panicToo && now >= c.at
}

func testServer(t *testing.T, seed uint64) *Server {
	t.Helper()
	spec, err := workload.ByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Seed = seed
	srv, err := New(cfg, spec)
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

func TestCrashInjectorStopsRunAndStaysDead(t *testing.T) {
	srv := testServer(t, 11)
	boom := errors.New("injected node crash")
	srv.SetCrashInjector(&stubCrash{at: 5, err: boom})
	err := srv.RunContext(context.Background(), 20)
	if !errors.Is(err, boom) {
		t.Fatalf("RunContext err = %v, want the injected crash", err)
	}
	if !errors.Is(srv.CrashErr(), boom) {
		t.Errorf("CrashErr = %v", srv.CrashErr())
	}
	// Samples from before the crash survive.
	ds, dsErr := srv.Dataset()
	if dsErr != nil {
		t.Fatalf("Dataset after crash: %v", dsErr)
	}
	if n := ds.Len(); n < 3 || n > 6 {
		t.Errorf("dataset has %d rows, want ~5 (crash at 5s)", n)
	}
	// The machine stays dead: a fresh run fails immediately and collects
	// nothing new.
	if err := srv.RunContext(context.Background(), 10); !errors.Is(err, boom) {
		t.Fatalf("second RunContext err = %v, want the crash again", err)
	}
	ds2, _ := srv.Dataset()
	if ds2.Len() != ds.Len() {
		t.Errorf("dead machine kept sampling: %d -> %d rows", ds.Len(), ds2.Len())
	}
}

func TestCrashInjectorCrashesPromptly(t *testing.T) {
	srv := testServer(t, 12)
	boom := errors.New("late crash")
	srv.SetCrashInjector(&stubCrash{at: 2, err: boom})
	if err := srv.RunContext(context.Background(), 60); !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	// The engine aborts at the next cancellation check, not at the end of
	// the requested 60 s: the clock should be barely past the crash time.
	if now := srv.clock.Seconds(); now > 3 {
		t.Errorf("run kept stepping to %.2fs after a 2s crash", now)
	}
}

func TestPanicInjectorUnwindsTheRun(t *testing.T) {
	srv := testServer(t, 13)
	srv.SetCrashInjector(&stubCrash{at: 1, err: nil, panicToo: true})
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("injected panic did not surface")
		}
		if !strings.Contains(r.(string), "injected panic") {
			t.Errorf("panic value = %v", r)
		}
	}()
	_ = srv.RunContext(context.Background(), 10)
}

func TestNilInjectorUnchanged(t *testing.T) {
	a, b := testServer(t, 14), testServer(t, 14)
	b.SetCrashInjector(nil)
	a.Run(10)
	if err := b.RunContext(context.Background(), 10); err != nil {
		t.Fatal(err)
	}
	dsA, err := a.Dataset()
	if err != nil {
		t.Fatal(err)
	}
	dsB, err := b.Dataset()
	if err != nil {
		t.Fatal(err)
	}
	if dsA.Len() != dsB.Len() {
		t.Fatalf("row counts differ: %d vs %d", dsA.Len(), dsB.Len())
	}
	for i := range dsA.Rows {
		if dsA.Rows[i].Power != dsB.Rows[i].Power {
			t.Fatalf("row %d power differs with a nil injector installed", i)
		}
	}
}
