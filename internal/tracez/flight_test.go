package tracez

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestFlightRingOrderAndWrap(t *testing.T) {
	f := NewFlightRecorder(8)
	for i := 0; i < 20; i++ {
		f.Note("test", "ev", int64(i))
	}
	evs := f.Events()
	if len(evs) != 8 {
		t.Fatalf("events = %d, want ring bound 8", len(evs))
	}
	for i := range evs {
		if want := int64(12 + i); evs[i].Arg != want {
			t.Errorf("events[%d].Arg = %d, want %d (oldest-first after wrap)", i, evs[i].Arg, want)
		}
		if i > 0 && evs[i].Seq != evs[i-1].Seq+1 {
			t.Errorf("seq gap: %d then %d", evs[i-1].Seq, evs[i].Seq)
		}
	}
}

func TestFlightConcurrentNotes(t *testing.T) {
	f := NewFlightRecorder(128)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				f.NoteTrace("race", "note", int64(g), NewTraceID())
			}
		}(g)
	}
	wg.Wait()
	evs := f.Events()
	if len(evs) == 0 || len(evs) > 128 {
		t.Fatalf("events = %d, want (0,128]", len(evs))
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].Seq <= evs[i-1].Seq {
			t.Errorf("out of order: seq %d after %d", evs[i].Seq, evs[i-1].Seq)
		}
	}
}

func TestDumpBundleWritesAllParts(t *testing.T) {
	dir := t.TempDir()
	rec := NewRecorder(Config{SampleRate: 1})
	fl := NewFlightRecorder(16)
	fl.Note("shedding", "queue full", 42)
	tr := rec.StartAt(NewTraceID(), "bundle-node", "", time.Now())
	tr.AddAt(EvShed, tr.Start, 7, "")
	tr.Outcome = "shed:queue_full"
	rec.Finish(tr)

	bundle, err := DumpBundle(dir, "shedding start!", rec, fl)
	if err != nil {
		t.Fatalf("DumpBundle: %v", err)
	}
	if !strings.Contains(filepath.Base(bundle), "shedding_start_") {
		t.Errorf("bundle dir %q: reason not sanitized in", bundle)
	}
	for _, name := range []string{"meta.json", "flight.json", "tracez.json", "metrics.prom", "goroutines.txt"} {
		fi, err := os.Stat(filepath.Join(bundle, name))
		if err != nil {
			t.Errorf("bundle missing %s: %v", name, err)
			continue
		}
		if fi.Size() == 0 {
			t.Errorf("bundle %s is empty", name)
		}
	}

	// The tracez snapshot inside the bundle must carry the shed trace.
	raw, err := os.ReadFile(filepath.Join(bundle, "tracez.json"))
	if err != nil {
		t.Fatal(err)
	}
	var snap Snapshot
	if err := json.Unmarshal(raw, &snap); err != nil {
		t.Fatalf("tracez.json: %v", err)
	}
	if len(snap.Errored) != 1 || snap.Errored[0].Node != "bundle-node" {
		t.Errorf("bundle tracez.json errored = %+v", snap.Errored)
	}
	// The goroutine dump includes this test's own goroutine.
	stacks, _ := os.ReadFile(filepath.Join(bundle, "goroutines.txt"))
	if !strings.Contains(string(stacks), "TestDumpBundleWritesAllParts") {
		t.Error("goroutines.txt does not contain the calling goroutine")
	}
}

func TestBundlerRateLimit(t *testing.T) {
	dir := t.TempDir()
	b := NewBundler(dir, NewRecorder(Config{}), NewFlightRecorder(8))
	b.MinInterval = time.Hour

	first, err := b.Trigger("degraded")
	if err != nil || first == "" {
		t.Fatalf("first trigger: dir=%q err=%v", first, err)
	}
	second, err := b.Trigger("degraded")
	if err != nil {
		t.Fatalf("second trigger: %v", err)
	}
	if second != "" {
		t.Errorf("second trigger within MinInterval wrote %q, want suppression", second)
	}
	if bundles, err := os.ReadDir(dir); err != nil || len(bundles) != 1 {
		t.Errorf("%d bundles under %s (%v), want 1", len(bundles), dir, err)
	}

	// A tiny interval re-arms the bundler.
	b.MinInterval = time.Nanosecond
	time.Sleep(time.Millisecond)
	third, err := b.Trigger("again")
	if err != nil || third == "" {
		t.Fatalf("third trigger after interval: dir=%q err=%v", third, err)
	}
}
