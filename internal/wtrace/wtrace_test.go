package wtrace

import (
	"bytes"
	"math"
	"reflect"
	"strings"
	"testing"

	"trickledown/internal/machine"
	"trickledown/internal/sim"
	"trickledown/internal/workload"
)

// testTrace builds a small valid two-thread trace by hand.
func testTrace() *Trace {
	d1 := workload.Demand{Active: 0.8, UopsPerCycle: 1.2, L3MissPerKuop: 0.5, MemLocality: 0.9}
	d2 := workload.Demand{Active: 0.4, UopsPerCycle: 0.6, DiskReadBytes: 4096, RandomIO: true, Sync: true}
	tr := &Trace{
		Header: Header{
			Workload:   "unit",
			RatePerSec: 1000,
			Threads:    2,
			Starts:     []float64{0, 5},
			Metrics:    Metrics(),
			Samples:    7,
		},
		Streams: [][]Run{
			{{T: 0, N: 3, D: d1}, {T: 0.003, N: 2, D: d2}},
			{{T: 0, N: 2, D: d1}},
		},
	}
	return tr
}

func TestCodecRoundTrip(t *testing.T) {
	tr := testTrace()
	enc, err := tr.EncodeBytes()
	if err != nil {
		t.Fatal(err)
	}
	dec, err := DecodeBytes(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tr, dec) {
		t.Fatalf("decode mismatch:\n got %+v\nwant %+v", dec, tr)
	}
	re, err := dec.EncodeBytes()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(enc, re) {
		t.Fatal("encode(decode(x)) != x")
	}
	fp1, err := tr.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	fp2, err := dec.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if fp1 != fp2 || len(fp1) != 16 {
		t.Fatalf("fingerprint mismatch %q vs %q", fp1, fp2)
	}
}

func TestDecodeRejectsTruncation(t *testing.T) {
	enc, err := testTrace().EncodeBytes()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(enc); i++ {
		if _, err := DecodeBytes(enc[:i]); err == nil {
			t.Fatalf("truncation to %d bytes accepted", i)
		}
	}
	if _, err := DecodeBytes(append(append([]byte(nil), enc...), 0)); err == nil {
		t.Fatal("trailing byte accepted")
	}
}

func TestDecodeRejectsCorruption(t *testing.T) {
	enc, err := testTrace().EncodeBytes()
	if err != nil {
		t.Fatal(err)
	}
	for _, pos := range []int{0, 5, 9, 20, len(enc) / 2, len(enc) - 4} {
		bad := append([]byte(nil), enc...)
		bad[pos] ^= 0x40
		if _, err := DecodeBytes(bad); err == nil {
			t.Fatalf("flipped byte at %d accepted", pos)
		}
	}
}

func TestValidateRejections(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Trace)
		want   string
	}{
		{"empty workload", func(tr *Trace) { tr.Header.Workload = "" }, "workload name"},
		{"zero rate", func(tr *Trace) { tr.Header.RatePerSec = 0 }, "sample rate"},
		{"nan rate", func(tr *Trace) { tr.Header.RatePerSec = math.NaN() }, "sample rate"},
		{"inf rate", func(tr *Trace) { tr.Header.RatePerSec = math.Inf(1) }, "sample rate"},
		{"starts mismatch", func(tr *Trace) { tr.Header.Starts = tr.Header.Starts[:1] }, "starts"},
		{"negative start", func(tr *Trace) { tr.Header.Starts[1] = -1 }, "invalid start"},
		{"nan bias", func(tr *Trace) { tr.Header.ChipsetDomainBias = math.NaN() }, "chipset bias"},
		{"bad metric", func(tr *Trace) { tr.Header.Metrics[3] = "mystery" }, "metric 3"},
		{"missing metric", func(tr *Trace) { tr.Header.Metrics = tr.Header.Metrics[:14] }, "metrics"},
		{"zero-length run", func(tr *Trace) { tr.Streams[0][1].N = 0 }, "zero length"},
		{"nan time", func(tr *Trace) { tr.Streams[0][1].T = math.NaN() }, "invalid time"},
		{"non-monotonic", func(tr *Trace) { tr.Streams[0][1].T = 0 }, "not monotonic"},
		{"overlapping runs", func(tr *Trace) { tr.Streams[0][1].T = 0.001 }, "not monotonic"},
		{"nan demand", func(tr *Trace) { tr.Streams[1][0].D.Active = math.NaN() }, "active"},
		{"inf demand", func(tr *Trace) { tr.Streams[1][0].D.DiskReadBytes = math.Inf(1) }, "disk_read_bytes"},
		{"sample count", func(tr *Trace) { tr.Header.Samples = 99 }, "samples"},
	}
	for _, tc := range cases {
		tr := testTrace()
		tc.mutate(tr)
		err := tr.Validate()
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

func TestDecodeRejectsUnknownVersionAndFlags(t *testing.T) {
	enc, err := testTrace().EncodeBytes()
	if err != nil {
		t.Fatal(err)
	}
	bad := append([]byte(nil), enc...)
	bad[4] = 9 // version little-endian low byte
	if _, err := DecodeBytes(bad); err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("unknown version: %v", err)
	}
	// The final run's flags byte sits runBytes into the last stream,
	// trailerLen+1 from the end.
	bad = append([]byte(nil), enc...)
	bad[len(bad)-trailerLen-1] |= 0x80
	if _, err := DecodeBytes(bad); err == nil {
		t.Fatal("unknown flag bits accepted")
	}
}

func TestRecorderRLEAndReplayCursor(t *testing.T) {
	rec, err := NewRecorder("rle", 1000, 1)
	if err != nil {
		t.Fatal(err)
	}
	steady := workload.Demand{Active: 0.5, UopsPerCycle: 1}
	burst := workload.Demand{Active: 1, UopsPerCycle: 2}
	g, err := rec.Wrap(0, 0, constGen{d: steady})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rec.Wrap(0, 0, constGen{}); err == nil {
		t.Fatal("double wrap accepted")
	}
	rng := sim.NewRNG(1)
	var env workload.Env
	for i := 0; i < 2000; i++ {
		tt := float64(i) * 0.001
		if i >= 500 && i < 600 {
			g.(*recordGen).inner = constGen{d: burst}
		} else {
			g.(*recordGen).inner = constGen{d: steady}
		}
		g.Demand(tt, env, rng)
	}
	tr, err := rec.Trace()
	if err != nil {
		t.Fatal(err)
	}
	if got := len(tr.Streams[0]); got != 3 {
		t.Fatalf("RLE produced %d runs, want 3", got)
	}
	if tr.Header.Samples != 2000 {
		t.Fatalf("samples = %d", tr.Header.Samples)
	}

	rp, err := tr.Generator(0)
	if err != nil {
		t.Fatal(err)
	}
	// Sequential, out-of-order rewind, and past-the-end clamping.
	if d := rp.Demand(0.550, env, rng); d != burst {
		t.Fatalf("t=0.550: %+v", d)
	}
	if d := rp.Demand(0.100, env, rng); d != steady {
		t.Fatalf("rewind t=0.100: %+v", d)
	}
	if d := rp.Demand(5.0, env, rng); d != steady {
		t.Fatalf("past end: %+v", d)
	}
	if _, err := tr.Generator(1); err == nil {
		t.Fatal("out-of-range thread accepted")
	}
}

func TestReplayMatchesRecordedSequence(t *testing.T) {
	rec, err := NewRecorder("seq", 1000, 1)
	if err != nil {
		t.Fatal(err)
	}
	inner := &rampGen{}
	g, err := rec.Wrap(0, 0, inner)
	if err != nil {
		t.Fatal(err)
	}
	rng := sim.NewRNG(1)
	var env workload.Env
	var live []workload.Demand
	for i := 0; i < 300; i++ {
		live = append(live, g.Demand(float64(i)*0.001, env, rng))
	}
	tr, err := rec.Trace()
	if err != nil {
		t.Fatal(err)
	}
	enc, err := tr.EncodeBytes()
	if err != nil {
		t.Fatal(err)
	}
	dec, err := DecodeBytes(enc)
	if err != nil {
		t.Fatal(err)
	}
	rp, err := dec.Generator(0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 300; i++ {
		if d := rp.Demand(float64(i)*0.001, env, rng); d != live[i] {
			t.Fatalf("interval %d: replay %+v != live %+v", i, d, live[i])
		}
	}
}

// TestPlacementsKeepRecordedStarts: Placements puts stream i on thread
// i at its recorded start, uniform stagger or not, and each placement's
// generator replays its own stream.
func TestPlacementsKeepRecordedStarts(t *testing.T) {
	tr := testTrace()
	tr.Header.Threads = 3
	tr.Header.Starts = []float64{0, 5, 11}
	tr.Header.Samples = 9
	tr.Streams = append(tr.Streams, []Run{{T: 0, N: 2, D: workload.Demand{Active: 1}}})
	pl, err := tr.Placements()
	if err != nil {
		t.Fatal(err)
	}
	if len(pl) != 3 {
		t.Fatalf("%d placements for 3 streams", len(pl))
	}
	for i, p := range pl {
		if p.Thread != i || p.StartSec != tr.Header.Starts[i] || p.Workload != "replay:unit" || p.Spec == nil {
			t.Fatalf("placement %d: %+v", i, p)
		}
		want := tr.Streams[i][0].D
		if d := p.Spec.Make(i, sim.NewRNG(1)).Demand(0, workload.Env{}, sim.NewRNG(1)); d != want {
			t.Fatalf("placement %d replays %+v, stream starts %+v", i, d, want)
		}
	}
	tr.Header.Starts[2] = -1
	if _, err := tr.Placements(); err == nil {
		t.Fatal("invalid start accepted")
	}
}

// TestDurationIgnoresUnstartedThreads records 30 s of gcc, whose eight
// instances start 30 s apart: only thread 0 ever runs, so the trace
// lasts 30 s, not the 210 s of the last thread's start offset.
func TestDurationIgnoresUnstartedThreads(t *testing.T) {
	spec, err := workload.ByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	cfg := machine.DefaultConfig()
	rec, err := NewRecorder(spec.Name, 1/cfg.Slice.Seconds(), spec.Instances)
	if err != nil {
		t.Fatal(err)
	}
	if spec, err = RecordSpec(spec, rec); err != nil {
		t.Fatal(err)
	}
	srv, err := machine.New(cfg, spec)
	if err != nil {
		t.Fatal(err)
	}
	srv.Run(30)
	tr, err := rec.Trace()
	if err != nil {
		t.Fatal(err)
	}
	if got := tr.Duration(); got != 30 {
		t.Errorf("Duration() = %v, want 30", got)
	}
}

func TestEmptyStreamReplaysIdle(t *testing.T) {
	tr := testTrace()
	tr.Streams[1] = nil
	tr.Header.Samples = 5
	enc, err := tr.EncodeBytes()
	if err != nil {
		t.Fatal(err)
	}
	dec, err := DecodeBytes(enc)
	if err != nil {
		t.Fatal(err)
	}
	rp, err := dec.Generator(1)
	if err != nil {
		t.Fatal(err)
	}
	if d := rp.Demand(1.0, workload.Env{}, sim.NewRNG(1)); d != (workload.Demand{}) {
		t.Fatalf("empty stream demanded %+v", d)
	}
}

type constGen struct{ d workload.Demand }

func (g constGen) Demand(t float64, env workload.Env, rng *sim.RNG) workload.Demand {
	return g.d
}

// rampGen produces a distinct demand every interval (worst case for RLE).
type rampGen struct{ n int }

func (g *rampGen) Demand(t float64, env workload.Env, rng *sim.RNG) workload.Demand {
	g.n++
	return workload.Demand{Active: float64(g.n%100) / 100, UopsPerCycle: 1}
}
