package wtrace

import (
	"bytes"
	"testing"

	"trickledown/internal/sim"
	"trickledown/internal/workload"
)

// fuzzSeedCorpus returns representative encodings to seed both fuzzers:
// a valid multi-run trace, a minimal single-run trace, and a trace with
// flags and an empty stream.
func fuzzSeedCorpus(f *testing.F) [][]byte {
	f.Helper()
	var seeds [][]byte
	add := func(tr *Trace) {
		enc, err := tr.EncodeBytes()
		if err != nil {
			f.Fatal(err)
		}
		seeds = append(seeds, enc)
	}
	add(testTrace())
	add(&Trace{
		Header: Header{
			Workload: "min", RatePerSec: 1, Threads: 1,
			Starts: []float64{0}, Metrics: Metrics(), Samples: 1,
		},
		Streams: [][]Run{{{T: 0, N: 1, D: workload.Demand{Active: 1}}}},
	})
	add(&Trace{
		Header: Header{
			Workload: "flags", RatePerSec: 1000, Threads: 2,
			Starts: []float64{0, 0}, Metrics: Metrics(), Samples: 4,
			ChipsetDomainBias: -0.4,
		},
		Streams: [][]Run{
			{{T: 0, N: 4, D: workload.Demand{Active: 0.5, DiskWriteBytes: 1 << 20, RandomIO: true, Sync: true}}},
			nil,
		},
	})
	return seeds
}

// FuzzDecodeWTR1 feeds arbitrary bytes to the decoder: it must never
// panic, and anything it accepts must re-encode to the identical bytes
// and satisfy Validate.
func FuzzDecodeWTR1(f *testing.F) {
	for _, s := range fuzzSeedCorpus(f) {
		f.Add(s)
	}
	f.Add([]byte("WTR1"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := DecodeBytes(data)
		if err != nil {
			return
		}
		if verr := tr.Validate(); verr != nil {
			t.Fatalf("decoded trace fails Validate: %v", verr)
		}
		re, err := tr.EncodeBytes()
		if err != nil {
			t.Fatalf("accepted trace fails to re-encode: %v", err)
		}
		if !bytes.Equal(re, data) {
			t.Fatalf("encode(decode(x)) != x: %d vs %d bytes", len(re), len(data))
		}
	})
}

// FuzzReplayRoundTrip drives the recorder with fuzzer-chosen demand
// programs, round-trips the trace through the codec, and requires the
// replay generator to reproduce the recorded per-interval demands and
// the re-encode to be byte-identical.
func FuzzReplayRoundTrip(f *testing.F) {
	f.Add(uint16(50), int64(3), false)
	f.Add(uint16(1), int64(99), true)
	f.Add(uint16(1000), int64(17), false)
	f.Fuzz(func(t *testing.T, intervals uint16, seed int64, flip bool) {
		if intervals == 0 {
			intervals = 1
		}
		rec, err := NewRecorder("fuzz", 1000, 1)
		if err != nil {
			t.Fatal(err)
		}
		rng := sim.NewRNG(uint64(seed))
		gen := &fuzzGen{rng: rng, flip: flip}
		g, err := rec.Wrap(0, 0, gen)
		if err != nil {
			t.Fatal(err)
		}
		var env workload.Env
		var live []workload.Demand
		for i := 0; i < int(intervals); i++ {
			live = append(live, g.Demand(float64(i)*0.001, env, nil))
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
			t.Fatalf("decode of fresh encoding failed: %v", err)
		}
		re, err := dec.EncodeBytes()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc, re) {
			t.Fatal("round-trip not byte-identical")
		}
		rp, err := dec.Generator(0)
		if err != nil {
			t.Fatal(err)
		}
		for i := range live {
			if d := rp.Demand(float64(i)*0.001, env, nil); d != live[i] {
				t.Fatalf("interval %d: replay %+v != recorded %+v", i, d, live[i])
			}
		}
	})
}

// fuzzGen emits seeded pseudo-random demands with occasional repeats
// (exercising both RLE merge and run breaks) and flag toggles.
type fuzzGen struct {
	rng  *sim.RNG
	flip bool
	last workload.Demand
	n    int
}

func (g *fuzzGen) Demand(t float64, env workload.Env, rng *sim.RNG) workload.Demand {
	g.n++
	if g.n > 1 && g.rng.Float64() < 0.5 {
		return g.last // repeat: must merge into the current run
	}
	d := workload.Demand{
		Active:        g.rng.Float64(),
		UopsPerCycle:  2 * g.rng.Float64(),
		L3MissPerKuop: 5 * g.rng.Float64(),
		DiskReadBytes: float64(g.rng.Intn(1 << 20)),
		RandomIO:      g.flip && g.n%3 == 0,
		Sync:          g.flip && g.n%5 == 0,
	}
	g.last = d
	return d
}
