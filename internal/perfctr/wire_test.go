package perfctr

import (
	"bytes"
	"encoding/binary"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"trickledown/internal/power"
)

func wireTestSamples() []Sample {
	return []Sample{
		{
			TargetSeconds: 1.0,
			IntervalSec:   1.001,
			CPUs: []CPUCounts{
				{Cycles: 2_800_000_000, HaltedCycles: 1_000_000_000, FetchedUops: 3_000_000_000,
					L3LoadMisses: 12_000, L3Misses: 15_000, TLBMisses: 900,
					BusTx: 40_000, BusPrefetchTx: 9_000, DMAOther: 3_000, Uncacheable: 120},
				{Cycles: 2_799_999_999, FetchedUops: 7},
			},
			Ints:      [][]uint64{{100, 2}, {0, 7}, {3, 0}},
			OSBusySec: []float64{0.75, 0.10},
		},
		{
			TargetSeconds:   2.0,
			IntervalSec:     0.999,
			CPUs:            []CPUCounts{{Cycles: 1}},
			OSThreadBusySec: []float64{0.5},
		},
		{TargetSeconds: 3.0, IntervalSec: 1.0}, // no CPUs at all
	}
}

func TestWireRoundTrip(t *testing.T) {
	in := wireTestSamples()
	buf, err := EncodeBatchFull(nil, "node07", in, TraceExt{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	node, out, _, _, err := new(Decoder).Decode(buf)
	if err != nil {
		t.Fatal(err)
	}
	if node != "node07" {
		t.Errorf("node = %q, want node07", node)
	}
	if len(out) != len(in) {
		t.Fatalf("decoded %d samples, want %d", len(out), len(in))
	}
	for i := range in {
		if !reflect.DeepEqual(normalizeSample(in[i]), normalizeSample(out[i])) {
			t.Errorf("sample %d round-trip mismatch:\n in: %+v\nout: %+v", i, in[i], out[i])
		}
	}
}

// normalizeSample maps an empty slice to nil and pads ragged interrupt
// rows, matching the rectangular wire representation.
func normalizeSample(s Sample) Sample {
	if len(s.CPUs) == 0 {
		s.CPUs = nil
	}
	if len(s.Ints) == 0 {
		s.Ints = nil
	} else {
		cols := 0
		for _, row := range s.Ints {
			if len(row) > cols {
				cols = len(row)
			}
		}
		padded := make([][]uint64, len(s.Ints))
		for v, row := range s.Ints {
			padded[v] = make([]uint64, cols)
			copy(padded[v], row)
		}
		s.Ints = padded
	}
	if len(s.OSBusySec) == 0 {
		s.OSBusySec = nil
	}
	if len(s.OSThreadBusySec) == 0 {
		s.OSThreadBusySec = nil
	}
	return s
}

func TestWireEncodeReusesBuffer(t *testing.T) {
	in := wireTestSamples()
	buf, err := EncodeBatchFull(nil, "n", in, TraceExt{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	again, err := EncodeBatchFull(buf[:0], "n", in, TraceExt{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if &again[0] != &buf[0] {
		t.Error("encode into a reused buffer reallocated")
	}
}

func TestWireDecodeRejectsCorruption(t *testing.T) {
	good, err := EncodeBatchFull(nil, "node", wireTestSamples(), TraceExt{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		mut  func([]byte) []byte
	}{
		{"empty", func(b []byte) []byte { return nil }},
		{"bad magic", func(b []byte) []byte { b[0] = 'X'; return b }},
		{"truncated header", func(b []byte) []byte { return b[:5] }},
		{"truncated mid-sample", func(b []byte) []byte { return b[:len(b)-9] }},
		{"trailing garbage", func(b []byte) []byte { return append(b, 0xFF) }},
		{"oversize sample count", func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[10:], 1<<30)
			return b
		}},
		{"count larger than payload", func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[10:], 1000)
			return b
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := tc.mut(append([]byte(nil), good...))
			if _, _, _, _, err := new(Decoder).Decode(b); err == nil {
				t.Errorf("corrupt batch decoded without error")
			}
		})
	}
}

func TestWireDecodeRejectsNonFiniteTimes(t *testing.T) {
	buf, err := EncodeBatchFull(nil, "n", []Sample{{TargetSeconds: 1, IntervalSec: math.NaN()}}, TraceExt{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, _, err := new(Decoder).Decode(buf); err == nil || !strings.Contains(err.Error(), "non-finite") {
		t.Errorf("NaN interval decoded without error (err=%v)", err)
	}
}

func TestWireEncodeRejectsOversize(t *testing.T) {
	if _, err := EncodeBatchFull(nil, strings.Repeat("n", maxWireNode+1), nil, TraceExt{}, nil); err == nil {
		t.Error("oversize node name encoded")
	}
	if _, err := EncodeBatchFull(nil, "n", []Sample{{CPUs: make([]CPUCounts, maxWireCPUs+1)}}, TraceExt{}, nil); err == nil {
		t.Error("oversize CPU count encoded")
	}
}

// FuzzDecodeBatch asserts the decoder never panics or over-allocates on
// arbitrary input — it is fed straight from HTTP request bodies — that
// whatever DecodeBatchFull accepts survives EncodeBatchFull and a
// second decode unchanged, and that a Decoder reused the way the live
// service reuses one (after a larger frame, a smaller frame and a
// rejected input) decodes data exactly as a fresh one does.
func FuzzDecodeBatch(f *testing.F) {
	good, err := EncodeBatchFull(nil, "node", wireTestSamples(), TraceExt{}, nil)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	f.Add(good[:12])
	f.Add([]byte("TDS1"))
	f.Add(fullFrame(f, 3))
	f.Add(emptyMatrixFrame(2, 5))
	// Cuts before and inside every length prefix of both frame shapes.
	for _, frame := range [][]byte{servedFrame(f, 2), fullFrame(f, 2)} {
		prefixes, _ := frameLayout(frame)
		for _, off := range prefixes {
			f.Add(frame[:off])
			f.Add(frame[:off+1])
		}
	}
	larger, smaller := fullFrame(f, 16), good
	f.Fuzz(func(t *testing.T, data []byte) {
		node, samples, ext, rails, err := DecodeBatchFull(data)

		var dec Decoder
		for _, prior := range [][]byte{larger, smaller, good[:len(good)-1]} {
			dec.Decode(prior)
		}
		node2, samples2, ext2, rails2, err2 := dec.Decode(data)
		if (err == nil) != (err2 == nil) {
			t.Fatalf("reused decoder: err %v, fresh decoder: err %v", err2, err)
		}
		if err != nil {
			return
		}
		if node2 != node || ext2 != ext || !reflect.DeepEqual(samples2, samples) || !railsBitsEqual(rails, rails2) {
			t.Fatalf("reused decoder differs from a fresh one:\nfresh: %q %+v %+v %v\nreused: %q %+v %+v %v",
				node, ext, samples, rails, node2, ext2, samples2, rails2)
		}

		if len(node) > maxWireNode || len(samples) > maxWireSamples {
			t.Fatalf("decoder exceeded wire limits: node=%d samples=%d", len(node), len(samples))
		}
		re, err := EncodeBatchFull(nil, node, samples, ext, rails)
		if err != nil {
			t.Fatalf("re-encode of decoded batch failed: %v", err)
		}
		node2, samples2, ext2, rails2, err = DecodeBatchFull(re)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		// A zero trace ID is "no extension" to the encoder, whatever
		// its flags said.
		if ext.IsZero() {
			ext = TraceExt{}
		}
		if node2 != node || ext2 != ext || !reflect.DeepEqual(samples2, samples) {
			t.Fatalf("round trip changed the batch:\n first: %q %+v %+v\nsecond: %q %+v %+v",
				node, ext, samples, node2, ext2, samples2)
		}
		if !railsBitsEqual(rails, rails2) {
			t.Fatalf("rails round trip: %v -> %v", rails, rails2)
		}
	})
}

// railsBitsEqual compares rails bit for bit, so NaN readings (rails
// are unchecked floats) compare equal to themselves, and nil differs
// from empty.
func railsBitsEqual(a, b []power.Reading) bool {
	if (a == nil) != (b == nil) || len(a) != len(b) {
		return false
	}
	for i := range a {
		for s := range a[i] {
			if math.Float64bits(a[i][s]) != math.Float64bits(b[i][s]) {
				return false
			}
		}
	}
	return true
}

// fullFrame encodes n samples shaped like wireTestSamples()[0] (two
// CPUs, a 3x2 interrupt matrix, OS busy times) with the TDX1 trace and
// TDP1 rails extensions: everything a live-service frame can carry.
func fullFrame(tb testing.TB, n int) []byte {
	tb.Helper()
	samples := make([]Sample, n)
	rails := make([]power.Reading, n)
	for i := range samples {
		samples[i] = wireTestSamples()[0]
		samples[i].TargetSeconds = float64(i)
		rails[i] = power.Reading{41.2, 19.1, 33.7, 33.0, float64(i)}
	}
	buf, err := EncodeBatchFull(nil, "node00", samples, TraceExt{ID: [16]byte{7}, Sampled: true}, rails)
	if err != nil {
		tb.Fatal(err)
	}
	return buf
}

// emptyMatrixFrame hand-builds a frame of n minimal samples that each
// declare nVec interrupt vectors with zero columns: 26 wire bytes per
// sample, no counts at all.
func emptyMatrixFrame(n, nVec int) []byte {
	buf := append([]byte(nil), wireMagic[:]...)
	buf = binary.LittleEndian.AppendUint16(buf, 1)
	buf = append(buf, 'n')
	buf = binary.LittleEndian.AppendUint32(buf, uint32(n))
	for i := 0; i < n; i++ {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(float64(i)))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(1))
		buf = binary.LittleEndian.AppendUint16(buf, 0)            // nCPU
		buf = binary.LittleEndian.AppendUint16(buf, uint16(nVec)) // nVec
		buf = binary.LittleEndian.AppendUint16(buf, 0)            // cols
		buf = binary.LittleEndian.AppendUint16(buf, 0)            // nBusy
		buf = binary.LittleEndian.AppendUint16(buf, 0)            // nThr
	}
	return buf
}

// decodeAllocBytes reports the heap bytes one DecodeBatchFull of buf
// allocates.
func decodeAllocBytes(buf []byte) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	DecodeBatchFull(buf)
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestWireDecodeAllocationBoundedByFrame: whatever a frame declares,
// decoding it allocates a bounded multiple of the bytes it actually
// carries, so a body under the HTTP size limit cannot demand gigabytes.
func TestWireDecodeAllocationBoundedByFrame(t *testing.T) {
	const maxAmplification = 64
	// One sample with the most CPUs the wire allows, then many minimal
	// samples: sizing the CPU slab from the first sample alone would ask
	// for 1024 CPUs per remaining sample.
	wide := Sample{TargetSeconds: 0, IntervalSec: 1, CPUs: make([]CPUCounts, maxWireCPUs)}
	mixed := append([]Sample{wide}, make([]Sample, 10_000)...)
	mixedBuf, err := EncodeBatchFull(nil, "n", mixed, TraceExt{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	hostileCount := emptyMatrixFrame(40, 0)
	binary.LittleEndian.PutUint32(hostileCount[7:], maxWireSamples)
	hostileCPUs := emptyMatrixFrame(40, 0)
	for off := 11 + 16; off < len(hostileCPUs); off += minSampleBytes {
		binary.LittleEndian.PutUint16(hostileCPUs[off:], maxWireCPUs)
	}
	cases := []struct {
		name    string
		buf     []byte
		decodes bool
	}{
		{"1000 samples x 4096 empty vectors", emptyMatrixFrame(1000, maxWireVectors), true},
		{"count beyond the samples present", hostileCount, false},
		{"max nCPU without the counters", hostileCPUs, false},
		{"one wide sample then 10k narrow", mixedBuf, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, _, _, _, err := DecodeBatchFull(tc.buf); (err == nil) != tc.decodes {
				t.Fatalf("decode err = %v, want success %v", err, tc.decodes)
			}
			if got, limit := decodeAllocBytes(tc.buf), uint64(maxAmplification*len(tc.buf)); got > limit {
				t.Errorf("decoding a %d-byte frame allocated %d bytes (%.0fx), want <= %dx",
					len(tc.buf), got, float64(got)/float64(len(tc.buf)), maxAmplification)
			}
		})
	}
}

// TestWireDecodeEmptyMatrixIsNil: a zero-column interrupt matrix decodes
// as nil Ints, and the accessors read zero either way.
func TestWireDecodeEmptyMatrixIsNil(t *testing.T) {
	_, samples, _, _, err := new(Decoder).Decode(emptyMatrixFrame(2, 8))
	if err != nil {
		t.Fatal(err)
	}
	for i := range samples {
		s := &samples[i]
		if s.Ints != nil || s.IntsTotal() != 0 || s.IntsForCPU(0) != 0 {
			t.Errorf("sample %d: Ints = %v, want nil reading zero", i, s.Ints)
		}
	}
}

// TestWireDecodeSlabsIsolateSamples: samples share per-batch slabs, so
// each slice must be capped at its own length — growing one sample's
// slices must never write into the next sample.
func TestWireDecodeSlabsIsolateSamples(t *testing.T) {
	_, samples, _, _, err := DecodeBatchFull(fullFrame(t, 3))
	if err != nil {
		t.Fatal(err)
	}
	next := samples[1]
	want := next
	want.CPUs = append([]CPUCounts(nil), next.CPUs...)
	want.Ints = make([][]uint64, len(next.Ints))
	for v, row := range next.Ints {
		want.Ints[v] = append([]uint64(nil), row...)
	}
	want.OSBusySec = append([]float64(nil), next.OSBusySec...)
	s := &samples[0]
	s.CPUs = append(s.CPUs, CPUCounts{Cycles: 99})
	s.Ints[0] = append(s.Ints[0], 99)
	s.Ints[len(s.Ints)-1] = append(s.Ints[len(s.Ints)-1], 99)
	s.Ints = append(s.Ints, []uint64{99})
	s.OSBusySec = append(s.OSBusySec, 99)
	if !reflect.DeepEqual(samples[1], want) {
		t.Errorf("appending to sample 0 changed sample 1:\n got %+v\nwant %+v", samples[1], want)
	}
}

// TestWireDecodeAllocsPerBatch gates the decode hot path: a full frame
// costs a fixed handful of allocations whatever its sample count, and
// none on a Decoder that has already decoded a frame of its shape.
func TestWireDecodeAllocsPerBatch(t *testing.T) {
	const maxAllocs = 10
	for _, n := range []int{64, 256, 1024} {
		buf := fullFrame(t, n)
		allocs := testing.AllocsPerRun(20, func() {
			if _, _, _, _, err := DecodeBatchFull(buf); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > maxAllocs {
			t.Errorf("%d-sample frame: %.0f allocs per decode, want <= %d", n, allocs, maxAllocs)
		}
		var dec Decoder
		if reused := testing.AllocsPerRun(20, func() {
			if _, _, _, _, err := dec.Decode(buf); err != nil {
				t.Fatal(err)
			}
		}); reused != 0 {
			t.Errorf("%d-sample frame: %.0f allocs per decode on a reused Decoder, want 0", n, reused)
		}
	}
}

// TestDecoderRetainedBytes: the storage a Decoder reports keeping — what
// a pool compares against its cap — is zero before any decode and, after
// one, covers at least the frame's decoded counters while staying
// within the decode's bounded multiple of the frame size.
func TestDecoderRetainedBytes(t *testing.T) {
	var dec Decoder
	if got := dec.RetainedBytes(); got != 0 {
		t.Fatalf("fresh decoder retains %d bytes, want 0", got)
	}
	buf := fullFrame(t, 256)
	if _, _, _, _, err := dec.Decode(buf); err != nil {
		t.Fatal(err)
	}
	if got := dec.RetainedBytes(); got < len(buf)/2 || got > 4*len(buf) {
		t.Errorf("decoder retains %d bytes after a %d-byte frame, want within [%d, %d]",
			got, len(buf), len(buf)/2, 4*len(buf))
	}
}

func BenchmarkWireEncodeBatch(b *testing.B) {
	samples := make([]Sample, 256)
	for i := range samples {
		samples[i] = wireTestSamples()[0]
		samples[i].TargetSeconds = float64(i)
	}
	var buf []byte
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var err error
		buf, err = EncodeBatchFull(buf[:0], "node00", samples, TraceExt{}, nil)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(len(buf)))
}

// BenchmarkWireDecodeBatch decodes the full 256-sample frame the live
// service decodes: counters, trace context and rails.
func BenchmarkWireDecodeBatch(b *testing.B) {
	buf := fullFrame(b, 256)
	b.ReportAllocs()
	b.SetBytes(int64(len(buf)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, _, _, err := DecodeBatchFull(buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWireDecodeReused decodes the same 256-sample frame with one
// Decoder, as tdserve's pooled decoders do once their storage has
// grown: a full frame, and the served shape (two CPUs, no matrix, no
// busy vectors, a trace context).
func BenchmarkWireDecodeReused(b *testing.B) {
	for _, bc := range []struct {
		name  string
		frame func(testing.TB, int) []byte
	}{{"full", fullFrame}, {"served", servedFrame}} {
		b.Run(bc.name, func(b *testing.B) {
			buf := bc.frame(b, 256)
			var dec Decoder
			b.ReportAllocs()
			b.SetBytes(int64(len(buf)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, _, _, err := dec.Decode(buf); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func TestWireTraceExtRoundTrip(t *testing.T) {
	in := wireTestSamples()
	ext := TraceExt{Sampled: true}
	for i := range ext.ID {
		ext.ID[i] = byte(i + 1)
	}
	buf, err := EncodeBatchExt(nil, "node07", in, ext)
	if err != nil {
		t.Fatal(err)
	}
	node, out, got, err := DecodeBatchExt(buf)
	if err != nil {
		t.Fatal(err)
	}
	if node != "node07" || len(out) != len(in) {
		t.Fatalf("node=%q samples=%d, want node07/%d", node, len(out), len(in))
	}
	if got != ext {
		t.Errorf("ext round-trip = %+v, want %+v", got, ext)
	}

	// Unsampled flag round-trips too.
	ext.Sampled = false
	buf, err = EncodeBatchExt(nil, "n", in[:1], ext)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, got, err = DecodeBatchExt(buf); err != nil || got.Sampled || got.ID != ext.ID {
		t.Errorf("unsampled ext = %+v err=%v", got, err)
	}
}

func TestWireTraceExtZeroIsByteIdentical(t *testing.T) {
	in := wireTestSamples()
	plain, err := EncodeBatchFull(nil, "n", in, TraceExt{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	extd, err := EncodeBatchExt(nil, "n", in, TraceExt{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain, extd) {
		t.Error("zero TraceExt changed the encoding")
	}
	if _, _, ext, err := DecodeBatchExt(plain); err != nil || !ext.IsZero() {
		t.Errorf("ext on plain batch = %+v err=%v, want zero", ext, err)
	}
}

func TestWireTraceExtRejectsMalformed(t *testing.T) {
	in := wireTestSamples()[:1]
	good, err := EncodeBatchExt(nil, "n", in, TraceExt{ID: [16]byte{1}, Sampled: true})
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"truncated ext":     good[:len(good)-1],
		"oversized ext":     append(append([]byte{}, good...), 0),
		"bad ext magic":     append([]byte{}, good...),
		"unknown ext flags": append([]byte{}, good...),
	}
	cases["bad ext magic"][len(good)-extLen] = 'X'
	cases["unknown ext flags"][len(good)-extLen+4] = 0x80
	for name, buf := range cases {
		if _, _, _, err := DecodeBatchExt(buf); err == nil {
			t.Errorf("%s: decode accepted malformed extension", name)
		}
	}
}

func TestWireRailsRoundTrip(t *testing.T) {
	in := wireTestSamples()
	rails := []power.Reading{
		{41.2, 19.1, 33.7, 33.0, 21.9},
		{38.5, 19.0, 29.1, 32.8, 21.6},
		{36.0, 18.9, 28.4, 32.7, 21.6},
	}
	ext := TraceExt{Sampled: true}
	ext.ID[0], ext.ID[15] = 0xab, 0xcd
	buf, err := EncodeBatchFull(nil, "node07", in, ext, rails)
	if err != nil {
		t.Fatal(err)
	}
	node, out, gotExt, gotRails, err := DecodeBatchFull(buf)
	if err != nil {
		t.Fatal(err)
	}
	if node != "node07" || len(out) != len(in) {
		t.Fatalf("node=%q samples=%d", node, len(out))
	}
	if gotExt != ext {
		t.Errorf("ext = %+v, want %+v", gotExt, ext)
	}
	if !reflect.DeepEqual(gotRails, rails) {
		t.Errorf("rails = %+v, want %+v", gotRails, rails)
	}
	// Rails without a trace context also round-trip.
	buf, err = EncodeBatchFull(nil, "n", in, TraceExt{}, rails)
	if err != nil {
		t.Fatal(err)
	}
	_, _, gotExt, gotRails, err = DecodeBatchFull(buf)
	if err != nil {
		t.Fatal(err)
	}
	if !gotExt.IsZero() || !reflect.DeepEqual(gotRails, rails) {
		t.Errorf("rails-only decode: ext=%+v rails=%+v", gotExt, gotRails)
	}
	// Pre-rails decoders tolerate the block (and discard it).
	if _, _, _, err := DecodeBatchExt(buf); err != nil {
		t.Errorf("DecodeBatchExt on rails batch: %v", err)
	}
	// The rails block only appends: the frame without extensions is a
	// prefix of the rails batch.
	plain, err := EncodeBatchFull(nil, "n", in, TraceExt{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(buf, plain) {
		t.Error("rails batch does not extend the plain frame")
	}
}

func TestWireRailsRejectsMalformed(t *testing.T) {
	in := wireTestSamples()
	rails := []power.Reading{{1, 2, 3, 4, 5}, {1, 2, 3, 4, 5}, {1, 2, 3, 4, 5}}
	if _, err := EncodeBatchFull(nil, "n", in, TraceExt{}, rails[:2]); err == nil {
		t.Error("encoder accepted rails/sample count mismatch")
	}
	good, err := EncodeBatchFull(nil, "n", in, TraceExt{}, rails)
	if err != nil {
		t.Fatal(err)
	}
	base, err := EncodeBatchFull(nil, "n", in, TraceExt{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	railsBlock := good[len(base):]

	cases := map[string][]byte{
		"truncated rails": good[:len(good)-4],
		"duplicate rails": append(append([]byte{}, good...), railsBlock...),
		"count mismatch": func() []byte {
			b := append([]byte{}, good...)
			binary.LittleEndian.PutUint32(b[len(base)+4:], 2)
			return b
		}(),
		"unknown magic": append(append([]byte{}, base...), 'T', 'D', 'Z', '9', 0, 0, 0, 0),
		"short magic":   append(append([]byte{}, base...), 'T', 'D'),
	}
	for name, buf := range cases {
		if _, _, _, _, err := DecodeBatchFull(buf); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// servedFrame encodes n samples of the shape tdserve ingests: two CPUs,
// no interrupt matrix, no busy vectors, and a TDX1 trace context.
func servedFrame(tb testing.TB, n int) []byte {
	tb.Helper()
	samples := make([]Sample, n)
	for i := range samples {
		samples[i] = Sample{TargetSeconds: float64(i), IntervalSec: 1, CPUs: wireTestSamples()[0].CPUs}
	}
	buf, err := EncodeBatchFull(nil, "node00", samples, TraceExt{ID: [16]byte{3}}, nil)
	if err != nil {
		tb.Fatal(err)
	}
	return buf
}

// frameLayout walks a well-formed frame and returns the offset of each
// length prefix (node, count, every sample's five, the rails count)
// and the offsets where the frame could end: after the last sample and
// after each trailing block.
func frameLayout(frame []byte) (prefixes, ends []int) {
	u16 := func(off int) int { return int(binary.LittleEndian.Uint16(frame[off:])) }
	prefixes = append(prefixes, 4)
	off := 6 + u16(4)
	prefixes = append(prefixes, off)
	n := int(binary.LittleEndian.Uint32(frame[off:]))
	off += 4
	for i := 0; i < n; i++ {
		off += 16
		prefixes = append(prefixes, off)
		off += 2 + u16(off)*cpuWireBytes
		prefixes = append(prefixes, off, off+2)
		off += 4 + u16(off)*u16(off+2)*8
		for k := 0; k < 2; k++ {
			prefixes = append(prefixes, off)
			off += 2 + u16(off)*8
		}
	}
	ends = append(ends, off)
	for off < len(frame) {
		switch [4]byte(frame[off : off+4]) {
		case extMagic:
			off += extLen
		case railsMagic:
			prefixes = append(prefixes, off+4)
			off += 8 + int(binary.LittleEndian.Uint32(frame[off+4:]))*power.NumSubsystems*8
		default:
			panic("frameLayout: not a well-formed frame")
		}
		ends = append(ends, off)
	}
	return prefixes, ends
}

// TestDecodeTotalAtEveryCut: every truncation of a served-shape frame
// and of a full frame returns an error without panicking, except a cut
// that ends exactly at a block boundary, which is a shorter valid frame.
// After each cut, the same Decoder decodes the whole frame exactly as a
// fresh one does.
func TestDecodeTotalAtEveryCut(t *testing.T) {
	for _, tc := range []struct {
		name  string
		frame []byte
	}{
		{"served", servedFrame(t, 3)},
		{"full", fullFrame(t, 3)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			node, samples, ext, rails, err := DecodeBatchFull(tc.frame)
			if err != nil {
				t.Fatal(err)
			}
			_, ends := frameLayout(tc.frame)
			valid := map[int]bool{}
			for _, e := range ends {
				valid[e] = true
			}
			var dec Decoder
			for cut := 0; cut <= len(tc.frame); cut++ {
				_, _, _, _, err := dec.Decode(tc.frame[:cut])
				if valid[cut] != (err == nil) {
					t.Fatalf("cut at %d of %d: err %v, want an error: %v", cut, len(tc.frame), err, !valid[cut])
				}
				node2, samples2, ext2, rails2, err := dec.Decode(tc.frame)
				if err != nil {
					t.Fatalf("whole frame after a cut at %d: %v", cut, err)
				}
				if node2 != node || ext2 != ext || !reflect.DeepEqual(samples2, samples) || !railsBitsEqual(rails2, rails) {
					t.Fatalf("whole frame after a cut at %d differs from a fresh decode", cut)
				}
			}
		})
	}
}
