package wtrace

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// The WTR1 wire layout, all integers and floats little-endian:
//
//	magic       "WTR1"                          4 bytes
//	version     uint32                          4 bytes
//	headerLen   uint32                          4 bytes
//	header      canonical JSON (Header)         headerLen bytes
//	streams     Threads × stream
//	fingerprint uint64 (FNV-1a 64 of all preceding bytes)
//
// where each stream is:
//
//	runCount    uint32
//	runs        runCount × (T float64, N uint32,
//	                        15 × metric float64, flags uint8)
//
// The header JSON is canonical: Decode re-marshals the parsed header
// and requires byte equality, so for every decodable trace
// encode(decode(bytes)) == bytes exactly — the fuzz round-trip bar.
const (
	magic      = "WTR1"
	runBytes   = 8 + 4 + numMetrics*8 + 1
	trailerLen = 8

	// maxHeaderLen bounds the JSON header; the canonical header for the
	// largest plausible machine is a few KB.
	maxHeaderLen = 1 << 20
	// maxThreads bounds the stream count against absurd headers.
	maxThreads = 1 << 16
)

// fnv1a64 matches align.Fingerprint's digest: FNV-1a 64.
type fnv1a64 uint64

const (
	fnvOffset = 0xcbf29ce484222325
	fnvPrime  = 0x100000001b3
)

func newFNV() fnv1a64 { return fnvOffset }

func (h fnv1a64) update(p []byte) fnv1a64 {
	v := uint64(h)
	for _, b := range p {
		v ^= uint64(b)
		v *= fnvPrime
	}
	return fnv1a64(v)
}

// headerJSON produces the canonical header bytes.
func headerJSON(h *Header) ([]byte, error) {
	b, err := json.Marshal(h)
	if err != nil {
		return nil, fmt.Errorf("wtrace: marshal header: %w", err)
	}
	return b, nil
}

// EncodeBytes serializes the trace in WTR1 format.
func (tr *Trace) EncodeBytes() ([]byte, error) {
	if err := tr.Validate(); err != nil {
		return nil, err
	}
	hdr, err := headerJSON(&tr.Header)
	if err != nil {
		return nil, err
	}
	if len(hdr) > maxHeaderLen {
		return nil, fmt.Errorf("wtrace: header too large (%d bytes)", len(hdr))
	}
	size := len(magic) + 4 + 4 + len(hdr) + trailerLen
	for _, runs := range tr.Streams {
		size += 4 + len(runs)*runBytes
	}
	buf := make([]byte, 0, size)
	buf = append(buf, magic...)
	buf = binary.LittleEndian.AppendUint32(buf, Version)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(hdr)))
	buf = append(buf, hdr...)
	for _, runs := range tr.Streams {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(runs)))
		for ri := range runs {
			r := &runs[ri]
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(r.T))
			buf = binary.LittleEndian.AppendUint32(buf, r.N)
			v, flags := demandValues(&r.D)
			for _, f := range v {
				buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(f))
			}
			buf = append(buf, flags)
		}
	}
	buf = binary.LittleEndian.AppendUint64(buf, uint64(newFNV().update(buf)))
	return buf, nil
}

// Encode writes the WTR1 serialization to w.
func (tr *Trace) Encode(w io.Writer) error {
	b, err := tr.EncodeBytes()
	if err != nil {
		return err
	}
	_, err = w.Write(b)
	return err
}

// WriteFile serializes the trace to path.
func (tr *Trace) WriteFile(path string) error {
	b, err := tr.EncodeBytes()
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// Fingerprint returns the trace's content digest — the hex form of the
// FNV-1a 64 trailer of its WTR1 serialization (same digest family as
// align.Fingerprint, so golden tests pin both the same way).
func (tr *Trace) Fingerprint() (string, error) {
	b, err := tr.EncodeBytes()
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("%016x", binary.LittleEndian.Uint64(b[len(b)-trailerLen:])), nil
}

// decodeErr wraps every decode rejection with enough context to act on.
func decodeErr(format string, args ...any) error {
	return fmt.Errorf("wtrace: decode: "+format, args...)
}

// DecodeBytes parses and fully validates a WTR1 serialization. It never
// panics on arbitrary input, rejects unknown versions, non-canonical or
// unknown-field headers, NaN/Inf rates, non-monotonic timestamps,
// unknown flag bits, truncated or trailing bytes, and fingerprint
// mismatches. For any accepted input, re-encoding reproduces the input
// bytes exactly.
func DecodeBytes(data []byte) (*Trace, error) {
	off := 0
	need := func(n int) ([]byte, error) {
		if n < 0 || len(data)-off < n {
			return nil, decodeErr("truncated at byte %d (need %d more)", off, n)
		}
		b := data[off : off+n]
		off += n
		return b, nil
	}
	m, err := need(len(magic))
	if err != nil {
		return nil, err
	}
	if string(m) != magic {
		return nil, decodeErr("bad magic %q", m)
	}
	b, err := need(4)
	if err != nil {
		return nil, err
	}
	if v := binary.LittleEndian.Uint32(b); v != Version {
		return nil, decodeErr("unknown version %d (want %d)", v, Version)
	}
	b, err = need(4)
	if err != nil {
		return nil, err
	}
	hlen := binary.LittleEndian.Uint32(b)
	if hlen > maxHeaderLen {
		return nil, decodeErr("header length %d exceeds %d", hlen, maxHeaderLen)
	}
	hdrBytes, err := need(int(hlen))
	if err != nil {
		return nil, err
	}
	var hdr Header
	dec := json.NewDecoder(bytes.NewReader(hdrBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&hdr); err != nil {
		return nil, decodeErr("header: %v", err)
	}
	if dec.More() {
		return nil, decodeErr("header: trailing JSON")
	}
	canon, err := headerJSON(&hdr)
	if err != nil {
		return nil, err
	}
	if !bytes.Equal(canon, hdrBytes) {
		return nil, decodeErr("non-canonical header encoding")
	}
	if hdr.Threads < 1 || hdr.Threads > maxThreads {
		return nil, decodeErr("thread count %d out of range [1,%d]", hdr.Threads, maxThreads)
	}
	tr := &Trace{Header: hdr, Streams: make([][]Run, hdr.Threads)}
	for ti := 0; ti < hdr.Threads; ti++ {
		b, err = need(4)
		if err != nil {
			return nil, err
		}
		count := binary.LittleEndian.Uint32(b)
		// Bound the allocation by the bytes actually present so a
		// forged count cannot balloon memory.
		if uint64(count)*runBytes > uint64(len(data)-off) {
			return nil, decodeErr("thread %d claims %d runs but only %d bytes remain", ti, count, len(data)-off)
		}
		runs := make([]Run, count)
		for ri := range runs {
			rb, err := need(runBytes)
			if err != nil {
				return nil, err
			}
			r := &runs[ri]
			r.T = math.Float64frombits(binary.LittleEndian.Uint64(rb[0:8]))
			r.N = binary.LittleEndian.Uint32(rb[8:12])
			var v [numMetrics]float64
			for mi := 0; mi < numMetrics; mi++ {
				v[mi] = math.Float64frombits(binary.LittleEndian.Uint64(rb[12+mi*8 : 20+mi*8]))
			}
			flags := rb[runBytes-1]
			if flags&^flagsKnown != 0 {
				return nil, decodeErr("thread %d run %d has unknown flag bits %#x", ti, ri, flags)
			}
			r.D = demandFromValues(&v, flags)
			// Canonicality: -0.0 and NaN payload variants would decode
			// to a Demand that re-encodes differently only if the bit
			// pattern differs; re-check the exact bits.
			if w, wf := demandValues(&r.D); wf != flags {
				return nil, decodeErr("thread %d run %d flags not canonical", ti, ri)
			} else {
				for mi := range w {
					if math.Float64bits(w[mi]) != math.Float64bits(v[mi]) {
						return nil, decodeErr("thread %d run %d metric %d not canonical", ti, ri, mi)
					}
				}
			}
		}
		tr.Streams[ti] = runs
	}
	b, err = need(trailerLen)
	if err != nil {
		return nil, err
	}
	want := binary.LittleEndian.Uint64(b)
	got := uint64(newFNV().update(data[:off-trailerLen]))
	if got != want {
		return nil, decodeErr("fingerprint mismatch: body %016x, trailer %016x", got, want)
	}
	if off != len(data) {
		return nil, decodeErr("%d trailing bytes", len(data)-off)
	}
	if err := tr.Validate(); err != nil {
		return nil, err
	}
	return tr, nil
}

// ReadFile decodes the trace at path.
func ReadFile(path string) (*Trace, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return DecodeBytes(data)
}
