package perfctr

import (
	"encoding/binary"
	"fmt"
	"math"

	"trickledown/internal/power"
)

// Wire format for shipping counter samples off the sampled box to a
// live estimation service (cmd/tdserve). The paper's pipeline moved
// samples over a serial-synced offline log merge; the online pipeline
// moves the same 1 Hz schema over HTTP, so the format optimizes for the
// ingest hot path: fixed-width little-endian fields, one allocation-free
// append pass to encode, and a decoder that validates every length
// prefix against the remaining buffer before allocating anything, so a
// truncated or hostile payload returns an error instead of an OOM or
// panic. Each block is bounds-checked once, together with the length
// prefix that follows it (the timestamps with the CPU count, the CPU
// block with the matrix shape, the matrix with the first busy-vector
// length, that vector with the second's, the second vector alone), and
// every field and prefix is then read in place, so a sample costs five
// checks and no helper call.
//
// What decode allocates: a Decoder keeps its storage between calls —
// the []Sample header array, the rails array, and one slab per slice
// kind (CPU counts, interrupt row headers, interrupt counts, OS busy and
// thread busy times) that every sample's slices are carved from — so a
// decoder that has seen a frame of this shape before decodes the next
// one without allocating, and the node string is reused while the node
// stays the same. Every field is written straight into that storage:
// each CPUCounts is filled field by field through a pointer into its
// slab, never built in a temporary and copied. Where the kept storage
// is too small, a slab is replaced by one sized for what this decode
// has carved plus the samples still to come, but capped by what the
// unread bytes could fill, and an interrupt matrix with zero columns
// decodes as nil, so the bytes one decode allocates are bounded by a
// small constant multiple of the frame's length, never by its declared
// counts alone.
// The largest steady ratio is the 112-byte Sample header per 26-byte
// minimal sample (about 4x); the decode tests hold hostile frames under
// 64x.
//
// Layout (all integers little-endian):
//
//	batch  := magic "TDS1" | u16 nodeLen | node bytes | u32 count | sample*
//	sample := f64 targetSeconds | f64 intervalSec
//	          | u16 nCPU  | nCPU * 10 u64   (CPUCounts field order)
//	          | u16 nVec | u16 nCol | nVec*nCol u64   (Ints matrix)
//	          | u16 nBusy | nBusy f64       (OSBusySec)
//	          | u16 nThr  | nThr f64        (OSThreadBusySec)

// wireMagic identifies (and versions) a sample batch.
var wireMagic = [4]byte{'T', 'D', 'S', '1'}

// extMagic introduces the optional trailing trace-context extension
// block. Old decoders reject it as trailing garbage (they predate
// tracing and talk to same-version peers); new decoders accept batches
// with or without it, so producers can roll out trace stamping before
// every server upgrades.
var extMagic = [4]byte{'T', 'D', 'X', '1'}

// extLen is the fixed extension size: magic | u8 flags | 16-byte ID.
const extLen = 4 + 1 + 16

// extFlagSampled marks the batch as head-sampled at the producer: the
// server records a full event timeline for it.
const extFlagSampled = 0x01

// railsMagic introduces the optional trailing measured-rails extension:
// per-subsystem ground-truth power for every sample in the batch, from
// nodes that carry calibration sensors. The adapt layer uses these to
// compute live residuals; uninstrumented nodes simply omit the block.
//
//	rails := magic "TDP1" | u32 count | count × NumSubsystems f64
//
// count must equal the batch's sample count — a mismatch is a framing
// bug, not partial data.
var railsMagic = [4]byte{'T', 'D', 'P', '1'}

// TraceExt is the optional per-batch trace context carried after the
// samples. The producer mints the 128-bit ID and decides sampling so
// trace identity is stable across the client/server boundary.
type TraceExt struct {
	ID      [16]byte
	Sampled bool
}

// IsZero reports whether the extension carries no trace ID.
func (e TraceExt) IsZero() bool { return e.ID == [16]byte{} }

// Decoder guard rails. Real machines top out far below these; anything
// larger is a corrupt or hostile length prefix.
const (
	maxWireNode    = 256
	maxWireCPUs    = 1 << 10
	maxWireVectors = 1 << 12
	maxWireSamples = 1 << 20
)

// countersPerCPU is the number of u64 fields in CPUCounts.
const countersPerCPU = 10

// EncodeBatchExt is EncodeBatchFull without measured rails.
func EncodeBatchExt(buf []byte, node string, samples []Sample, ext TraceExt) ([]byte, error) {
	return EncodeBatchFull(buf, node, samples, ext, nil)
}

// EncodeBatchFull appends the wire encoding of a node's sample batch to
// buf (which may be nil) and returns the extended buffer. When ext
// carries a non-zero trace ID it appends the TDX1 trace-context
// extension, and when rails is non-nil the TDP1 measured-rails
// extension; rails must carry exactly one Reading per sample. Callers
// on the send hot path reuse buf across batches to stay
// allocation-free.
func EncodeBatchFull(buf []byte, node string, samples []Sample, ext TraceExt, rails []power.Reading) ([]byte, error) {
	if rails != nil && len(rails) != len(samples) {
		return nil, fmt.Errorf("perfctr: %d rails readings for %d samples", len(rails), len(samples))
	}
	if len(node) > maxWireNode {
		return nil, fmt.Errorf("perfctr: node name %d bytes exceeds wire limit %d", len(node), maxWireNode)
	}
	if len(samples) > maxWireSamples {
		return nil, fmt.Errorf("perfctr: batch of %d samples exceeds wire limit %d", len(samples), maxWireSamples)
	}
	buf = append(buf, wireMagic[:]...)
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(node)))
	buf = append(buf, node...)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(samples)))
	for i := range samples {
		var err error
		if buf, err = appendSample(buf, &samples[i]); err != nil {
			return nil, fmt.Errorf("perfctr: sample %d: %w", i, err)
		}
	}
	if !ext.IsZero() {
		buf = append(buf, extMagic[:]...)
		var flags byte
		if ext.Sampled {
			flags |= extFlagSampled
		}
		buf = append(buf, flags)
		buf = append(buf, ext.ID[:]...)
	}
	if rails != nil {
		buf = append(buf, railsMagic[:]...)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(rails)))
		for i := range rails {
			for s := 0; s < power.NumSubsystems; s++ {
				buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(rails[i][s]))
			}
		}
	}
	return buf, nil
}

// appendSample appends one sample's wire encoding.
func appendSample(buf []byte, s *Sample) ([]byte, error) {
	if len(s.CPUs) > maxWireCPUs {
		return nil, fmt.Errorf("%d CPUs exceeds wire limit %d", len(s.CPUs), maxWireCPUs)
	}
	if len(s.Ints) > maxWireVectors {
		return nil, fmt.Errorf("%d interrupt vectors exceeds wire limit %d", len(s.Ints), maxWireVectors)
	}
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(s.TargetSeconds))
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(s.IntervalSec))
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(s.CPUs)))
	for i := range s.CPUs {
		c := &s.CPUs[i]
		for _, v := range [countersPerCPU]uint64{
			c.Cycles, c.HaltedCycles, c.FetchedUops, c.L3LoadMisses,
			c.L3Misses, c.TLBMisses, c.BusTx, c.BusPrefetchTx,
			c.DMAOther, c.Uncacheable,
		} {
			buf = binary.LittleEndian.AppendUint64(buf, v)
		}
	}
	// The matrix is rectangular on the wire; rows shorter than the
	// widest are zero-padded (the OS accounting is rectangular anyway).
	cols := 0
	for _, row := range s.Ints {
		if len(row) > cols {
			cols = len(row)
		}
	}
	if cols > maxWireCPUs {
		return nil, fmt.Errorf("%d interrupt columns exceeds wire limit %d", cols, maxWireCPUs)
	}
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(s.Ints)))
	buf = binary.LittleEndian.AppendUint16(buf, uint16(cols))
	for _, row := range s.Ints {
		for c := 0; c < cols; c++ {
			var v uint64
			if c < len(row) {
				v = row[c]
			}
			buf = binary.LittleEndian.AppendUint64(buf, v)
		}
	}
	for _, vec := range [][]float64{s.OSBusySec, s.OSThreadBusySec} {
		if len(vec) > maxWireCPUs {
			return nil, fmt.Errorf("%d busy-time entries exceeds wire limit %d", len(vec), maxWireCPUs)
		}
		buf = binary.LittleEndian.AppendUint16(buf, uint16(len(vec)))
		for _, v := range vec {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
		}
	}
	return buf, nil
}

// wireReader walks a received buffer with bounds checking.
type wireReader struct {
	buf []byte
	off int
}

// need checks that n more bytes are present. It is small enough to
// inline into every field read; the error is built out of line.
func (r *wireReader) need(n int) error {
	if n < 0 || len(r.buf)-r.off < n {
		return r.truncated(n)
	}
	return nil
}

//go:noinline
func (r *wireReader) truncated(n int) error {
	return fmt.Errorf("perfctr: truncated wire batch at offset %d (need %d of %d bytes)",
		r.off, n, len(r.buf)-r.off)
}

// unread returns how many bytes are left after the read offset.
func (r *wireReader) unread() int { return len(r.buf) - r.off }

func (r *wireReader) u32() (int, error) {
	if err := r.need(4); err != nil {
		return 0, err
	}
	v := binary.LittleEndian.Uint32(r.buf[r.off:])
	r.off += 4
	return int(v), nil
}

// u64at reads the i-th little-endian u64 of b; callers have already
// checked that the whole block is present.
func u64at(b []byte, i int) uint64 { return binary.LittleEndian.Uint64(b[8*i:]) }

// u16at reads the little-endian u16 length prefix at byte off of b;
// callers have already checked that it is present.
func u16at(b []byte, off int) int { return int(binary.LittleEndian.Uint16(b[off:])) }

// DecodeBatchExt parses one wire batch plus its optional TDX1
// trace-context extension (ext is zero when absent); a trailing TDP1
// rails extension is accepted and discarded. Callers that want the
// rails use DecodeBatchFull.
func DecodeBatchExt(buf []byte) (node string, samples []Sample, ext TraceExt, err error) {
	node, samples, ext, _, err = DecodeBatchFull(buf)
	return node, samples, ext, err
}

// DecodeBatchFull parses one wire batch plus every optional trailing
// extension: the TDX1 trace context (ext is zero when absent) and the
// TDP1 measured rails (rails is nil when absent). It is Decode on a
// fresh Decoder, so the result shares nothing with buf or with any
// other call's result, and the caller may reuse buf as soon as
// DecodeBatchFull returns. The samples' slices are carved from a few
// per-batch slabs: retaining any one sample keeps its batch's slabs
// alive.
func DecodeBatchFull(buf []byte) (node string, samples []Sample, ext TraceExt, rails []power.Reading, err error) {
	return new(Decoder).Decode(buf)
}

// Decoder decodes wire batches into storage it keeps between calls: the
// sample array, the rails array and the slabs every sample's slices are
// carved from. A hot path that keeps one Decoder per in-flight batch
// decodes without allocating once the storage has grown to its frames'
// shape. A Decoder is not safe for concurrent use, and what Decode
// returns stays valid only until its next call.
type Decoder struct {
	node    string
	samples []Sample
	rails   []power.Reading
	cpus    slab[CPUCounts]
	rows    slab[[]uint64]
	ints    slab[uint64]
	busy    slab[float64]
	thr     slab[float64]
}

// RetainedBytes reports the heap bytes d keeps between decodes (64-bit
// sizes), for pools that drop decoders grown by a rare huge frame.
func (d *Decoder) RetainedBytes() int {
	const sliceHeader = 24
	const sampleBytes = 2*8 + 4*sliceHeader
	return cap(d.samples)*sampleBytes + cap(d.rails)*power.NumSubsystems*8 +
		cap(d.cpus.buf)*countersPerCPU*8 + cap(d.rows.buf)*sliceHeader +
		8*(cap(d.ints.buf)+cap(d.busy.buf)+cap(d.thr.buf))
}

// Decode parses one wire batch plus every optional trailing extension:
// the TDX1 trace context (ext is zero when absent) and the TDP1
// measured rails (rails is nil when absent). Every length prefix is
// validated against both the wire limits and the bytes actually present
// before allocation, and the per-sample timestamps must be finite (a
// NaN interval would poison the per-cycle normalization downstream).
// Trailing bytes that are not a well-formed extension are rejected: a
// length mismatch means a framing bug, not data.
//
// The result shares nothing with buf, so the caller may reuse buf as
// soon as Decode returns. It shares d's storage: the samples, their
// slices and the rails are overwritten by d's next Decode, whether that
// call succeeds or not. A rejected input leaves d usable.
func (d *Decoder) Decode(buf []byte) (node string, samples []Sample, ext TraceExt, rails []power.Reading, err error) {
	r := &wireReader{buf: buf}
	if err := r.need(4); err != nil {
		return "", nil, TraceExt{}, nil, err
	}
	if [4]byte(r.buf[:4]) != wireMagic {
		return "", nil, TraceExt{}, nil, fmt.Errorf("perfctr: bad wire magic %q", r.buf[:4])
	}
	r.off = 4
	if err := r.need(2); err != nil {
		return "", nil, TraceExt{}, nil, err
	}
	nodeLen := u16at(r.buf, r.off)
	r.off += 2
	if nodeLen > maxWireNode {
		return "", nil, TraceExt{}, nil, fmt.Errorf("perfctr: node name %d bytes exceeds wire limit %d", nodeLen, maxWireNode)
	}
	if err := r.need(nodeLen); err != nil {
		return "", nil, TraceExt{}, nil, err
	}
	// The comparison does not allocate; a producer keeps its node name,
	// so a pooled decoder converts it once.
	if name := r.buf[r.off : r.off+nodeLen]; string(name) != d.node {
		d.node = string(name)
	}
	r.off += nodeLen
	count, err := r.u32()
	if err != nil {
		return "", nil, TraceExt{}, nil, err
	}
	if count > maxWireSamples {
		return "", nil, TraceExt{}, nil, fmt.Errorf("perfctr: batch of %d samples exceeds wire limit %d", count, maxWireSamples)
	}
	// Every sample carries at least its fixed header: cheap sanity
	// before the count-sized allocation.
	if err := r.need(count * minSampleBytes); err != nil {
		return "", nil, TraceExt{}, nil, fmt.Errorf("perfctr: %d-sample batch larger than payload: %w", count, err)
	}
	d.samples = reuse(d.samples, count)
	d.cpus.off, d.rows.off, d.ints.off, d.busy.off, d.thr.off = 0, 0, 0, 0, 0
	for i := range d.samples {
		if err := d.decodeSample(r, &d.samples[i], count-i); err != nil {
			return "", nil, TraceExt{}, nil, fmt.Errorf("perfctr: sample %d: %w", i, err)
		}
	}
	if ext, rails, err = d.decodeExtensions(r, count); err != nil {
		return "", nil, TraceExt{}, nil, err
	}
	return d.node, d.samples, ext, rails, nil
}

// reuse returns v resized to n elements, keeping its backing array when
// it is large enough. It never returns nil, so an empty batch decodes to
// an empty, non-nil slice whether or not the storage is new.
func reuse[T any](v []T, n int) []T {
	if v == nil || cap(v) < n {
		return make([]T, n)
	}
	return v[:n]
}

// decodeExtensions walks the trailing extension blocks (TDX1 trace
// context, TDP1 measured rails) in any order. Unknown magic or a
// duplicated block is a framing error — the format versions by magic,
// so silently skipping bytes would hide producer bugs.
func (d *Decoder) decodeExtensions(r *wireReader, nSamples int) (ext TraceExt, rails []power.Reading, err error) {
	seenExt, seenRails := false, false
	for r.off < len(r.buf) {
		if err := r.need(4); err != nil {
			return TraceExt{}, nil, fmt.Errorf("perfctr: %d trailing bytes after wire batch", len(r.buf)-r.off)
		}
		magic := [4]byte(r.buf[r.off : r.off+4])
		switch magic {
		case extMagic:
			if seenExt {
				return TraceExt{}, nil, fmt.Errorf("perfctr: duplicate trace extension")
			}
			seenExt = true
			if err := r.need(extLen); err != nil {
				return TraceExt{}, nil, err
			}
			flags := r.buf[r.off+4]
			if flags&^extFlagSampled != 0 {
				return TraceExt{}, nil, fmt.Errorf("perfctr: unknown trace extension flags %#02x", flags)
			}
			copy(ext.ID[:], r.buf[r.off+5:r.off+extLen])
			ext.Sampled = flags&extFlagSampled != 0
			r.off += extLen
		case railsMagic:
			if seenRails {
				return TraceExt{}, nil, fmt.Errorf("perfctr: duplicate rails extension")
			}
			seenRails = true
			r.off += 4
			count, err := r.u32()
			if err != nil {
				return TraceExt{}, nil, err
			}
			if count != nSamples {
				return TraceExt{}, nil, fmt.Errorf(
					"perfctr: rails extension carries %d readings for %d samples", count, nSamples)
			}
			if err := r.need(count * power.NumSubsystems * 8); err != nil {
				return TraceExt{}, nil, err
			}
			d.rails = reuse(d.rails, count)
			rails = d.rails
			b := r.buf[r.off:]
			for i := range rails {
				for s := range rails[i] {
					rails[i][s] = math.Float64frombits(u64at(b, i*power.NumSubsystems+s))
				}
			}
			r.off += count * power.NumSubsystems * 8
		default:
			// Quote the bytes in place: magic[:] would make magic escape
			// and cost an allocation on every decode, not just this one.
			return TraceExt{}, nil, fmt.Errorf("perfctr: unknown trailing block %q", r.buf[r.off:r.off+4])
		}
	}
	return ext, rails, nil
}

// minSampleBytes is the smallest sample on the wire: two f64
// timestamps and five u16 lengths, every block empty.
const minSampleBytes = 2*8 + 5*2

// cpuWireBytes is one CPUCounts on the wire.
const cpuWireBytes = countersPerCPU * 8

// slab is one kind of backing array that decodeSample carves samples'
// slices from, so a batch costs no allocation once a Decoder's slabs
// fit its frames, and a handful when they do not.
type slab[T any] struct {
	buf []T
	off int // next element to carve; Decode rewinds it to 0
}

// carve returns the next n elements of s as a slice whose capacity is
// its length (a full slice expression), so appending to one sample's
// slice reallocates instead of overwriting the next sample's. When the
// slab has fewer than n elements left it is replaced by a fresh one
// with room for the off elements this decode has carved and want more
// (at least n), so the next decode of a frame this shape fits. The
// replacement's head stays unused until then. n == 0 yields nil.
func (s *slab[T]) carve(n, want int) []T {
	if n == 0 {
		return nil
	}
	if len(s.buf)-s.off < n {
		s.buf = make([]T, s.off+max(n, want))
	}
	v := s.buf[s.off : s.off+n : s.off+n]
	s.off += n
	return v
}

// slabWant sizes a replacement slab: room for every sample from this one
// on to need per elements, as this one does, but never more elements
// than the unread bytes could fill at wireSize bytes each. The cap is
// what bounds decode allocation by the frame size: a slab is only as
// large as the payload that could consume it.
func slabWant(per, samplesLeft, unread, wireSize int) int {
	return min(per*samplesLeft, unread/wireSize)
}

// decodeSample parses one sample in place, overwriting every field,
// and carves its slices from d's slabs. left counts this sample and the
// ones after it, for slab sizing. Each wire block is bounds-checked
// once together with the length prefix that follows it, so every
// field and prefix is then read straight from the buffer.
func (d *Decoder) decodeSample(r *wireReader, s *Sample, left int) error {
	// The timestamps and the CPU-count prefix.
	if err := r.need(16 + 2); err != nil {
		return err
	}
	b := r.buf[r.off:]
	s.TargetSeconds = math.Float64frombits(u64at(b, 0))
	s.IntervalSec = math.Float64frombits(u64at(b, 1))
	if !isFinite(s.TargetSeconds) || !isFinite(s.IntervalSec) {
		return fmt.Errorf("non-finite timestamp (t=%g interval=%g)", s.TargetSeconds, s.IntervalSec)
	}
	nCPU := u16at(b, 16)
	r.off += 16 + 2
	if nCPU > maxWireCPUs {
		return fmt.Errorf("%d CPUs exceeds wire limit %d", nCPU, maxWireCPUs)
	}
	// The CPU block and the two matrix-shape prefixes.
	cpuBytes := nCPU * cpuWireBytes
	if err := r.need(cpuBytes + 2 + 2); err != nil {
		return err
	}
	s.CPUs = d.cpus.carve(nCPU, slabWant(nCPU, left, r.unread(), cpuWireBytes))
	b = r.buf[r.off:]
	for i := range s.CPUs {
		// Field by field through a pointer: a composite literal would be
		// built in a temporary and then copied.
		p := (*[cpuWireBytes]byte)(b[i*cpuWireBytes:])
		c := &s.CPUs[i]
		c.Cycles = u64at(p[:], 0)
		c.HaltedCycles = u64at(p[:], 1)
		c.FetchedUops = u64at(p[:], 2)
		c.L3LoadMisses = u64at(p[:], 3)
		c.L3Misses = u64at(p[:], 4)
		c.TLBMisses = u64at(p[:], 5)
		c.BusTx = u64at(p[:], 6)
		c.BusPrefetchTx = u64at(p[:], 7)
		c.DMAOther = u64at(p[:], 8)
		c.Uncacheable = u64at(p[:], 9)
	}
	nVec, cols := u16at(b, cpuBytes), u16at(b, cpuBytes+2)
	r.off += cpuBytes + 2 + 2
	if nVec > maxWireVectors || cols > maxWireCPUs {
		return fmt.Errorf("interrupt matrix %dx%d exceeds wire limits", nVec, cols)
	}
	// The matrix and the OS-busy prefix.
	intBytes := nVec * cols * 8
	if err := r.need(intBytes + 2); err != nil {
		return err
	}
	// A matrix without columns carries no counts, so it decodes as nil:
	// row headers for vectors the frame spent no bytes on would let a
	// 26-byte sample demand thousands of allocations.
	s.Ints = nil
	if nVec > 0 && cols > 0 {
		unread := r.unread()
		s.Ints = d.rows.carve(nVec, slabWant(nVec, left, unread, cols*8))
		flat := d.ints.carve(nVec*cols, slabWant(nVec*cols, left, unread, 8))
		b := r.buf[r.off:]
		for k := range flat {
			flat[k] = u64at(b, k)
		}
		for v := range s.Ints {
			s.Ints[v] = flat[v*cols : (v+1)*cols : (v+1)*cols]
		}
	}
	nBusy := u16at(r.buf, r.off+intBytes)
	r.off += intBytes + 2
	if nBusy > maxWireCPUs {
		return fmt.Errorf("%d busy-time entries exceeds wire limit %d", nBusy, maxWireCPUs)
	}
	// The OS-busy vector and the thread-busy prefix.
	if err := r.need(nBusy*8 + 2); err != nil {
		return err
	}
	s.OSBusySec = nil
	if nBusy > 0 {
		s.OSBusySec = d.busy.carve(nBusy, slabWant(nBusy, left, r.unread(), 8))
		if i := fillBusy(s.OSBusySec, r.buf[r.off:]); i >= 0 {
			return fmt.Errorf("non-finite busy time %g", s.OSBusySec[i])
		}
	}
	nThr := u16at(r.buf, r.off+nBusy*8)
	r.off += nBusy*8 + 2
	if nThr > maxWireCPUs {
		return fmt.Errorf("%d busy-time entries exceeds wire limit %d", nThr, maxWireCPUs)
	}
	// The thread-busy vector; the next block is the next sample's.
	if err := r.need(nThr * 8); err != nil {
		return err
	}
	s.OSThreadBusySec = nil
	if nThr > 0 {
		s.OSThreadBusySec = d.thr.carve(nThr, slabWant(nThr, left, r.unread(), 8))
		if i := fillBusy(s.OSThreadBusySec, r.buf[r.off:]); i >= 0 {
			return fmt.Errorf("non-finite busy time %g", s.OSThreadBusySec[i])
		}
	}
	r.off += nThr * 8
	return nil
}

// fillBusy reads len(vec) busy times from b, which holds at least that
// many, and returns the index of the first non-finite one, or -1.
func fillBusy(vec []float64, b []byte) int {
	for i := range vec {
		v := math.Float64frombits(u64at(b, i))
		vec[i] = v
		if !isFinite(v) {
			return i
		}
	}
	return -1
}

func isFinite(v float64) bool {
	return !math.IsNaN(v) && !math.IsInf(v, 0)
}
