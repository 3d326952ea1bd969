package machine

import (
	"math"
	"testing"

	"trickledown/internal/disk"
	"trickledown/internal/power"
	"trickledown/internal/sim"
	"trickledown/internal/workload"
)

// demandBytes is how many fuzz input bytes make one Demand: one per
// float field, indexing fuzzLevels, and one flag byte (bit 0 RandomIO,
// bit 1 Sync).
const demandBytes = 16

// fuzzLevels are the fractions of a field's ceiling a fuzz byte can
// pick, then the inputs Demand.Sanitize must zero: NaN, ±Inf, negative
// and −0 (which it keeps).
var fuzzLevels = []float64{0, 0.001, 0.01, 0.1, 0.25, 0.5, 0.75, 1,
	math.NaN(), math.Inf(1), math.Inf(-1), -1, math.Copysign(0, -1)}

// fuzzCeilings bound each float field of Demand, in declaration order,
// at or above anything a registered generator emits: fractions at 1,
// uop throughput at the P4's 3 per cycle, I/O at 1 MiB per 1 ms slice
// (13× the disk's media rate). The bound keeps every script's I/O
// drainable in a tail of finite length.
var fuzzCeilings = [15]float64{
	1,       // Active
	3,       // UopsPerCycle
	1,       // SpecActivity
	1,       // L2PerUop
	100,     // L3MissPerKuop
	1,       // DirtyEvictFrac
	1,       // Prefetchability
	1e4,     // TLBMissPerMuop
	1e4,     // UCPerMcycle
	1,       // WriteFrac
	1,       // MemLocality
	1 << 20, // DiskReadBytes
	1 << 20, // DiskWriteBytes
	1 << 20, // NetRxBytes
	1 << 20, // NetTxBytes
}

// maxScript caps a fuzz script at 64 slices per thread.
const maxScript = 64

// decodeScript turns fuzz bytes into one Demand per whole demandBytes.
func decodeScript(data []byte) []workload.Demand {
	n := min(len(data)/demandBytes, maxScript)
	script := make([]workload.Demand, n)
	for i := range script {
		b := data[i*demandBytes:]
		v := func(k int) float64 {
			l := fuzzLevels[int(b[k])%len(fuzzLevels)]
			if l > 0 {
				l *= fuzzCeilings[k]
			}
			return l
		}
		script[i] = workload.Demand{
			Active: v(0), UopsPerCycle: v(1), SpecActivity: v(2), L2PerUop: v(3),
			L3MissPerKuop: v(4), DirtyEvictFrac: v(5), Prefetchability: v(6),
			TLBMissPerMuop: v(7), UCPerMcycle: v(8), WriteFrac: v(9), MemLocality: v(10),
			DiskReadBytes: v(11), DiskWriteBytes: v(12), NetRxBytes: v(13), NetTxBytes: v(14),
			RandomIO: b[15]&1 != 0, Sync: b[15]&2 != 0,
		}
	}
	return script
}

// flushChunk mirrors osmodel's writeback request size: a sync() splits
// the dirty bytes into requests of at most this many.
const flushChunk = 256 << 10

// ioBound counts an upper bound on the disk requests a script can
// submit, from the demands the machine sees (after Sanitize): one per
// random write and one per read, and for buffered writes one per
// flushChunk (rounded up) plus one remainder per sync(). bytes is their
// total, the media time the tail must leave for draining.
type ioBound struct {
	requests, buffered, syncs, bytes float64
}

func (b *ioBound) add(d workload.Demand) {
	d.Sanitize()
	if d.DiskWriteBytes > 0 {
		if d.RandomIO {
			b.requests++
		} else {
			b.buffered += d.DiskWriteBytes
		}
	}
	if d.DiskReadBytes > 0 {
		b.requests++
	}
	if d.Sync {
		b.syncs++
	}
	b.bytes += d.DiskReadBytes + d.DiskWriteBytes
}

func (b *ioBound) max() float64 {
	return b.requests + math.Ceil(b.buffered/flushChunk) + b.syncs
}

// scriptSpec places one replay of script on each thread of a 1x2
// server; every demand both threads emit is added to io.
func scriptSpec(script []workload.Demand, io *ioBound) workload.Spec {
	return workload.Spec{
		Name:      "fuzz-script",
		Instances: 2,
		Make: func(int, *sim.RNG) workload.Generator {
			return &boundedGen{scriptedGen{script: script}, io}
		},
	}
}

// boundedGen is a scriptedGen that counts what it emits into io.
type boundedGen struct {
	scriptedGen
	io *ioBound
}

func (g *boundedGen) Demand(t float64, env workload.Env, rng *sim.RNG) workload.Demand {
	d := g.scriptedGen.Demand(t, env, rng)
	g.io.add(d)
	return d
}

// runScript steps a 1x2 server through script and then a zero-demand
// tail, returning the server and each rail's range over the last
// second. check runs after every slice.
func runScript(t *testing.T, script []workload.Demand, io *ioBound, seconds float64, check func(*Server, SliceInfo)) (*Server, [2]power.Reading) {
	t.Helper()
	cfg := DefaultConfig()
	cfg.NumCPUs, cfg.ThreadsPerCPU = 1, 2
	spec := scriptSpec(script, io)
	srv, err := NewMixed(cfg, []Placement{{Thread: 0, Spec: &spec}, {Thread: 1, Spec: &spec}})
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := power.Reading{}, power.Reading{}
	for i := range lo {
		lo[i], hi[i] = math.Inf(1), math.Inf(-1)
	}
	srv.OnSlice(func(si SliceInfo) {
		if check != nil {
			check(srv, si)
		}
		if si.Seconds >= seconds-1 {
			for i, w := range si.Truth {
				lo[i], hi[i] = min(lo[i], w), max(hi[i], w)
			}
		}
	})
	srv.Run(seconds)
	return srv, [2]power.Reading{lo, hi}
}

// FuzzServerStep drives a 1x2 server with fuzz-chosen Demand sequences
// and checks that rails and the float counts behind every PMU delta
// stay finite and non-negative, that the disks never hold more requests
// (waiting plus completed) than the demands submitted, and that after a
// zero-demand tail long enough to drain every byte no writeback is
// still draining and every rail is back inside the idle envelope: the
// range a zero-demand run of the same seed and length shows over its
// last second, widened by 0.5 W.
func FuzzServerStep(f *testing.F) {
	// The checked-in corpus under testdata/fuzz/FuzzServerStep holds
	// TestNonFiniteDemandCannotWedgeServer's two wedges (an infinite
	// buffered write then sync(), and an infinite random write) and a
	// busy thread writing and reading 1 MiB a slice, then sync().
	f.Fuzz(func(t *testing.T, data []byte) {
		script := decodeScript(data)
		// Both threads replay the script. Size the tail for their worst
		// case: every byte at the media rate on one disk, 50 ms of seek
		// and rotation per request, and 2 s to settle.
		var one ioBound
		for _, d := range script {
			one.add(d)
		}
		seconds := math.Ceil(float64(len(script))/1000 + 2 + 2*one.bytes/disk.TransferRate + 2*0.05*one.max())

		var io ioBound
		var completed int
		srv, got := runScript(t, script, &io, seconds, func(srv *Server, si SliceInfo) {
			for i, w := range si.Truth {
				if math.IsNaN(w) || math.IsInf(w, 0) {
					t.Fatalf("t=%.3fs: rail %s = %v", si.Seconds, power.Subsystem(i), w)
				}
			}
			for c, st := range srv.lastCPU {
				for _, v := range []float64{st.Cycles, st.HaltedCycles, st.FetchedUops, st.L3LoadMisses,
					st.L3Misses, st.Writebacks, st.TLBMisses, st.UCAccesses, st.DemandBusTx, st.PrefetchBusTx} {
					if !(v >= 0) || math.IsInf(v, 0) {
						t.Fatalf("t=%.3fs: cpu %d slice stats %+v: a PMU count is %v", si.Seconds, c, st, v)
					}
				}
			}
			completed += srv.osRes.Disk.Completions
			if held := float64(srv.osRes.Disk.QueueLen + completed); held > io.max() {
				t.Fatalf("t=%.3fs: disks hold %d waiting + %d completed requests, but at most %g were submitted",
					si.Seconds, srv.osRes.Disk.QueueLen, completed, io.max())
			}
		})
		if srv.os.FlushActive() {
			t.Fatalf("writeback still draining after a %gs run", seconds)
		}
		var idle ioBound
		_, want := runScript(t, nil, &idle, seconds, nil)
		for i := range got[0] {
			if got[0][i] < want[0][i]-0.5 || got[1][i] > want[1][i]+0.5 {
				t.Errorf("rail %s over the last second: [%.3f, %.3f] W, idle envelope [%.3f, %.3f] W",
					power.Subsystem(i), got[0][i], got[1][i], want[0][i]-0.5, want[1][i]+0.5)
			}
		}
	})
}
