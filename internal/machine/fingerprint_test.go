package machine

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"testing"
	"time"

	"trickledown/internal/align"
	"trickledown/internal/daq"
	"trickledown/internal/power"
)

// TestDatasetFingerprintPins pins the aligned dataset of short
// fixed-seed runs bit for bit. Together the first four rows walk every
// layer of the slice stepper: SMT sharing, the prefetcher and
// speculation (gcc on the paper's 4x2 server), both disks, DMA and the
// dirty-page flush (diskload), and the fleet's small one-disk node with
// an idle thread beside a busy one. A pure-idle node pins the
// fast-forwarded idle window, and the same node under a crash injector
// that never fires pins the slice path it would otherwise take. The
// last rows hold the stepper's memoised per-slice values to their
// inputs: that sliced idle node, a non-default slice length, and a DAQ
// rate whose per-slice sample count alternates. A stepper change meant
// to be a pure speedup must leave every constant here untouched; one
// that redraws only the DAQ's noise moves want and must leave timing.
func TestDatasetFingerprintPins(t *testing.T) {
	small := DefaultConfig()
	small.NumCPUs, small.ThreadsPerCPU, small.NumDisks = 1, 2, 1
	cases := []struct {
		name    string
		cfg     Config
		seed    uint64
		seconds float64
		build   func(Config) (*Server, error)
		want    string
		timing  string // timingFingerprint: everything but the power means
	}{
		{
			name: "gcc-4x2", cfg: DefaultConfig(), seed: 11, seconds: 40,
			build:  func(cfg Config) (*Server, error) { return New(cfg, mustSpec(t, "gcc")) },
			want:   "d0833ace145b6929",
			timing: "546619a8841f6c53",
		},
		{
			name: "diskload-4x2", cfg: DefaultConfig(), seed: 12, seconds: 20,
			build:  func(cfg Config) (*Server, error) { return New(cfg, mustSpec(t, "diskload")) },
			want:   "8eeea034f44ba681",
			timing: "242fd0ec26ca35e4",
		},
		{
			name: "idle+dbt-2-1x2", cfg: small, seed: 13, seconds: 10,
			build: func(cfg Config) (*Server, error) {
				return NewMixed(cfg, []Placement{
					{Workload: "idle", Thread: 0},
					{Workload: "dbt-2", Thread: 1},
				})
			},
			want:   "1bc5fd1637174bcf",
			timing: "a5a892439f2bd971",
		},
		{
			// The experiments runner's reduced-scale mcf: the dataset
			// load of eight instances staggered 0.02 x 30 s apart queues
			// more than 7,000 requests at the disks.
			name: "mcf-4x2-deepqueue", cfg: DefaultConfig(), seed: 14, seconds: 30,
			build: func(cfg Config) (*Server, error) {
				spec := mustSpec(t, "mcf")
				spec.StaggerSec *= 0.02
				return New(cfg, spec)
			},
			want:   "8ab413cec5226231",
			timing: "8d4c1792a3b503ba",
		},
		{
			// A pure-idle node: every window between samples is
			// fast-forwarded in closed form.
			name: "idle-1x2", cfg: small, seed: 15, seconds: 10,
			build: func(cfg Config) (*Server, error) {
				return NewMixed(cfg, []Placement{{Workload: "idle", Thread: 0}})
			},
			want:   "b0427824c5fba44b",
			timing: "39c9fbeed9b708f3",
		},
		{
			// The same node under an injector that never fires: an
			// injector keeps the slice path, so every slice repeats the
			// same Poisson means (NIC chatter, the idle thread's
			// uncacheable accesses).
			name: "idle-1x2-sliced", cfg: small, seed: 15, seconds: 10,
			build: func(cfg Config) (*Server, error) {
				srv, err := NewMixed(cfg, []Placement{{Workload: "idle", Thread: 0}})
				if err == nil {
					srv.SetCrashInjector(&stubCrash{})
				}
				return srv, err
			},
			want:   "ac961455f3b13465",
			timing: "8f9fb274481ca8c0",
		},
		{
			// A 500 us slice: every slice-length-keyed noise scale
			// and the clock's slice seconds take a non-default value.
			name: "gcc-1x2-slice500us", cfg: small, seed: 16, seconds: 10,
			build: func(cfg Config) (*Server, error) {
				cfg.Slice = 500 * time.Microsecond
				return NewMixed(cfg, []Placement{{Workload: "gcc", Thread: 0}})
			},
			want:   "5176fa026dd09545",
			timing: "d6b3f63d38d2bbff",
		},
		{
			// 7.5 DAQ samples per slice: the carried fraction makes
			// the per-slice sample count alternate 7, 8, 7, 8, ...
			name: "dbt-2-1x2-daq7500", cfg: small, seed: 17, seconds: 10,
			build: func(cfg Config) (*Server, error) {
				cfg.DAQ.SampleHz = 7500
				return NewMixed(cfg, []Placement{{Workload: "dbt-2", Thread: 0}})
			},
			want:   "deeb41ec420a9d68",
			timing: "c511c63d8e4f902c",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			cfg.Seed = tc.seed
			srv, err := tc.build(cfg)
			if err != nil {
				t.Fatal(err)
			}
			srv.Run(tc.seconds)
			ds, err := srv.Dataset()
			if err != nil {
				t.Fatal(err)
			}
			if got := align.Fingerprint(ds); got != tc.want {
				t.Errorf("fingerprint %s, pinned %s", got, tc.want)
			}
			if got := timingFingerprint(ds, srv.DAQ().Records()); got != tc.timing {
				t.Errorf("timing fingerprint %s, pinned %s", got, tc.timing)
			}
		})
	}
}

// timingFingerprint hashes every dataset field but the five power
// means (align.Fingerprint of the dataset with its means zeroed), then
// each DAQ record's sample count and closing timestamp. A change to how
// the DAQ draws its noise moves only the means, so it must leave this
// hash alone.
func timingFingerprint(ds *align.Dataset, recs []daq.Record) string {
	blind := &align.Dataset{Rows: append([]align.Row(nil), ds.Rows...)}
	for i := range blind.Rows {
		blind.Rows[i].Power = power.Reading{}
	}
	h := fnv.New64a()
	h.Write([]byte(align.Fingerprint(blind)))
	var buf [16]byte
	for _, r := range recs {
		binary.LittleEndian.PutUint64(buf[:8], uint64(r.Samples))
		binary.LittleEndian.PutUint64(buf[8:], math.Float64bits(r.DAQSeconds))
		h.Write(buf[:])
	}
	return fmt.Sprintf("%016x", h.Sum64())
}
