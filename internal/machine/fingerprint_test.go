package machine

import (
	"testing"
	"time"

	"trickledown/internal/align"
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
// to be a pure speedup must leave every constant here untouched.
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
	}{
		{
			name: "gcc-4x2", cfg: DefaultConfig(), seed: 11, seconds: 40,
			build: func(cfg Config) (*Server, error) { return New(cfg, mustSpec(t, "gcc")) },
			want:  "217317f57d88d3b3",
		},
		{
			name: "diskload-4x2", cfg: DefaultConfig(), seed: 12, seconds: 20,
			build: func(cfg Config) (*Server, error) { return New(cfg, mustSpec(t, "diskload")) },
			want:  "3c726e8191025794",
		},
		{
			name: "idle+dbt-2-1x2", cfg: small, seed: 13, seconds: 10,
			build: func(cfg Config) (*Server, error) {
				return NewMixed(cfg, []Placement{
					{Workload: "idle", Thread: 0},
					{Workload: "dbt-2", Thread: 1},
				})
			},
			want: "01b8108813b11df7",
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
			want: "54f8c3d3317e6b91",
		},
		{
			// A pure-idle node: every window between samples is
			// fast-forwarded in closed form.
			name: "idle-1x2", cfg: small, seed: 15, seconds: 10,
			build: func(cfg Config) (*Server, error) {
				return NewMixed(cfg, []Placement{{Workload: "idle", Thread: 0}})
			},
			want: "9039d9f748dd1d5d",
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
			want: "a6b81a6bb2624a2c",
		},
		{
			// A 500 us slice: every slice-length-keyed noise scale
			// and the clock's slice seconds take a non-default value.
			name: "gcc-1x2-slice500us", cfg: small, seed: 16, seconds: 10,
			build: func(cfg Config) (*Server, error) {
				cfg.Slice = 500 * time.Microsecond
				return NewMixed(cfg, []Placement{{Workload: "gcc", Thread: 0}})
			},
			want: "05613a05efe10cd7",
		},
		{
			// 7.5 DAQ samples per slice: the carried fraction makes
			// the per-slice sample count alternate 7, 8, 7, 8, ...
			name: "dbt-2-1x2-daq7500", cfg: small, seed: 17, seconds: 10,
			build: func(cfg Config) (*Server, error) {
				cfg.DAQ.SampleHz = 7500
				return NewMixed(cfg, []Placement{{Workload: "dbt-2", Thread: 0}})
			},
			want: "3e975d51b11aabd5",
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
		})
	}
}
