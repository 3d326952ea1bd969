package machine

import (
	"testing"

	"trickledown/internal/align"
)

// TestDatasetFingerprintPins pins the aligned dataset of short
// fixed-seed runs bit for bit. Together the three shapes walk every
// layer of the slice stepper: SMT sharing, the prefetcher and
// speculation (gcc on the paper's 4x2 server), both disks, DMA and the
// dirty-page flush (diskload), and the fleet's small one-disk node with
// an idle thread beside a busy one. A stepper change meant to be a pure
// speedup must leave every constant here untouched.
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
