package wtrace

import (
	"testing"

	"trickledown/internal/align"
	"trickledown/internal/machine"
	"trickledown/internal/workload"
)

// goldenDBT2TraceFP pins the WTR1 fingerprint of recording the
// fixed-seed dbt-2 run below. Any change to the generators, the
// machine's slice stepping, the RNG split order, or the codec that
// moves recorded rates shows up here first — the same bar the PR 4
// byte-identical dataset fingerprints set.
const goldenDBT2TraceFP = "ab2d492b2e395ca8"

// goldenConfig is the fixed recording configuration: the paper's
// server at a pinned seed, 20 recorded seconds.
func goldenConfig() machine.Config {
	cfg := machine.DefaultConfig()
	cfg.Seed = 7
	return cfg
}

const goldenSeconds = 20

// TestGoldenRecordReplayDBT2 records a fixed-seed dbt-2 run, checks the
// trace fingerprint against the pinned golden, then replays the trace's
// Placements through a fresh machine.NewMixed and requires the replayed
// aligned dataset to be byte-identical (align.Fingerprint) to the live
// run's.
func TestGoldenRecordReplayDBT2(t *testing.T) {
	spec, err := workload.ByName("dbt-2")
	if err != nil {
		t.Fatal(err)
	}
	cfg := goldenConfig()
	rec, err := NewRecorder(spec.Name, 1/cfg.Slice.Seconds(), spec.Instances)
	if err != nil {
		t.Fatal(err)
	}
	rspec, err := RecordSpec(spec, rec)
	if err != nil {
		t.Fatal(err)
	}
	live, err := machine.New(cfg, rspec)
	if err != nil {
		t.Fatal(err)
	}
	live.Run(goldenSeconds)
	liveDS, err := live.Dataset()
	if err != nil {
		t.Fatal(err)
	}
	liveFP := align.Fingerprint(liveDS)

	tr, err := rec.Trace()
	if err != nil {
		t.Fatal(err)
	}
	traceFP, err := tr.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if traceFP != goldenDBT2TraceFP {
		t.Errorf("dbt-2 trace fingerprint %s, golden %s", traceFP, goldenDBT2TraceFP)
	}

	// Round-trip the trace through the codec before replaying: the
	// replayed machine must see exactly what a reader of the file sees.
	enc, err := tr.EncodeBytes()
	if err != nil {
		t.Fatal(err)
	}
	dec, err := DecodeBytes(enc)
	if err != nil {
		t.Fatal(err)
	}
	placements, err := dec.Placements()
	if err != nil {
		t.Fatal(err)
	}
	replay, err := machine.NewMixed(cfg, placements)
	if err != nil {
		t.Fatal(err)
	}
	replay.Run(goldenSeconds)
	rpDS, err := replay.Dataset()
	if err != nil {
		t.Fatal(err)
	}
	if rpFP := align.Fingerprint(rpDS); rpFP != liveFP {
		t.Errorf("replay dataset %s != live dataset %s", rpFP, liveFP)
	}
	if tr.Header.ChipsetDomainBias != spec.ChipsetDomainBias {
		t.Errorf("trace bias %v != spec bias %v", tr.Header.ChipsetDomainBias, spec.ChipsetDomainBias)
	}
}
