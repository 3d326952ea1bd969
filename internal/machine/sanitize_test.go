package machine

import (
	"math"
	"testing"

	"trickledown/internal/sim"
	"trickledown/internal/workload"
)

// scriptedGen plays a fixed demand sequence, one entry per slice, then
// demands nothing.
type scriptedGen struct {
	script []workload.Demand
	next   int
}

func (g *scriptedGen) Name() string { return "scripted" }

func (g *scriptedGen) Demand(float64, workload.Env, *sim.RNG) workload.Demand {
	if g.next >= len(g.script) {
		return workload.Demand{}
	}
	g.next++
	return g.script[g.next-1]
}

// TestNonFiniteDemandCannotWedgeServer: an infinite buffered write
// followed by sync(), and an infinite random write, are zeroed before
// the OS sees them, so after 5 s of zero demand no writeback is still
// draining. Without the sanitizer both leave FlushActive true forever;
// a NaN write was already harmless.
func TestNonFiniteDemandCannotWedgeServer(t *testing.T) {
	inf := math.Inf(1)
	for _, tc := range []struct {
		name   string
		script []workload.Demand
	}{
		{"buffered-inf-then-sync", []workload.Demand{{DiskWriteBytes: inf}, {Sync: true}}},
		{"random-inf-write", []workload.Demand{{DiskWriteBytes: inf, RandomIO: true}}},
		{"nan-write-then-sync", []workload.Demand{{DiskWriteBytes: math.NaN()}, {Sync: true}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.NumCPUs, cfg.ThreadsPerCPU = 1, 2
			spec := workload.Spec{
				Name:      "scripted",
				Instances: 1,
				Make: func(int, *sim.RNG) workload.Generator {
					return &scriptedGen{script: tc.script}
				},
			}
			srv, err := New(cfg, spec)
			if err != nil {
				t.Fatal(err)
			}
			before := mDemandSanitized.Value()
			srv.Run(5.5)
			if srv.os.FlushActive() {
				t.Fatal("writeback still draining after 5 s of zero demand")
			}
			if got := mDemandSanitized.Value() - before; got != 1 {
				t.Errorf("machine_demand_sanitized_total grew by %d, want 1", got)
			}
		})
	}
}
